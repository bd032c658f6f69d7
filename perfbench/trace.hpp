#pragma once
// Span recorder for the benchmark's traced runs. Spans are opened and closed
// around calls into the library's public functions from the benchmark's own
// code; nothing inside the library is instrumented. One Tracer belongs to one
// thread (spans nest on that thread's stack); threads' span lists are merged
// with append_spans after they join.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to`.
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Span {
  const char* name = "";  // layer name, e.g. "transpiler"; static storage
  double start_ms = 0;    // relative to the process-wide trace epoch
  double end_ms = 0;
  int parent = -1;        // index of the enclosing span in the same list
  std::uint64_t job = 0;  // spans of one job share this id
  int thread = 0;         // recording thread (index of its Tracer)
};

class Tracer {
 public:
  /// A disabled tracer records nothing and never reads the clock.
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }
  /// Open a span nested under the innermost open span; returns its index.
  int open(const char* name, std::uint64_t job);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t job)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name, job) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Append `from` to `into`, rebasing parent indices.
void append_spans(std::vector<Span>& into, const std::vector<Span>& from);

/// Per-layer totals over a span list: self time (a span's duration minus the
/// time its direct children cover) and plain duration, both summed by name,
/// and the number of distinct jobs with a span of that name.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
  std::map<std::string, std::size_t> jobs;

  /// Mean self (or total) time per job that entered the layer; 0 if none.
  double mean_self(const std::string& name) const;
  double mean_total(const std::string& name) const;
};
LayerTimes layer_times(const std::vector<Span>& spans);

/// Write spans as one JSON array (name, start, end, parent, job, thread).
/// Returns false when the file cannot be written.
bool dump_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
