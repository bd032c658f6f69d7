#pragma once
// The benchmark's four workloads (see NOTES.md for why each exists and which
// layers it loads). Each runs at library defaults: nothing here sets a QTC_*
// knob or a programmatic override while a timed window is open.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: half the window untraced, half traced through the replica,
  /// reporting per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Submit one deliberately invalid job (shots = 0, or a circuit wider than
  /// the device for compile-only runs); it must count as failed.
  bool inject_bad_job = false;
  /// Where a traced run writes its span dump (empty: no dump).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> problems;  // failed correctness checks
  long attempted = 0;
  long failed = 0;  // jobs that threw, were rejected, or returned wrong output
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed before JSON

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
};

const std::vector<std::string>& workload_names();

/// Time one fresh set-up of `workload` (device construction, service start,
/// first-call lazy init) in seconds.
double time_setup(const std::string& workload);

Report run_workload(const Options& options);

}  // namespace perfbench
