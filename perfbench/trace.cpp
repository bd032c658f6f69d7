#include "trace.hpp"

#include <cstdio>
#include <set>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double now_ms() { return ms_between(kEpoch, Clock::now()); }

}  // namespace

int Tracer::open(const char* name, std::uint64_t job) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.job = job;
  span.thread = thread_;
  span.start_ms = now_ms();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[index].end_ms = now_ms();
  // Spans close innermost first (ScopedSpan), so `index` is the stack top.
  stack_.pop_back();
}

void append_spans(std::vector<Span>& into, const std::vector<Span>& from) {
  const int base = static_cast<int>(into.size());
  for (Span s : from) {
    if (s.parent >= 0) s.parent += base;
    into.push_back(s);
  }
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  LayerTimes out;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  std::map<std::string, std::set<std::uint64_t>> jobs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double total = spans[i].end_ms - spans[i].start_ms;
    out.total_ms[spans[i].name] += total;
    out.self_ms[spans[i].name] += total - child_ms[i];
    jobs[spans[i].name].insert(spans[i].job);
  }
  for (const auto& [name, ids] : jobs) out.jobs[name] = ids.size();
  return out;
}

namespace {

double mean_of(const std::map<std::string, double>& sums,
               const std::map<std::string, std::size_t>& jobs,
               const std::string& name) {
  const auto it = jobs.find(name);
  return it == jobs.end() ? 0.0 : sums.at(name) / it->second;
}

}  // namespace

double LayerTimes::mean_self(const std::string& name) const {
  return mean_of(self_ms, jobs, name);
}

double LayerTimes::mean_total(const std::string& name) const {
  return mean_of(total_ms, jobs, name);
}

bool dump_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"parent\":%d,\"job\":%llu,\"thread\":%d}%s\n",
                 s.name, s.start_ms, s.end_ms, s.parent,
                 static_cast<unsigned long long>(s.job), s.thread,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
