// qtc_perfbench: one run of one benchmark workload. Prints a configuration
// header, human-readable notes, and as its last line a JSON object with the
// correctness verdict, job counts and metrics. run.py builds this binary,
// times set-up in fresh processes, and prints the final result line.
//
//   qtc_perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//                 [--trace-out <file>] [--inject-bad-job] [--commit <sha>]
//   qtc_perfbench --setup-only --workload <name>

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "core/cpu_features.hpp"
#include "core/parallel.hpp"
#include "service/execution_service.hpp"
#include "sim/simd.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usable_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// The hardware and configuration every result is read against.
std::string config_json(const std::string& commit) {
  const qtc::core::CpuFeatures& cpu = qtc::core::cpu_features();
  std::string qtc_env = "[";
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "QTC_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      if (qtc_env.size() > 1) qtc_env += ",";
      qtc_env += json_string(std::string(*e, eq ? eq - *e : std::strlen(*e)));
    }
  qtc_env += "]";
  return std::string("{\"cores\":") + std::to_string(usable_cores()) +
         ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"avx2\":" + (cpu.avx2 ? "true" : "false") +
         ",\"fma\":" + (cpu.fma ? "true" : "false") +
         ",\"neon\":" + (cpu.neon ? "true" : "false") +
         ",\"simd_enabled\":" + (qtc::sim::simd::simd_enabled() ? "true" : "false") +
         ",\"num_threads\":" + std::to_string(qtc::parallel::num_threads()) +
         ",\"service_workers\":" +
         std::to_string(qtc::service::default_workers()) +
         ",\"build_type\":" + json_string(QTC_BUILD_TYPE) +
         ",\"commit\":" + json_string(commit) + ",\"qtc_env_set\":" + qtc_env +
         "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "qtc_perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool setup_only = false;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") opts.workload = value();
    else if (arg == "--seed") opts.seed = std::stoull(value());
    else if (arg == "--seconds") opts.seconds = std::stod(value());
    else if (arg == "--trace") opts.trace = value() != "0";
    else if (arg == "--trace-out") opts.trace_out = value();
    else if (arg == "--inject-bad-job") opts.inject_bad_job = true;
    else if (arg == "--commit") commit = value();
    else if (arg == "--setup-only") setup_only = true;
    else usage(("unknown argument " + arg).c_str());
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == opts.workload;
  if (!known) usage("--workload must name a workload");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");

  if (setup_only) {
    std::printf("{\"setup_s\":%s}\n",
                json_number(perfbench::time_setup(opts.workload)).c_str());
    return 0;
  }

  std::printf("# config %s\n", config_json(commit).c_str());
  Report report;
  try {
    report = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qtc_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.notes)
    std::printf("# %s\n", line.c_str());
  for (const std::string& line : report.problems)
    std::printf("# CHECK FAILED: %s\n", line.c_str());
  std::string metrics = "{";
  for (const perfbench::Metric& m : report.metrics) {
    if (metrics.size() > 1) metrics += ",";
    metrics += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
               ",\"unit\":" + json_string(m.unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
              "\"metrics\":%s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  return report.correct ? 0 : 1;
}
