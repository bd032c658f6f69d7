#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "arch/backend.hpp"
#include "core/cpu_features.hpp"
#include "core/parallel.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "map/noise_aware.hpp"
#include "qasm/parser.hpp"
#include "qbin/qbin.hpp"
#include "service/execution_service.hpp"
#include "sim/simd.hpp"
#include "transpiler/transpile_cache.hpp"

#include "inputs.hpp"
#include "reference.hpp"
#include "replica.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace qtc;

void Report::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "hybrid-service", "noisy-qv", "clifford-scale", "eagle-compile"};
  return names;
}

namespace {

constexpr int kHybridShots = 128;
constexpr int kNoisyQvShots = 4;
constexpr int kCliffordShots = 1024;
/// Jobs at the head of each direct workload's sequence over which mapper
/// runs and peak RSS are read, so they cover a fixed set of inputs. Every
/// pass runs at least this many jobs, whatever its length.
constexpr int kPrefixJobs = 24;
/// Iterations per hybrid tenant in the compile-quality suite.
constexpr int kHybridQualityIters = 128;
/// Hybrid jobs per tenant the traced run replays through the replica.
constexpr int kHybridReplaysPerTenant = 8;

std::uint64_t stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return derive_stream_seed(derive_stream_seed(seed, a), b);
}

std::string fmt(const char* format, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of the process since the last reset_peak_rss(), in
/// MiB (Linux VmHWM; the lifetime peak where it cannot be reset).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Restart the peak-RSS high-water mark at the current resident set.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// First-call lazy initialisation a user's first job would otherwise pay:
/// the CPU feature probe, the SIMD switch and the fork-join pool start.
void lazy_init() {
  core::cpu_features();
  sim::simd::simd_enabled();
  parallel::parallel_for(0, parallel::kSerialCutoff * 4,
                         [](std::uint64_t, std::uint64_t) {});
}

arch::Backend make_backend(const std::string& workload) {
  if (workload == "hybrid-service") return arch::qx4_backend();
  if (workload == "noisy-qv") return arch::qx5_backend();
  if (workload == "clifford-scale") {
    const arch::CouplingMap map = arch::heavy_hex(13);
    return arch::Backend(map, arch::heavy_hex_calibration(map),
                         arch::BasisSet::UCX);
  }
  return arch::heavy_hex_backend(7);
}

/// What set-up builds: the device, and for hybrid-service the service.
struct World {
  arch::Backend backend;
  std::unique_ptr<service::ExecutionService> service;
};

World set_up(const std::string& workload) {
  lazy_init();
  World world{make_backend(workload), nullptr};
  if (workload == "hybrid-service")
    world.service = std::make_unique<service::ExecutionService>();
  return world;
}

/// Mean compile quality over a fixed set of compiled circuits.
struct Quality {
  double swaps = 0;
  double twoq = 0;
  double neg_log_success = 0;
  int circuits = 0;

  void add(int swaps_inserted, const QuantumCircuit& compiled,
           const arch::Backend& backend) {
    swaps += swaps_inserted;
    twoq += compiled.count(OpKind::CX) + compiled.count(OpKind::ECR);
    neg_log_success -= std::log(map::estimated_success(compiled, backend));
    ++circuits;
  }
  void report(Report& r) const {
    const double n = std::max(circuits, 1);
    r.add("swaps_per_job", swaps / n, "count");
    r.add("twoq_per_job", twoq / n, "count");
    r.add("neg_log_success", neg_log_success / n, "nats");
  }
};

/// Layer facts a traced pass gathers besides spans.
struct LayerCounts {
  double cache_hit_ratio = 0;
  double mapper_runs = 0;
  double plan_sweeps = 0;  // mean per job that ran the trajectory engine
  double noisy_gates = 0;
  int shots = 0;
  double queue_ms_p50 = 0, queue_ms_p90 = 0, run_ms_p50 = 0;
  double batch_hits = 0, service_cache_hits = 0;
  double overhead_pct = 0;
};

double hit_ratio(const transpiler::TranspileCacheStats& before,
                 const transpiler::TranspileCacheStats& after) {
  const double lookups = static_cast<double>(after.lookups - before.lookups);
  const double hits = static_cast<double>(after.hits() - before.hits());
  return lookups > 0 ? hits / lookups : 0.0;
}

void add_layer_metrics(Report& r, const std::vector<Span>& spans,
                       const LayerCounts& c) {
  const LayerTimes t = layer_times(spans);
  const double sample_ms =
      t.mean_total("noise.run") - t.mean_total("noise.plan");
  r.add("qasm.parse_ms", t.mean_self("qasm.parse"), "ms");
  r.add("qbin.decode_ms", t.mean_self("qbin.decode"), "ms");
  r.add("transpiler.compile_ms", t.mean_self("transpiler"), "ms");
  r.add("transpiler.cache_hit_ratio", c.cache_hit_ratio, "fraction");
  r.add("map.mapper_runs", c.mapper_runs, "count");
  r.add("noise.model_ms", t.mean_self("noise.model"), "ms");
  r.add("noise.plan_ms", t.mean_self("noise.plan"), "ms");
  r.add("noise.plan_sweeps", c.plan_sweeps, "count");
  r.add("noise.noisy_gates", c.noisy_gates, "count");
  r.add("noise.sample_ms", sample_ms, "ms");
  r.add("noise.shot_us", c.shots > 0 ? sample_ms * 1000.0 / c.shots : 0.0,
        "us");
  r.add("sim.dispatch_ms", t.mean_self("sim.dispatch"), "ms");
  r.add("sim.stabilizer_ms", t.mean_self("sim.stabilizer"), "ms");
  r.add("exec.glue_ms", t.mean_self("exec"), "ms");
  r.add("service.queue_ms_p50", c.queue_ms_p50, "ms");
  r.add("service.queue_ms_p90", c.queue_ms_p90, "ms");
  r.add("service.run_ms_p50", c.run_ms_p50, "ms");
  r.add("service.batch_hits", c.batch_hits, "count");
  r.add("service.cache_hits", c.service_cache_hits, "count");
  r.add("trace.overhead_pct", c.overhead_pct, "%");
  r.note("traced: noise.sample_ms = noise.run - noise.plan per job; the "
         "replica compiles the trajectory plan once more to time it, so "
         "noise.run holds a second plan compile");
  for (const auto& [name, jobs] : t.jobs)
    r.note("traced layer " + name + ": " + std::to_string(jobs) +
           " jobs, self " + fmt("%.3f", t.self_ms.at(name)) + " ms total");
}

void write_spans(const Options& opts, const std::vector<Span>& spans,
                 Report& r) {
  if (opts.trace_out.empty()) return;
  if (dump_spans(opts.trace_out, spans))
    r.note("span dump: " + opts.trace_out + " (" +
           std::to_string(spans.size()) + " spans)");
  else
    r.note("span dump: cannot write " + opts.trace_out);
}

// --- direct workloads: one client calling the library in a loop -----------

/// One job's input. The wire form is QASM text when `qasm` is set, else the
/// QBIN payload.
struct DirectInput {
  std::string kind;     // generator family, e.g. "ghz"
  bool repeat = false;  // resends an earlier job's circuit
  QuantumCircuit logical;
  std::string qasm;
  qbin::Bytes payload;
  exec::ExecuteOptions options;
};

struct DirectWorkload {
  const arch::Backend* backend = nullptr;
  /// eagle-compile: transpile only; there is nothing to execute.
  bool compile_only = false;
  int shots = 0;
  /// Inputs cycle through a fixed mix of kinds and sizes every `cycle` jobs;
  /// a window ends on a cycle boundary so every run times the same mix.
  int cycle = 1;
  /// The compile-quality suite: the first-sighting inputs among the first
  /// `quality_jobs` jobs of the sequence (a fixed set for a given seed).
  int quality_jobs = kPrefixJobs;
  /// Input of job j. Same j, same input, in any pass.
  std::function<DirectInput(int)> make;
  /// Output check of job j, run outside the job's timing; "" when correct.
  std::function<std::string(int, const DirectInput&,
                            const exec::ExecuteResult&)>
      check;
  /// Checks run once after the first pass (outside every timed window).
  std::function<void(Report&)> finish;
};

struct DirectPass {
  std::vector<double> job_ms;
  std::vector<sim::Counts> counts;  // by job index; empty when it failed
  std::vector<bool> in_quality;     // by job index: added to `quality`
  long attempted = 0;
  long failed = 0;
  double busy_s = 0;  // time inside jobs; inputs are generated outside it
  Quality quality;    // over the suite's jobs this pass ran
  std::uint64_t prefix_mapper_runs = 0;
  double prefix_rss_mb = 0;  // process peak RSS over the first jobs
  std::vector<Span> spans;
  double plan_sweeps = 0, noisy_gates = 0;  // means over trajectory jobs
  double cache_hit_ratio = 0;

  double jobs_per_s() const {
    return busy_s > 0 ? static_cast<double>(attempted - failed) / busy_s : 0;
  }
};

QuantumCircuit ingest(const DirectInput& in, Tracer& tracer,
                      std::uint64_t job) {
  if (!in.qasm.empty()) {
    ScopedSpan span(tracer, "qasm.parse", job);
    return qasm::parse(in.qasm);
  }
  ScopedSpan span(tracer, "qbin.decode", job);
  return qbin::decode(in.payload);
}

DirectPass direct_pass(const DirectWorkload& w, double seconds, bool traced,
                       bool inject_bad_job, Report& report) {
  DirectPass pass;
  Tracer tracer(traced, 0);
  reset_peak_rss();
  const auto cache_before = transpiler::TranspileCache::global().stats();
  const std::uint64_t mapper_before = map::mapper_run_count();
  int trajectory_jobs = 0;
  for (int j = 0;; ++j) {
    if (j == kPrefixJobs) {
      pass.prefix_mapper_runs = map::mapper_run_count() - mapper_before;
      pass.prefix_rss_mb = peak_rss_mb();
    }
    if (j >= kPrefixJobs && j % w.cycle == 0 && pass.busy_s >= seconds)
      break;
    DirectInput in = w.make(j);
    const bool bad = inject_bad_job && j == 1;
    if (bad && w.compile_only)
      in.qasm = qasm::emit(ghz(w.backend->num_qubits() + 1));
    else if (bad)
      in.options.shots = 0;
    ++pass.attempted;
    exec::ExecuteResult result;
    PlanStats plan;
    std::string error;
    const auto start = Clock::now();
    try {
      ScopedSpan span(tracer, "job", j);
      const QuantumCircuit circuit = ingest(in, tracer, j);
      if (w.compile_only) {
        ScopedSpan compile(tracer, "transpiler", j);
        transpiler::TranspileResult t = transpiler::transpile(
            circuit, *w.backend, in.options.transpile_options);
        result.compiled = std::move(t.circuit);
        result.initial_layout = std::move(t.initial_layout);
        result.final_layout = std::move(t.final_layout);
        result.swaps_inserted = t.swaps_inserted;
      } else if (traced) {
        result = traced_execute(circuit, *w.backend, in.options, tracer, j,
                                plan);
      } else {
        result = exec::execute(circuit, *w.backend, in.options);
      }
    } catch (const std::exception& e) {
      error = e.what();
      if (error.empty()) error = "exception";
    }
    const double ms = ms_between(start, Clock::now());
    pass.busy_s += ms / 1000.0;
    pass.job_ms.push_back(ms);
    if (!error.empty()) {
      ++pass.failed;
      pass.counts.emplace_back();
      pass.in_quality.push_back(false);
      if (!bad) report.note("job " + std::to_string(j) + " failed: " + error);
      continue;
    }
    if (bad) report.fail("invalid job " + std::to_string(j) + " succeeded");
    const std::string problem = w.check(j, in, result);
    if (!problem.empty()) {
      ++pass.failed;
      report.fail("job " + std::to_string(j) + ": " + problem);
    }
    const bool quality = j < w.quality_jobs && !in.repeat;
    if (quality)
      pass.quality.add(result.swaps_inserted, result.compiled, *w.backend);
    pass.in_quality.push_back(quality);
    if (plan.state_sweeps > 0) {
      ++trajectory_jobs;
      pass.plan_sweeps += plan.state_sweeps;
      pass.noisy_gates += plan.noisy_gates;
    }
    pass.counts.push_back(std::move(result.counts));
  }
  if (trajectory_jobs > 0) {
    pass.plan_sweeps /= trajectory_jobs;
    pass.noisy_gates /= trajectory_jobs;
  }
  pass.cache_hit_ratio = hit_ratio(
      cache_before, transpiler::TranspileCache::global().stats());
  pass.spans = tracer.spans();
  return pass;
}

/// Complete the compile-quality suite with the jobs the pass did not reach
/// (or that failed), compiled cold: a cache-served compile is bitwise the
/// cold one.
Quality quality_suite(const DirectWorkload& w, const DirectPass& pass) {
  Quality quality = pass.quality;
  for (int j = 0; j < w.quality_jobs; ++j) {
    if (j < static_cast<int>(pass.in_quality.size()) && pass.in_quality[j])
      continue;
    const DirectInput in = w.make(j);
    if (in.repeat) continue;
    const transpiler::TranspileResult t = transpiler::transpile(
        in.logical, *w.backend, in.options.transpile_options);
    quality.add(t.swaps_inserted, t.circuit, *w.backend);
  }
  return quality;
}

Report run_direct(const DirectWorkload& w, const Options& opts) {
  Report report;
  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  const DirectPass a =
      direct_pass(w, window, false, opts.inject_bad_job, report);
  report.attempted = a.attempted;
  report.failed = a.failed;
  if (w.finish) w.finish(report);
  const auto note_pass = [&](const char* label, const DirectPass& p) {
    report.note(std::string(label) + ": " + std::to_string(p.attempted) +
                " jobs (" + std::to_string(p.failed) + " failed) in " +
                fmt("%.3f", p.busy_s) + " s busy");
  };
  note_pass("untraced pass", a);
  if (!opts.trace) {
    report.add("jobs_per_s", a.jobs_per_s(), "jobs/s");
    report.add("job_ms_p50", percentile(a.job_ms, 0.5), "ms");
    report.add("job_ms_p90", percentile(a.job_ms, 0.9), "ms");
    const Quality quality = quality_suite(w, a);
    report.note("compile quality over " + std::to_string(quality.circuits) +
                " circuits: the first-sighting inputs of the first " +
                std::to_string(w.quality_jobs) + " jobs");
    quality.report(report);
    report.add("peak_rss_mb", a.prefix_rss_mb, "MiB");
    return report;
  }
  // Traced pass: same job sequence from an empty transpile cache, so both
  // passes see the same cold/warm mix.
  transpiler::TranspileCache::global().clear();
  const DirectPass b = direct_pass(w, window, true, false, report);
  report.attempted += b.attempted;
  report.failed += b.failed;
  note_pass("traced pass", b);
  if (!w.compile_only) {
    // The replica must be exec::execute: same inputs, bitwise same counts.
    std::size_t compared = 0;
    for (std::size_t j = 0; j < std::min(a.counts.size(), b.counts.size());
         ++j) {
      if (a.counts[j].shots == 0 || b.counts[j].shots == 0) continue;
      ++compared;
      if (a.counts[j].histogram != b.counts[j].histogram)
        report.fail("traced replica counts differ from exec::execute on job " +
                    std::to_string(j));
    }
    report.note("replica vs exec::execute: " + std::to_string(compared) +
                " jobs compared bitwise");
  }
  LayerCounts c;
  c.cache_hit_ratio = b.cache_hit_ratio;
  c.mapper_runs = static_cast<double>(b.prefix_mapper_runs);
  c.plan_sweeps = b.plan_sweeps;
  c.noisy_gates = b.noisy_gates;
  c.shots = w.shots;
  const double jps_a = a.jobs_per_s();
  c.overhead_pct = jps_a > 0 ? (jps_a - b.jobs_per_s()) / jps_a * 100 : 0;
  report.note("map.mapper_runs counts the first " +
              std::to_string(kPrefixJobs) + " jobs of the traced pass");
  add_layer_metrics(report, b.spans, c);
  write_spans(opts, b.spans, report);
  return report;
}

DirectWorkload noisy_qv(const World& world, std::uint64_t seed) {
  DirectWorkload w;
  w.backend = &world.backend;
  w.shots = kNoisyQvShots;
  w.quality_jobs = 1920;
  w.make = [seed](int j) {
    Rng rng(stream(seed, 1, j));
    DirectInput in;
    in.logical = qv(5, rng);
    in.payload = qbin::encode(in.logical);
    in.options.shots = kNoisyQvShots;
    in.options.seed = stream(seed, 2, j);
    return in;
  };
  // Heavy-output probability pooled over every checked job must lie between
  // 1/2 (a fully depolarized device) and the ideal circuits' mean, within
  // three standard errors of the pooled shot count: the calibrated noise
  // pulls it close to 1/2, and a run samples only a few hundred shots.
  struct Pool {
    long heavy = 0, shots = 0;
    double ideal = 0;
    int circuits = 0;
  };
  auto pool = std::make_shared<Pool>();
  w.check = [pool](int, const DirectInput& in, const exec::ExecuteResult& r) {
    if (r.counts.shots != in.options.shots) return std::string("shot total");
    const HeavySet heavy = heavy_set(in.logical);
    for (const std::string& bits : heavy.outputs)
      pool->heavy += r.counts.count(bits);
    pool->shots += r.counts.shots;
    pool->ideal += heavy.ideal_probability;
    ++pool->circuits;
    return std::string();
  };
  w.finish = [pool](Report& r) {
    const double hop = static_cast<double>(pool->heavy) / pool->shots;
    const double ideal = pool->ideal / pool->circuits;
    const double slack = 3 * std::sqrt(0.25 / pool->shots);
    r.note("heavy-output probability " + fmt("%.4f", hop) + " over " +
           std::to_string(pool->shots) + " shots; ideal " +
           fmt("%.4f", ideal) + ", allowed slack " + fmt("%.4f", slack));
    if (!(hop > 0.5 - slack && hop < ideal + slack))
      r.fail("heavy-output probability " + fmt("%.4f", hop) +
             " outside (0.5, " + fmt("%.4f", ideal) + ") by more than " +
             fmt("%.4f", slack));
  };
  return w;
}

DirectWorkload clifford_scale(const World& world, std::uint64_t seed,
                              const noise::NoiseModel* noiseless) {
  DirectWorkload w;
  w.backend = &world.backend;
  w.shots = kCliffordShots;
  w.cycle = 20;  // ten distinct circuits: two kinds x five size bands
  w.quality_jobs = 80;
  w.make = [seed, noiseless](int j) {
    // Even jobs send new distinct circuit j / 2; odd jobs resend a
    // seed-chosen earlier one, which the transpile cache serves exactly.
    DirectInput in;
    int d = j / 2;
    if (j % 2 == 1) {
      Rng pick(stream(seed, 3, j));
      d = static_cast<int>(pick.index(d + 1));
      in.repeat = true;
    }
    // Distinct circuit d: GHZ or mirrored Clifford by parity, in one of five
    // size bands over 200-399 qubits, unique per d.
    const int n = 200 + 40 * ((d / 2) % 5) + (d / 10) % 40;
    if (d % 2 == 0) {
      in.kind = "ghz";
      in.logical = ghz(n);
    } else {
      Rng rng(stream(seed, 4, d));
      in.kind = "mirrored";
      in.logical = mirrored_clifford(n, 2, rng);
    }
    in.qasm = qasm::emit(in.logical);
    in.options.shots = kCliffordShots;
    in.options.seed = stream(seed, 5, j);
    in.options.noise_model = noiseless;
    return in;
  };
  w.check = [](int, const DirectInput& in, const exec::ExecuteResult& r) {
    if (r.counts.shots != in.options.shots) return std::string("shot total");
    const bool mirrored = in.kind == "mirrored";
    const std::string zeros(in.logical.num_clbits(), '0');
    const std::string ones(in.logical.num_clbits(), '1');
    for (const auto& [bits, count] : r.counts.histogram)
      if (bits != zeros && (mirrored || bits != ones))
        return std::string(mirrored ? "mirrored Clifford" : "GHZ") +
               " produced outcome outside its ideal support";
    return std::string();
  };
  return w;
}

DirectWorkload eagle_compile(const World& world, std::uint64_t seed) {
  DirectWorkload w;
  w.backend = &world.backend;
  w.compile_only = true;
  // Job j cycles kind (random / QFT / QV) and size; random content comes
  // from the seed. Nine classes put p50 in the middle of one class (QFT-12,
  // whose compile time has no seed-dependent content) rather than on the
  // boundary between two; p90 lands in the fastest tenth of QFT-20.
  w.cycle = 9;
  w.quality_jobs = 192;
  w.make = [seed](int j) {
    static constexpr int kRandom[] = {8, 16, 32};
    static constexpr int kQft[] = {8, 12, 20};
    static constexpr int kQv[] = {8, 10, 14};
    const int step = (j / 3) % 3;
    Rng rng(stream(seed, 6, j));
    DirectInput in;
    switch (j % 3) {
      case 0:
        in.logical = random_circuit(kRandom[step], 5 * kRandom[step], rng);
        break;
      case 1:
        in.logical = qft(kQft[step]);
        break;
      default:
        in.logical = qv(kQv[step], rng);
    }
    in.qasm = qasm::emit(in.logical);
    in.options.transpile_options.fidelity = 1;
    return in;
  };
  // The 8-qubit members of the prefix are simulated after the pass.
  struct Pending {
    QuantumCircuit logical, compiled;
    map::Layout initial, final_layout;
  };
  auto pending = std::make_shared<std::map<int, Pending>>();
  const arch::Backend* backend = w.backend;
  w.check = [pending, backend](int j, const DirectInput& in,
                               const exec::ExecuteResult& r) {
    if (in.logical.num_qubits() == 8 && j < kPrefixJobs && !pending->count(j))
      (*pending)[j] = {in.logical, r.compiled, r.initial_layout,
                       r.final_layout};
    return check_compiled(r.compiled, *backend);
  };
  w.finish = [pending](Report& r) {
    for (const auto& [j, p] : *pending) {
      const std::string problem =
          check_equivalent(p.logical, p.compiled, p.initial, p.final_layout);
      if (!problem.empty())
        r.fail("job " + std::to_string(j) + " not equivalent: " + problem);
    }
    r.note("equivalence: " + std::to_string(pending->size()) +
           " 8-qubit members simulated against their inputs");
  };
  return w;
}

// --- hybrid-service: four closed-loop tenants on one ExecutionService -----

constexpr int kTenants = 4;
constexpr int kRandomTenant = 3;
const char* const kTenantNames[kTenants] = {"vqe-0", "vqe-1", "vqe-2",
                                            "random"};

struct HybridInput {
  QuantumCircuit logical;
  std::string qasm;     // random tenant
  qbin::Bytes payload;  // VQE tenants
  exec::ExecuteOptions options;
};

HybridInput hybrid_input(std::uint64_t seed, int tenant, int iter) {
  Rng rng(stream(seed, 10 + tenant, iter));
  HybridInput in;
  if (tenant == kRandomTenant) {
    in.logical = random_small(rng);
    in.qasm = qasm::emit(in.logical);
  } else {
    std::vector<double> angles(8);
    for (double& a : angles) a = rng.uniform(-PI, PI);
    in.logical = vqe_ansatz(angles);
    in.payload = qbin::encode(in.logical);
  }
  in.options.shots = kHybridShots;
  in.options.seed = stream(seed, 20 + tenant, iter);
  return in;
}

std::uint64_t hybrid_key(int tenant, int iter) {
  return static_cast<std::uint64_t>(tenant) << 32 | static_cast<unsigned>(iter);
}

struct HybridJob {
  int tenant = 0;
  int iter = 0;
  double ms = 0;  // ingest + submit -> result, seen by the client
  service::JobResult result;
};

struct HybridPass {
  std::vector<HybridJob> jobs;
  double wall_s = 0;
  service::ServiceStats stats;
  std::vector<Span> spans;
  double cache_hit_ratio = 0;
  std::uint64_t mapper_runs = 0;

  long done() const {
    return std::count_if(jobs.begin(), jobs.end(), [](const HybridJob& j) {
      return j.result.state == service::JobState::Done;
    });
  }
  double jobs_per_s() const { return wall_s > 0 ? done() / wall_s : 0; }
};

HybridPass hybrid_pass(service::ExecutionService& svc,
                       const arch::Backend& backend, std::uint64_t seed,
                       double seconds, bool traced, bool inject_bad_job) {
  HybridPass pass;
  std::vector<Tracer> tracers;
  for (int t = 0; t < kTenants; ++t) tracers.emplace_back(traced, t);
  std::vector<std::vector<HybridJob>> per_tenant(kTenants);
  const auto cache_before = transpiler::TranspileCache::global().stats();
  const std::uint64_t mapper_before = map::mapper_run_count();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](int t) {
    Tracer& tracer = tracers[t];
    for (int i = 0; Clock::now() < deadline; ++i) {
      HybridInput in = hybrid_input(seed, t, i);
      if (inject_bad_job && t == kRandomTenant && i == 1) in.options.shots = 0;
      const std::uint64_t key = hybrid_key(t, i);
      HybridJob job{t, i, 0, {}};
      const auto t0 = Clock::now();
      try {
        ScopedSpan span(tracer, "job", key);
        std::optional<service::JobHandle> handle;
        if (t == kRandomTenant) {
          QuantumCircuit circuit;
          {
            ScopedSpan parse(tracer, "qasm.parse", key);
            circuit = qasm::parse(in.qasm);
          }
          ScopedSpan submit(tracer, "service.submit", key);
          handle = svc.submit(circuit, backend, in.options, kTenantNames[t]);
        } else {
          ScopedSpan submit(tracer, "service.submit", key);
          handle = svc.submit(in.payload, backend, in.options, kTenantNames[t]);
        }
        ScopedSpan wait(tracer, "service.wait", key);
        job.result = handle->result();
      } catch (const std::exception& e) {
        job.result.state = service::JobState::Failed;
        job.result.error = e.what();
      }
      job.ms = ms_between(t0, Clock::now());
      if (tracer.enabled() && t != kRandomTenant) {
        // The service decodes inside submit(); time the same decode here,
        // after the job, so the job's own latency is not inflated.
        ScopedSpan decode(tracer, "qbin.decode", key);
        qbin::decode(in.payload);
      }
      per_tenant[t].push_back(std::move(job));
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) clients.emplace_back(client, t);
  for (std::thread& c : clients) c.join();
  pass.wall_s = ms_between(start, Clock::now()) / 1000.0;
  svc.drain();
  pass.stats = svc.stats();
  pass.cache_hit_ratio = hit_ratio(
      cache_before, transpiler::TranspileCache::global().stats());
  pass.mapper_runs = map::mapper_run_count() - mapper_before;
  for (int t = 0; t < kTenants; ++t) {
    append_spans(pass.spans, tracers[t].spans());
    for (HybridJob& j : per_tenant[t]) pass.jobs.push_back(std::move(j));
  }
  return pass;
}

QuantumCircuit hybrid_ingest(const HybridInput& in) {
  return in.qasm.empty() ? qbin::decode(in.payload) : qasm::parse(in.qasm);
}

/// Every Done job's counts must equal a direct exec::execute of the same
/// input. Runs after every timed window on four threads with a one-thread
/// pool (counts do not depend on the thread count); at the default pool
/// size each small execute costs about 50 ms, which would make checking
/// every job slower than the run itself. The default is restored after.
long verify_hybrid(const std::vector<HybridJob>& jobs,
                   const arch::Backend& backend, std::uint64_t seed,
                   Report& report) {
  std::vector<std::string> problems(jobs.size());
  auto verify = [&](std::size_t k) {
    const HybridJob& job = jobs[k];
    if (job.result.state != service::JobState::Done) return;
    try {
      const HybridInput in = hybrid_input(seed, job.tenant, job.iter);
      const exec::ExecuteResult direct =
          exec::execute(hybrid_ingest(in), backend, in.options);
      if (job.result.counts.shots != in.options.shots)
        problems[k] = "shot total";
      else if (job.result.counts.histogram != direct.counts.histogram)
        problems[k] = "service counts differ from direct exec::execute";
    } catch (const std::exception& e) {
      problems[k] = std::string("verification threw: ") + e.what();
    }
  };
  parallel::set_num_threads(1);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t k = t; k < jobs.size(); k += 4) verify(k);
    });
  for (std::thread& t : threads) t.join();
  parallel::set_num_threads(0);
  long wrong = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k)
    if (!problems[k].empty()) {
      ++wrong;
      report.fail(std::string(kTenantNames[jobs[k].tenant]) + " iteration " +
                  std::to_string(jobs[k].iter) + ": " + problems[k]);
    }
  return wrong;
}

long not_done(const HybridPass& pass, bool inject_bad_job, Report& report) {
  long failed = 0;
  for (const HybridJob& j : pass.jobs) {
    if (j.result.state == service::JobState::Done) continue;
    ++failed;
    const bool injected =
        inject_bad_job && j.tenant == kRandomTenant && j.iter == 1;
    if (!injected)
      report.note(std::string(kTenantNames[j.tenant]) + " iteration " +
                  std::to_string(j.iter) + " " +
                  service::to_string(j.result.state) + ": " + j.result.error);
  }
  return failed;
}

Report run_hybrid(World& world, const Options& opts) {
  Report report;
  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  reset_peak_rss();
  HybridPass a = hybrid_pass(*world.service, world.backend, opts.seed, window,
                             false, opts.inject_bad_job);
  const double rss = peak_rss_mb();
  report.attempted = static_cast<long>(a.jobs.size());
  report.failed = not_done(a, opts.inject_bad_job, report);
  report.note("untraced pass: " + std::to_string(a.jobs.size()) + " jobs in " +
              fmt("%.3f", a.wall_s) + " s wall, " +
              std::to_string(a.stats.batch_hits) + " batch followers, " +
              std::to_string(a.stats.cache_hits) + " warm compiles");
  if (!opts.trace) {
    std::vector<double> ms;
    for (const HybridJob& j : a.jobs) ms.push_back(j.ms);
    report.add("jobs_per_s", a.jobs_per_s(), "jobs/s");
    report.add("job_ms_p50", percentile(ms, 0.5), "ms");
    report.add("job_ms_p90", percentile(ms, 0.9), "ms");
    // Compile quality over a fixed suite: each tenant's first iterations,
    // compiled cold with the service's (default) options.
    Quality quality;
    for (int t = 0; t < kTenants; ++t)
      for (int i = 0; i < kHybridQualityIters; ++i) {
        const HybridInput in = hybrid_input(opts.seed, t, i);
        const transpiler::TranspileResult r = transpiler::transpile(
            in.logical, world.backend, in.options.transpile_options);
        quality.add(r.swaps_inserted, r.circuit, world.backend);
      }
    quality.report(report);
    report.add("peak_rss_mb", rss, "MiB");
    report.failed += verify_hybrid(a.jobs, world.backend, opts.seed, report);
    return report;
  }
  // Traced pass: a fresh service and an empty cache, clients record spans.
  world.service.reset();
  transpiler::TranspileCache::global().clear();
  service::ExecutionService fresh;
  HybridPass b =
      hybrid_pass(fresh, world.backend, opts.seed, window, true, false);
  report.attempted += static_cast<long>(b.jobs.size());
  report.failed += not_done(b, false, report);
  // Replay a sample of the traced pass's jobs through the replica, from an
  // empty cache as the service saw them, for the stages inside the service;
  // each replay must reproduce the service's counts bitwise.
  transpiler::TranspileCache::global().clear();
  Tracer replay(true, kTenants);
  int replayed[kTenants] = {};
  PlanStats plan;
  double sweeps = 0, noisy = 0;
  int plans = 0, replays = 0;
  std::vector<const HybridJob*> order;
  for (const HybridJob& j : b.jobs) order.push_back(&j);
  std::sort(order.begin(), order.end(), [](const HybridJob* x, const HybridJob* y) {
    return x->iter != y->iter ? x->iter < y->iter : x->tenant < y->tenant;
  });
  for (const HybridJob* j : order) {
    if (j->result.state != service::JobState::Done ||
        replayed[j->tenant] >= kHybridReplaysPerTenant)
      continue;
    ++replayed[j->tenant];
    ++replays;
    const HybridInput in = hybrid_input(opts.seed, j->tenant, j->iter);
    const exec::ExecuteResult r =
        traced_execute(hybrid_ingest(in), world.backend, in.options, replay,
                       hybrid_key(j->tenant, j->iter), plan);
    if (plan.state_sweeps > 0) {
      sweeps += plan.state_sweeps;
      noisy += plan.noisy_gates;
      ++plans;
    }
    if (r.counts.histogram != j->result.counts.histogram)
      report.fail("traced replica counts differ from the service's on " +
                  std::string(kTenantNames[j->tenant]) + " iteration " +
                  std::to_string(j->iter));
  }
  append_spans(b.spans, replay.spans());
  std::vector<double> queue, run;
  for (const HybridJob& j : b.jobs)
    if (j.result.state == service::JobState::Done) {
      queue.push_back(j.result.queue_ms);
      run.push_back(j.result.run_ms);
    }
  LayerCounts c;
  c.cache_hit_ratio = b.cache_hit_ratio;
  c.mapper_runs = static_cast<double>(b.mapper_runs);
  c.plan_sweeps = plans > 0 ? sweeps / plans : 0;
  c.noisy_gates = plans > 0 ? noisy / plans : 0;
  c.shots = kHybridShots;
  c.queue_ms_p50 = percentile(queue, 0.5);
  c.queue_ms_p90 = percentile(queue, 0.9);
  c.run_ms_p50 = percentile(run, 0.5);
  c.batch_hits = static_cast<double>(b.stats.batch_hits);
  c.service_cache_hits = static_cast<double>(b.stats.cache_hits);
  const double jps_a = a.jobs_per_s();
  c.overhead_pct = jps_a > 0 ? (jps_a - b.jobs_per_s()) / jps_a * 100 : 0;
  report.note("traced pass: " + std::to_string(b.jobs.size()) + " jobs in " +
              fmt("%.3f", b.wall_s) + " s wall; " + std::to_string(replays) +
              " jobs replayed through the replica and compared bitwise");
  report.note("map.mapper_runs and transpiler.cache_hit_ratio cover the "
              "whole traced service pass");
  add_layer_metrics(report, b.spans, c);
  write_spans(opts, b.spans, report);
  std::vector<HybridJob> all = std::move(a.jobs);
  for (HybridJob& j : b.jobs) all.push_back(std::move(j));
  report.failed += verify_hybrid(all, world.backend, opts.seed, report);
  return report;
}

}  // namespace

double time_setup(const std::string& workload) {
  const auto start = Clock::now();
  const World world = set_up(workload);
  return ms_between(start, Clock::now()) / 1000.0;
}

Report run_workload(const Options& opts) {
  const auto start = Clock::now();
  World world = set_up(opts.workload);
  const double setup_ms = ms_between(start, Clock::now());
  Report report;
  if (opts.workload == "hybrid-service") {
    report = run_hybrid(world, opts);
  } else if (opts.workload == "noisy-qv") {
    report = run_direct(noisy_qv(world, opts.seed), opts);
  } else if (opts.workload == "clifford-scale") {
    const noise::NoiseModel noiseless;
    report = run_direct(clifford_scale(world, opts.seed, &noiseless), opts);
  } else if (opts.workload == "eagle-compile") {
    report = run_direct(eagle_compile(world, opts.seed), opts);
  } else {
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  }
  report.notes.insert(report.notes.begin(),
                      "in-process set-up: " + fmt("%.3f", setup_ms) + " ms");
  return report;
}

}  // namespace perfbench
