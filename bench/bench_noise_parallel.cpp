// Parallel Monte-Carlo noise engine benchmark. The container-independent
// artifact is the trajectory-plan compression (noiseless fused segments vs
// one sweep per gate, with noisy gates pinned as plan boundaries) and a
// determinism check: fixed-seed counts at 1 thread and 4 threads must be
// bitwise identical. Wall-clock timings of the shot-parallel trajectory
// loop and the row-blocked density-matrix superoperator follow.
//
// A 5-qubit circuit routed onto the 16-qubit QX5 shows trajectory
// compaction: each shot simulates only the physical qubits the compiled
// circuit touches, not all 2^16 device amplitudes.
//
// The artifact prints to stderr so stdout stays machine-readable:
//   ./bench_noise_parallel --benchmark_format=json > BENCH_noise_parallel.json
// is how CI tracks the noisy-execution perf trajectory.

#include <chrono>
#include <cstdio>
#include <vector>

#include "arch/backend.hpp"
#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "sim/fusion.hpp"
#include "transpiler/transpile.hpp"

namespace {

using qtc::QuantumCircuit;
using qtc::bench::random_circuit;

/// Random measured circuit under a uniform depolarizing + readout model —
/// the standard noisy workload across this file.
QuantumCircuit noisy_workload(int n, int gates, std::uint64_t seed) {
  QuantumCircuit body = random_circuit(n, gates, seed);
  QuantumCircuit qc(n, n);
  for (const auto& op : body.ops()) qc.append(op);
  qc.measure_all();
  return qc;
}

/// Every gate noisy — the worst case for the plan (no fusable stretches),
/// the realistic case for trajectory timing.
qtc::noise::NoiseModel workload_noise() {
  return qtc::noise::uniform_depolarizing(0.001, 0.01, 0.02);
}

/// Noise on CX only (2q errors dominate real devices by an order of
/// magnitude): the 1q stretches between CXs are noiseless and fuse.
qtc::noise::NoiseModel cx_noise() {
  qtc::noise::NoiseModel model;
  model.add_all_qubit_error(qtc::noise::depolarizing2(0.01), qtc::OpKind::CX);
  return model;
}

/// A noisy 5-qubit random circuit compiled for QX5, with QX5's calibration
/// noise model: the small-circuit-on-a-whole-device case.
struct Qx5Job {
  QuantumCircuit compiled;
  qtc::noise::NoiseModel model;
  int touched = 0;  // physical qubits the compiled circuit acts on
};

Qx5Job qx5_job() {
  const qtc::arch::Backend qx5 = qtc::arch::qx5_backend();
  Qx5Job job;
  job.compiled =
      qtc::transpiler::transpile(noisy_workload(5, 40, 3), qx5).circuit;
  job.model = qtc::noise::from_backend(qx5);
  std::vector<bool> used(static_cast<std::size_t>(qx5.num_qubits()), false);
  for (const auto& op : job.compiled.ops())
    if (op.kind != qtc::OpKind::Barrier)
      for (int q : op.qubits) used[static_cast<std::size_t>(q)] = true;
  for (bool u : used) job.touched += u;
  return job;
}

double time_trajectories_seconds(const QuantumCircuit& qc,
                                 const qtc::noise::NoiseModel& model,
                                 int shots, qtc::sim::Counts* out = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  qtc::noise::TrajectorySimulator traj(1234);
  qtc::sim::Counts counts = traj.run(qc, model, shots);
  benchmark::DoNotOptimize(counts.shots);
  const auto t1 = std::chrono::steady_clock::now();
  if (out) *out = std::move(counts);
  return std::chrono::duration<double>(t1 - t0).count();
}

void print_noise_parallel_artifact() {
  // Plan compression under CX-only noise: the noisy CXs pin the segment
  // boundaries, the 1q stretches between them fuse.
  std::fprintf(stderr,
               "trajectory plan (fusion cannot cross a noisy gate)\n"
               "  %-24s %8s %8s %8s %8s %10s\n",
               "circuit", "gates", "noisy", "segs", "sweeps", "reduction");
  const struct {
    int qubits, gates;
    std::uint64_t seed;
  } workloads[] = {{8, 80, 7}, {12, 120, 11}, {16, 160, 42}};
  for (const auto& w : workloads) {
    const QuantumCircuit qc = noisy_workload(w.qubits, w.gates, w.seed);
    qtc::sim::set_fusion_enabled(1);
    const qtc::noise::NoiseModel noise = cx_noise();
    const auto plan = qtc::noise::compile_trajectory_plan(qc, noise);
    qtc::sim::set_fusion_enabled(-1);
    char label[64];
    std::snprintf(label, sizeof label, "%dq %dg (seed %llu)", w.qubits,
                  w.gates, static_cast<unsigned long long>(w.seed));
    std::fprintf(stderr, "  %-24s %8d %8d %8d %8d %9.2fx\n", label,
                 plan.source_unitary_gates, plan.noisy_gates,
                 plan.fused_segments, plan.state_sweeps,
                 static_cast<double>(plan.source_unitary_gates) /
                     plan.state_sweeps);
  }

  // Shot-parallel speedup + the determinism contract: 1-thread and 4-thread
  // fixed-seed counts must be bitwise identical.
  const qtc::noise::NoiseModel model = workload_noise();
  const QuantumCircuit qc = noisy_workload(10, 80, 11);
  const int shots = 400;
  qtc::parallel::set_num_threads(1);
  qtc::sim::Counts serial_counts;
  const double serial_s =
      time_trajectories_seconds(qc, model, shots, &serial_counts);
  qtc::parallel::set_num_threads(4);
  qtc::sim::Counts threaded_counts;
  const double threaded_s =
      time_trajectories_seconds(qc, model, shots, &threaded_counts);
  qtc::parallel::set_num_threads(0);
  std::fprintf(stderr,
               "  trajectories 10q/%d shots: 1 thread %.3f s, 4 threads"
               " %.3f s -> %.2fx, counts %s\n",
               shots, serial_s, threaded_s, serial_s / threaded_s,
               serial_counts.histogram == threaded_counts.histogram
                   ? "bitwise identical"
                   : "MISMATCH (determinism bug!)");

  // Compaction: a 5-qubit circuit on the 16-qubit QX5 only pays for the
  // qubits its compiled form touches.
  const Qx5Job job = qx5_job();
  const int qx5_shots = 64;
  const double qx5_s =
      time_trajectories_seconds(job.compiled, job.model, qx5_shots);
  std::fprintf(stderr,
               "  5q circuit on 16q QX5: %d of %d qubits simulated, %d shots"
               " %.3f s (%.2f ms/shot)\n",
               job.touched, job.compiled.num_qubits(), qx5_shots, qx5_s,
               1e3 * qx5_s / qx5_shots);

  // Density matrix: row/column-blocked superoperator application.
  QuantumCircuit dm_qc = noisy_workload(7, 70, 7);
  qtc::noise::DensityMatrixSimulator dms;
  qtc::parallel::set_num_threads(1);
  auto t0 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(dms.evolve(dm_qc, model).trace_real());
  auto t1 = std::chrono::steady_clock::now();
  qtc::parallel::set_num_threads(4);
  benchmark::DoNotOptimize(dms.evolve(dm_qc, model).trace_real());
  auto t2 = std::chrono::steady_clock::now();
  qtc::parallel::set_num_threads(0);
  const double dm_serial = std::chrono::duration<double>(t1 - t0).count();
  const double dm_threaded = std::chrono::duration<double>(t2 - t1).count();
  std::fprintf(stderr,
               "  density matrix 7q evolve: 1 thread %.3f s, 4 threads"
               " %.3f s -> %.2fx\n\n",
               dm_serial, dm_threaded, dm_serial / dm_threaded);
}

void BM_TrajectoryRun(benchmark::State& state, int threads, bool fusion) {
  const QuantumCircuit qc = noisy_workload(8, 60, 11);
  const qtc::noise::NoiseModel model = cx_noise();
  qtc::parallel::set_num_threads(threads);
  qtc::sim::set_fusion_enabled(fusion ? 1 : 0);
  for (auto _ : state) {
    qtc::noise::TrajectorySimulator traj(7);
    benchmark::DoNotOptimize(traj.run(qc, model, 200).shots);
  }
  qtc::sim::set_fusion_enabled(-1);
  qtc::parallel::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["shots"] = 200;
}

void BM_TrajectoryRun1T(benchmark::State& state) {
  BM_TrajectoryRun(state, 1, true);
}
void BM_TrajectoryRun4T(benchmark::State& state) {
  BM_TrajectoryRun(state, 4, true);
}
void BM_TrajectoryRun4TNoFusion(benchmark::State& state) {
  BM_TrajectoryRun(state, 4, false);
}
BENCHMARK(BM_TrajectoryRun1T)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrajectoryRun4T)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrajectoryRun4TNoFusion)->Unit(benchmark::kMillisecond);

void BM_TrajectoryQx5Compact(benchmark::State& state) {
  // A 5-qubit circuit on the 16-qubit QX5 under calibration noise: each
  // shot sweeps 2^touched amplitudes, not 2^16.
  const Qx5Job job = qx5_job();
  for (auto _ : state) {
    qtc::noise::TrajectorySimulator traj(7);
    benchmark::DoNotOptimize(traj.run(job.compiled, job.model, 64).shots);
  }
  state.counters["device_qubits"] = job.compiled.num_qubits();
  state.counters["simulated_qubits"] = job.touched;
  state.counters["shots"] = 64;
}
BENCHMARK(BM_TrajectoryQx5Compact)->Unit(benchmark::kMillisecond);

void BM_DensityMatrixEvolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = noisy_workload(n, 10 * n, 7);
  const qtc::noise::NoiseModel model = workload_noise();
  qtc::noise::DensityMatrixSimulator dms;
  for (auto _ : state)
    benchmark::DoNotOptimize(dms.evolve(qc, model).trace_real());
  state.counters["qubits"] = n;
}
BENCHMARK(BM_DensityMatrixEvolve)
    ->DenseRange(5, 7, 1)
    ->Unit(benchmark::kMillisecond);

void BM_BackendRun(benchmark::State& state) {
  // Full pipeline: transpile for QX4, attach the calibration-derived noise
  // model, sample trajectories.
  const qtc::arch::Backend backend = qtc::arch::qx4_backend();
  QuantumCircuit qc(5, 5);
  qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).measure_all();
  qtc::arch::Backend::RunOptions options;
  options.shots = 500;
  for (auto _ : state)
    benchmark::DoNotOptimize(backend.run(qc, options).shots);
  state.counters["shots"] = options.shots;
}
BENCHMARK(BM_BackendRun)->Unit(benchmark::kMillisecond);

}  // namespace

QTC_BENCH_MAIN(print_noise_parallel_artifact)
