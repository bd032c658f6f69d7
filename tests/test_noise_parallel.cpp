// Determinism contract of the parallel Monte-Carlo noise engine: fixed-seed
// trajectory counts must be bitwise identical across thread counts, across
// gate fusion on/off, and across repeated run() calls on one simulator
// (per-trajectory RNG streams are derived from (seed, shot index), never
// from shared state).
// The density-matrix simulator's row-block parallelism and shot sampler
// carry the same contract.

#include <gtest/gtest.h>

#include <cstdint>

#include "arch/backend.hpp"
#include "core/parallel.hpp"
#include "noise/channel.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"

namespace qtc::noise {
namespace {

/// Restores every knob this file touches, whatever the test outcome.
struct KnobGuard {
  ~KnobGuard() {
    parallel::set_num_threads(0);
    sim::set_fusion_enabled(-1);
  }
};

/// A circuit exercising every trajectory code path: fused unitary stretches,
/// noisy gates, mid-circuit measurement, classical conditioning, and reset.
QuantumCircuit full_feature_circuit() {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).t(1).rz(0.3, 2).cx(1, 2);
  qc.measure(0, 0);
  qc.x(2).c_if(0, 1);  // default creg "c"
  qc.reset(0);
  qc.h(0).cx(2, 3).sx(3);
  qc.barrier();
  qc.measure_all();
  return qc;
}

NoiseModel full_feature_noise() {
  NoiseModel model;
  model.add_all_qubit_error(depolarizing(0.01), OpKind::H);
  model.add_all_qubit_error(amplitude_damping(0.05), OpKind::SX);
  model.add_all_qubit_error(depolarizing2(0.03), OpKind::CX);
  model.set_readout_error(1, {0.04, 0.02});
  return model;
}

TEST(NoiseParallel, TrajectoryCountsThreadAndFusionInvariant) {
  KnobGuard guard;
  const QuantumCircuit qc = full_feature_circuit();
  const NoiseModel model = full_feature_noise();
  constexpr std::uint64_t kSeed = 0xDE7E12;
  constexpr int kShots = 4000;

  sim::set_fusion_enabled(0);
  parallel::set_num_threads(1);
  const sim::Counts reference =
      TrajectorySimulator(kSeed).run(qc, model, kShots);
  EXPECT_EQ(reference.shots, kShots);

  for (int threads : {1, 4})
    for (int fusion : {0, 1}) {
      parallel::set_num_threads(threads);
      sim::set_fusion_enabled(fusion);
      const sim::Counts counts =
          TrajectorySimulator(kSeed).run(qc, model, kShots);
      EXPECT_EQ(counts.histogram, reference.histogram)
          << "threads=" << threads << " fusion=" << fusion;
    }
}

TEST(NoiseParallel, TrajectoryRepeatedRunsIdentical) {
  // Pins the per-trajectory stream derivation: a second run() on the same
  // simulator object must not continue a shared RNG — it must reproduce the
  // first run exactly.
  const QuantumCircuit qc = full_feature_circuit();
  const NoiseModel model = full_feature_noise();
  TrajectorySimulator traj(7);
  const sim::Counts first = traj.run(qc, model, 2000);
  const sim::Counts second = traj.run(qc, model, 2000);
  EXPECT_EQ(first.histogram, second.histogram);
}

TEST(NoiseParallel, TrajectoryShotPrefixStable) {
  // Trajectory i sees the same stream whatever the total shot count, so a
  // longer run's histogram dominates a shorter run's outcome-for-outcome.
  const QuantumCircuit qc = full_feature_circuit();
  const NoiseModel model = full_feature_noise();
  const sim::Counts small = TrajectorySimulator(11).run(qc, model, 500);
  const sim::Counts large = TrajectorySimulator(11).run(qc, model, 2000);
  for (const auto& [bits, c] : small.histogram)
    EXPECT_GE(large.count(bits), c) << bits;
}

TEST(NoiseParallel, DensityMatrixThreadInvariant) {
  KnobGuard guard;
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).rz(0.9, 2).h(1).measure_all();
  NoiseModel model = uniform_depolarizing(0.01, 0.04, 0.03);

  parallel::set_num_threads(1);
  DensityMatrixSimulator serial(99);
  const auto ref = serial.run(qc, model, 5000);

  parallel::set_num_threads(4);
  DensityMatrixSimulator threaded(99);
  const auto par = threaded.run(qc, model, 5000);

  EXPECT_EQ(par.counts.histogram, ref.counts.histogram);
  // The evolved mixed state itself must match bitwise: row/column blocks
  // of the superoperator application are disjoint.
  const auto& a = ref.state.matrix();
  const auto& b = par.state.matrix();
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a(r, c), b(r, c)) << "rho[" << r << "," << c << "]";
}

TEST(NoiseParallel, BackendRunThreadInvariant) {
  KnobGuard guard;
  const arch::Backend backend = arch::qx4_backend();
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).measure_all();
  arch::Backend::RunOptions options;
  options.shots = 3000;
  options.seed = 0xFEED;

  parallel::set_num_threads(1);
  const sim::Counts serial = backend.run(qc, options);
  parallel::set_num_threads(4);
  const sim::Counts threaded = backend.run(qc, options);
  EXPECT_EQ(serial.histogram, threaded.histogram);
  EXPECT_EQ(serial.shots, options.shots);
}

TEST(NoiseParallel, PlanStatisticsReflectFusion) {
  KnobGuard guard;
  const QuantumCircuit qc = full_feature_circuit();
  const NoiseModel model = full_feature_noise();

  sim::set_fusion_enabled(0);
  const TrajectoryPlan off = compile_trajectory_plan(qc, model);
  // Without fusion every unitary gate is its own pass over the state.
  EXPECT_EQ(off.state_sweeps, off.source_unitary_gates);
  EXPECT_GT(off.noisy_gates, 0);
  EXPECT_GT(off.fused_segments, 0);

  sim::set_fusion_enabled(1);
  const TrajectoryPlan on = compile_trajectory_plan(qc, model);
  // Segmentation depends only on the noise model, not the fusion config.
  EXPECT_EQ(on.source_unitary_gates, off.source_unitary_gates);
  EXPECT_EQ(on.noisy_gates, off.noisy_gates);
  EXPECT_EQ(on.fused_segments, off.fused_segments);
  EXPECT_LT(on.state_sweeps, off.state_sweeps);
}

}  // namespace
}  // namespace qtc::noise
