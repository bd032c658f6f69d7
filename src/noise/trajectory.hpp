#pragma once
// Monte-Carlo (quantum trajectory) noisy simulator: per shot, evolve a
// statevector and stochastically sample one Kraus operator after each noisy
// gate. Scales like the ideal array simulator per shot and supports the
// full instruction set (measure/reset/conditionals), so it is the
// stand-in for executing on the "real device" throughout this repo.
//
// Execution pipeline: the circuit is compiled ONCE into a noise-aware
// plan — stretches of noiseless unitary gates go through the gate-fusion
// planner (sim/fusion.hpp) and become fused kernels, while noisy gates,
// measurements, resets and conditioned operations stay as plan boundaries
// (a Kraus channel fires after the specific gate it is attached to, so
// fusion never crosses a noisy gate). The plan, its channels and the
// model's readout errors then run through sim::run_shot_plan, the run path
// of the ideal StatevectorSimulator too: it simulates only the touched
// qubits, bitwise as the full register would (DESIGN.md, "Trajectory
// compaction"). A plan in which no channel fires on a circuit with a final
// measurement layer is simulated once and its shots are sampled, readout
// errors included, so a noiseless job's counts equal StatevectorSimulator's.
// Otherwise trajectory i draws from its own stream seeded by (seed, i)
// through sim::sample_shots. Either way fixed-seed counts are bitwise
// identical whatever QTC_NUM_THREADS says, run to run.
//
// Knobs: the shared QTC_FUSION / QTC_FUSION_MAX_QUBITS and QTC_NUM_THREADS.
// All fallbacks are bitwise passthroughs.

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "noise/noise_model.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"

namespace qtc::noise {

/// A compiled noise-aware execution plan. Noiseless unitary segments are
/// fused kernels; everything else (noisy gates, measure, reset, conditioned
/// ops) passes through as FusedOp::Kind::Op steps, optionally tagged with
/// the Kraus channel that fires after them. Compiled once per run and
/// replayed by every trajectory.
struct TrajectoryPlan {
  struct Step {
    sim::FusedOp fused;  // Kind != Op: fused kernel; Kind::Op: IR passthrough
    /// Channel sampled after the passthrough op executes (noisy gates only;
    /// nullptr otherwise). Points into the model the plan was compiled
    /// against, with find_error's contract: valid while that model lives.
    const KrausChannel* channel = nullptr;
  };
  std::vector<Step> steps;
  int num_qubits = 0;
  int num_clbits = 0;
  // Planning statistics (the bench artifact):
  int source_unitary_gates = 0;  // unitary gate count of the source circuit
  int noisy_gates = 0;           // gates with an attached Kraus channel
  int fused_segments = 0;        // noiseless stretches handed to the planner
  int state_sweeps = 0;          // unitary passes over the amplitude array
};

/// Compile `circuit` against `noise` using the active fusion configuration.
/// With fusion disabled every operation passes through unchanged,
/// reproducing gate-by-gate dispatch bit for bit. The plan borrows the
/// model's channels: `noise` must outlive it.
TrajectoryPlan compile_trajectory_plan(const QuantumCircuit& circuit,
                                       const NoiseModel& noise);
/// A temporary model would die at the end of the call, leaving the plan's
/// channel pointers dangling.
TrajectoryPlan compile_trajectory_plan(const QuantumCircuit& circuit,
                                       NoiseModel&& noise) = delete;

class TrajectorySimulator {
 public:
  explicit TrajectorySimulator(std::uint64_t seed = 0xC0FFEE) : seed_(seed) {}

  /// Sample `shots` noisy shots through sim::run_shot_plan. Deterministic
  /// for a fixed seed: repeated calls on the same simulator return
  /// identical counts, independent of thread count. Throws
  /// std::invalid_argument when the circuit touches more than
  /// sim::kMaxStatevectorQubits qubits (the register may be wider).
  sim::Counts run(const QuantumCircuit& circuit, const NoiseModel& noise,
                  int shots = 1024);

 private:
  std::uint64_t seed_;  // base for the per-trajectory derived streams
};

}  // namespace qtc::noise
