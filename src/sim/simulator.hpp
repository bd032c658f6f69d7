#pragma once
// The "qasm_simulator" of the paper's Sec. IV: executes circuits with
// measurements, resets and classical conditioning over many shots, and the
// "unitary_simulator": accumulates a circuit's full 2^n x 2^n matrix.
// StatevectorSimulator and noise::TrajectorySimulator run through one
// function, run_shot_plan, which takes Kraus operators and readout errors
// as data. It simulates only the qubits the plan touches. A plan with no
// Kraus channel whose circuit has a final measurement layer is simulated
// once and sampled through sim::sample_final_layer, the sampler the DD and
// density-matrix engines share; anything else replays every shot.

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qtc::sim {

/// Asymmetric readout error for one qubit.
struct ReadoutError {
  double p0_given_1 = 0;  // probability of reading 0 when the state is 1
  double p1_given_0 = 0;  // probability of reading 1 when the state is 0
};

/// Sample a readout flip of a measured bit `value` under `error` (nullptr:
/// ideal readout, no draw).
inline int apply_readout(const ReadoutError* error, int value, Rng& rng) {
  if (error == nullptr) return value;
  const double flip_prob = value == 1 ? error->p0_given_1 : error->p1_given_0;
  return rng.bernoulli(flip_prob) ? 1 - value : value;
}

/// A compiled statevector program as run_shot_plan takes it: the fused
/// kernels and passthrough ops of a circuit, at the circuit's own qubit
/// labels. The pointers borrow: what they point to must outlive the run.
struct ShotPlan {
  std::vector<FusedOp> ops;
  /// Kraus operators sampled after passthrough unitary ops[i] (nullptr:
  /// noiseless), and readout error per qubit (nullptr: ideal). Either
  /// vector may be empty when nothing of its kind is noisy.
  std::vector<const std::vector<Matrix>*> kraus;
  std::vector<const ReadoutError*> readout;
  // Set by run_shot_plan when it compacts the plan:
  int num_qubits = 0;  // simulated width
  int num_clbits = 0;
  /// Statevector::set_register_layout of the state; empty: its own register.
  std::vector<int> positions;
  int register_width = 0;
  const std::vector<Register>* cregs = nullptr;  // read by conditioned ops
};

/// Run `shots` shots of `plan`, compiled from `circuit`. The plan is
/// relabelled onto the qubits it touches, and the state keeps its place in
/// the circuit's register, so reductions match the full-width register bit
/// for bit (DESIGN.md, "Trajectory compaction"). Throws
/// std::invalid_argument when it touches more than kMaxStatevectorQubits
/// qubits (the register may be wider). A plan with no Kraus channel whose
/// circuit has a final layer (sim::final_layer) is simulated once and its
/// shots are drawn through sample_final_layer from one Rng(seed), readout
/// errors through its `read` hook; anything else replays every shot under
/// the sample_shots contract. Either way the counts for a fixed seed repeat
/// at any thread count.
Counts run_shot_plan(const QuantumCircuit& circuit, ShotPlan plan,
                     std::uint64_t seed, int shots);

struct RunResult {
  Counts counts;
};

/// Array-based circuit executor.
class StatevectorSimulator {
 public:
  explicit StatevectorSimulator(std::uint64_t seed = 0xC0FFEE)
      : seed_(seed) {}

  /// Execute with sampling: the circuit is compiled into a fused kernel
  /// plan (see sim/fusion.hpp; QTC_FUSION / QTC_FUSION_MAX_QUBITS) and run
  /// through run_shot_plan with no noise, so its counts equal
  /// noise::TrajectorySimulator's under an empty model. A circuit that
  /// writes no clbit records the all-zero key of its clbit width per shot.
  RunResult run(const QuantumCircuit& circuit, int shots = 1024);

  /// Final statevector of the unitary part of the circuit (measurements,
  /// resets and barriers ignored).
  Statevector statevector(const QuantumCircuit& circuit);

 private:
  std::uint64_t seed_;
};

/// Builds the unitary matrix of a (measurement-free) circuit by applying its
/// gates to every column of the identity. The circuit is compiled into one
/// fused kernel plan shared by all columns, so fusion's sweep reduction
/// multiplies across the 2^n column evolutions. Exponential in qubits;
/// intended for verification and the paper's Fig. 3 dense-matrix baseline.
class UnitarySimulator {
 public:
  Matrix unitary(const QuantumCircuit& circuit) const;
};

/// Read the value of classical register `reg` out of flattened clbits.
std::uint64_t creg_value(const Register& reg, const std::vector<int>& clbits);

}  // namespace qtc::sim
