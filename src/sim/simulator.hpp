#pragma once
// The "qasm_simulator" of the paper's Sec. IV: executes circuits with
// measurements, resets and classical conditioning over many shots, and the
// "unitary_simulator": accumulates a circuit's full 2^n x 2^n matrix.
// Its shot-by-shot path and noise::TrajectorySimulator share one replay,
// replay_shots, which takes Kraus operators and readout errors as data.

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

/// A compiled statevector program as replay_shots runs it. The pointers
/// borrow: what they point to must outlive the replay.
struct ShotPlan {
  std::vector<FusedOp> ops;
  /// Kraus operators sampled after passthrough unitary ops[i] (nullptr:
  /// noiseless), and readout error per simulated qubit (nullptr: ideal).
  /// Either vector is empty when nothing is noisy.
  std::vector<const std::vector<Matrix>*> kraus;
  std::vector<const ReadoutError*> readout;
  int num_qubits = 0;  // simulated width
  int num_clbits = 0;
  /// Statevector::set_register_layout of the state; empty: its own register.
  std::vector<int> positions;
  int register_width = 0;
  const std::vector<Register>* cregs = nullptr;  // read by conditioned ops
};

/// Run `shots` replays of `plan` under the sample_shots contract. When
/// `last_state` is given it receives the last shot's final amplitudes.
Counts replay_shots(const ShotPlan& plan, std::uint64_t seed, int shots,
                    std::vector<cplx>* last_state = nullptr);

struct RunResult {
  Counts counts;
  /// Final pre-measurement state when the fast (deterministic) path was
  /// taken; final state of the last shot otherwise.
  std::vector<cplx> statevector;
};

/// Array-based circuit executor.
class StatevectorSimulator {
 public:
  explicit StatevectorSimulator(std::uint64_t seed = 0xC0FFEE)
      : seed_(seed), rng_(seed) {}

  /// Execute with sampling. The circuit is first compiled into a fused
  /// kernel plan (see sim/fusion.hpp; QTC_FUSION / QTC_FUSION_MAX_QUBITS).
  /// Circuits whose measurements form a final layer (no conditionals/resets)
  /// are simulated once and sampled `shots` times from a precomputed
  /// cumulative distribution, drawing from the simulator's own RNG (a
  /// second run() continues it). Anything else goes through replay_shots
  /// with no noise: per-shot streams derived from (seed, shot index), so a
  /// repeated run() gives the same counts. Either way the counts for a fixed
  /// seed are identical whatever QTC_NUM_THREADS says. Circuits without any
  /// measurement yield empty counts.
  RunResult run(const QuantumCircuit& circuit, int shots = 1024);

  /// Final statevector of the unitary part of the circuit (measurements,
  /// resets and barriers ignored).
  Statevector statevector(const QuantumCircuit& circuit);

 private:
  bool sampling_friendly(const QuantumCircuit& circuit) const;
  std::uint64_t seed_;  // base for the per-shot derived streams
  Rng rng_;
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
