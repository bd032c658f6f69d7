#pragma once
// Density-matrix state and simulator: exact mixed-state evolution under a
// noise model. Exponentially costlier than statevectors (4^n) but exact —
// the reference against which the Monte-Carlo trajectory method is checked.

#include <cstdint>
#include <span>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "noise/noise_model.hpp"
#include "sim/result.hpp"

namespace qtc::noise {

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits.
  explicit DensityMatrix(int num_qubits);
  /// |psi><psi| from a pure state.
  explicit DensityMatrix(const std::vector<cplx>& statevector);

  int num_qubits() const { return n_; }
  const Matrix& matrix() const { return rho_; }

  /// rho -> U rho U^dagger with U a 2^k unitary on the listed qubits
  /// (qubits[0] = least significant gate-local bit).
  void apply_unitary(const Matrix& u, const std::vector<int>& qubits);
  void apply(const Operation& op);
  /// rho -> sum_k K rho K^dagger.
  void apply_channel(const KrausChannel& channel,
                     const std::vector<int>& qubits);

  /// Diagonal of rho: probability of each basis state.
  std::vector<double> probabilities() const;
  double probability_of_one(int qubit) const;
  /// Tr(rho^2); 1 for pure states.
  double purity() const;
  double trace_real() const;
  /// <psi| rho |psi> against a pure reference state.
  double fidelity(std::span<const cplx> statevector) const;
  /// Expectation of a Pauli string (leftmost char = highest qubit).
  double expectation_pauli(const std::string& paulis) const;
  /// Reduce to the listed qubits (ascending order kept).
  DensityMatrix partial_trace(const std::vector<int>& keep) const;
  /// Sample a basis state from the diagonal.
  std::uint64_t sample(Rng& rng) const;

 private:
  /// Apply an arbitrary (not necessarily unitary) matrix on the left:
  /// rho -> M rho, or on the right: rho -> rho M^dagger.
  void left_multiply(const Matrix& m, const std::vector<int>& qubits);
  void right_multiply_dagger(const Matrix& m, const std::vector<int>& qubits);

  int n_ = 0;
  Matrix rho_;
};

/// Exact noisy executor. Measurements must form a final layer; reset and
/// classical conditioning are not supported (use TrajectorySimulator).
/// Superoperator application parallelizes over row/column blocks on the
/// core/parallel.hpp pool. Shots sample the final diagonal through
/// sim::sample_shots, the seeded shot loop every engine shares (serial
/// below 256 shots), so fixed-seed counts are thread-count invariant and
/// repeated run() calls on one simulator are identical.
class DensityMatrixSimulator {
 public:
  explicit DensityMatrixSimulator(std::uint64_t seed = 0xC0FFEE)
      : seed_(seed) {}

  struct Result {
    sim::Counts counts;
    DensityMatrix state{1};
  };

  Result run(const QuantumCircuit& circuit, const NoiseModel& noise,
             int shots = 1024);
  /// Final density matrix (no sampling).
  DensityMatrix evolve(const QuantumCircuit& circuit,
                       const NoiseModel& noise);

 private:
  std::uint64_t seed_;  // base for the per-shot derived streams
};

}  // namespace qtc::noise
