#pragma once
// Density-matrix state and simulator: exact mixed-state evolution under a
// noise model. Exponentially costlier than statevectors (4^n) but exact —
// the reference against which the Monte-Carlo trajectory method is checked.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
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
  void apply_unitary(const Matrix& u, std::span<const int> qubits);
  void apply(const Operation& op);
  /// rho -> sum_k K rho K^dagger.
  void apply_channel(const KrausChannel& channel,
                     std::span<const int> qubits);
  void apply_channel(const KrausChannel& channel,
                     std::initializer_list<int> qubits) {
    apply_channel(channel,
                  std::span<const int>(qubits.begin(), qubits.size()));
  }

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

 private:
  /// Apply an arbitrary (not necessarily unitary) matrix on the left:
  /// rho -> M rho, or on the right: rho -> rho M^dagger.
  void left_multiply(const Matrix& m, std::span<const int> qubits);
  void right_multiply_dagger(const Matrix& m, std::span<const int> qubits);

  int n_ = 0;
  Matrix rho_;
};

/// Exact noisy executor. Measurements must form a final layer
/// (sim::final_layer): run() and evolve() throw std::invalid_argument on a
/// gate or second measurement on a measured wire, a reset or a conditioned
/// op (use TrajectorySimulator). Superoperator application parallelizes
/// over row/column blocks on the core/parallel.hpp pool. Shots sample the
/// final diagonal and readout errors through sim::sample_final_layer, one
/// stream seeded from `seed` per call, so fixed-seed counts are thread-count
/// invariant and repeated run() calls on one simulator are identical.
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
  std::uint64_t seed_;
};

}  // namespace qtc::noise
