#pragma once
// Array-based quantum state: the 2^n complex amplitude vector and the gate
// kernels that update it. This is the simulation technique the paper's
// Sec. V-A describes as Qiskit's baseline (and whose exponential memory the
// decision-diagram package addresses). Besides the generic k-qubit
// gather/multiply/scatter kernel it offers specialized kernels for the
// matrix shapes gate fusion produces: diagonal (one multiply per amplitude,
// no gather), generalized permutation (index remap) and block-controlled
// unitaries (only the control-active slice of the state is touched).

#include <cstdint>
#include <string>
#include <vector>

#include "core/aligned.hpp"
#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "sim/simd.hpp"

namespace qtc::sim {

/// Amplitude storage: 64-byte aligned so the SIMD kernel layer (sim/simd.hpp)
/// can use cacheline-aligned vector loads and the array never straddles a
/// line boundary at index 0.
using AmpVector = aligned_vector<cplx>;

/// Widest state the array engine allocates: 2^30 amplitudes, 16 GiB.
inline constexpr int kMaxStatevectorQubits = 30;

/// Basis-state convention: qubit q is bit q of the index (little-endian, as
/// in Qiskit). Bitstrings print with the highest qubit leftmost.
class Statevector {
 public:
  /// |0...0> on n qubits.
  explicit Statevector(int num_qubits);
  /// Adopt an existing amplitude vector (size must be a power of two).
  explicit Statevector(AmpVector amplitudes);
  /// Copying convenience overload for plain vectors (the aligned overload
  /// adopts the buffer; this one must re-allocate to get alignment).
  explicit Statevector(const std::vector<cplx>& amplitudes);

  int num_qubits() const { return n_; }
  std::size_t dim() const { return amp_.size(); }
  const AmpVector& amplitudes() const { return amp_; }
  AmpVector& amplitudes() { return amp_; }
  cplx amplitude(std::uint64_t basis_state) const {
    return amp_[basis_state];
  }

  /// Apply a unitary operation from the IR (throws on measure/reset).
  void apply(const Operation& op);
  /// Apply a 2^k x 2^k matrix to the listed qubits; qubits[0] is the least
  /// significant gate-local bit (same convention as op_matrix).
  void apply_matrix(const Matrix& m, const std::vector<int>& qubits);
  /// Run all unitary gates of a circuit (skips barriers; throws on measure).
  void apply_circuit(const QuantumCircuit& circuit);

  // --- specialized kernels (gate-fusion dispatch targets) -------------------
  /// 2x2 matrix [[m00, m01], [m10, m11]] applied to qubit q — the same
  /// pair-loop the 1-qubit fast path of apply() uses.
  void apply_1q(cplx m00, cplx m01, cplx m10, cplx m11, int q);
  /// CX fast path: swap amplitude pairs on the control-set half.
  void apply_cx(int control, int target);
  /// Diagonal 2^k matrix over `qubits`: one multiply per amplitude in a
  /// single pass, no pair gather (RZ/phase/CZ runs fuse to this shape).
  void apply_diagonal(const std::vector<cplx>& diag,
                      const std::vector<int>& qubits);
  /// Generalized permutation over `qubits`: amplitude at gate-local index j
  /// moves to row_of[j], scaled by phases[j]. Pass an empty `phases` for a
  /// pure remap with no arithmetic (X/CX/SWAP runs). k <= 6.
  void apply_permutation(const std::vector<std::uint32_t>& row_of,
                         const std::vector<cplx>& phases,
                         const std::vector<int>& qubits);
  /// Apply `u` to `targets` on the subspace where every qubit in `controls`
  /// reads 1; the other amplitudes are untouched (so an m-control gate only
  /// sweeps 2^(n-m) amplitudes). u is 2^t x 2^t with t = targets.size() <= 6.
  void apply_controlled_matrix(const Matrix& u,
                               const std::vector<int>& controls,
                               const std::vector<int>& targets);
  /// Same kernel with the controls packed first in one list (the fused-plan
  /// layout): qubits[0..num_controls) control, the rest are targets.
  void apply_controlled_matrix(const Matrix& u, const std::vector<int>& qubits,
                               int num_controls);

  /// Place this state inside a wider `register_width`-qubit register: qubit
  /// i sits at register position positions[i] (strictly increasing) and the
  /// register qubits not listed stay |0>. Only the blocked reductions read
  /// the placement: norm() and probability_of_one() (hence measure, reset
  /// and normalize) form their partial sums over the register's fixed
  /// kReduceBlock partitions and add them in block order, so they return
  /// bitwise what the same call on the full-width register would. A fresh
  /// state sits at positions 0..n-1 of its own n-qubit register.
  void set_register_layout(std::vector<int> positions, int register_width);

  /// Probability that qubit q reads 1.
  double probability_of_one(int q) const;
  /// Per-basis-state probabilities (length 2^n).
  std::vector<double> probabilities() const;
  /// Projective measurement of qubit q: collapses the state, returns 0/1.
  int measure(int q, Rng& rng);
  /// Measure-and-discard to |0>: projective measurement then X if needed.
  void reset(int q, Rng& rng);
  /// Sample a basis state index without collapsing (one O(2^n) scan). For
  /// repeated draws build cumulative_probabilities() once and use sample_cdf.
  std::uint64_t sample(Rng& rng) const;
  /// Inclusive prefix sums of the basis-state probabilities (length 2^n),
  /// for O(log 2^n) per-shot sampling via sample_cdf. Thread-count
  /// invariant (fixed-block prefix sum).
  std::vector<double> cumulative_probabilities() const;

  /// <psi| P |psi> for a Pauli string. `paulis` uses one character per qubit,
  /// leftmost = highest qubit (e.g. "ZZI" on 3 qubits: Z on q2, Z on q1).
  double expectation_pauli(const std::string& paulis) const;

  /// |<this|other>|^2.
  double fidelity(const Statevector& other) const;
  double norm() const;
  void normalize();

 private:
  /// Validate gate qubits and (re)build the sorted-qubit / gather-offset
  /// scratch for a k-qubit kernel. The buffers are members so the per-gate
  /// hot loop allocates at most once per circuit execution (capacity is
  /// reused across calls); they are filled on the calling thread before any
  /// parallel region reads them.
  void prepare_gather(const int* qubits, int k, std::size_t dim);
  /// Low index bits (qubit `skip` removed first, -1 for none) that stay
  /// inside one reduction block of the register (see set_register_layout).
  int reduction_block_bits(int skip) const;

  int n_ = 0;
  AmpVector amp_;
  // Kernel scratch reused across gate applications (see prepare_gather).
  std::vector<int> sorted_qubits_;
  std::vector<int> expand_qubits_;  // controls ∪ targets, sorted
  std::vector<std::uint64_t> gather_offsets_;
  // Register placement (set_register_layout); empty = positions 0..n-1.
  std::vector<int> positions_;
  int register_width_ = 0;
  // Kernel ISA, resolved once when the state is built (simd::select reads
  // the QTC_SIMD knob); copies keep it. Vector and scalar kernels are
  // bitwise equal, so the choice only affects speed.
  simd::Isa isa_ = simd::select();
};

/// Render a basis index as a bitstring, qubit width-1 first (Qiskit order).
std::string format_bits(std::uint64_t value, int width);

/// Binary-search a uniform draw r in [0, 1) against an inclusive-prefix-sum
/// distribution (as built by Statevector::cumulative_probabilities).
std::uint64_t sample_cdf(const std::vector<double>& cdf, double r);

}  // namespace qtc::sim
