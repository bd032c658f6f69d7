#pragma once
// Optimization passes: the paper's Sec. III names "minimizing occurrences of
// CNOT gates" and general circuit optimization as the transpiler's job.

#include "transpiler/pass_manager.hpp"

namespace qtc::transpiler {

/// Cancels adjacent inverse pairs (H-H, X-X, CX-CX, T-Tdg, SWAP-SWAP, ...)
/// and merges adjacent same-axis rotations (RZ RZ -> RZ, P P -> P, ...),
/// where "adjacent" means no intervening operation touches the gate's
/// qubits. Runs to a fixed point. Conditioned ops are never touched.
class GateCancellation final : public Pass {
 public:
  std::string name() const override { return "gate-cancellation"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

/// Fuses maximal runs of single-qubit gates on each qubit into one
/// U(theta, phi, lambda) via ZYZ resynthesis; identity runs vanish.
/// Preserves each run's unitary up to global phase.
class FuseSingleQubitGates final : public Pass {
 public:
  std::string name() const override { return "fuse-1q-gates"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

namespace detail {

/// True when `op` is the inverse of `prev` as op_inverse(prev.kind,
/// prev.params) states it: the inverse kind, with every parameter within
/// 1e-12 of the inverse's (a NaN difference counts as within). Allocation
/// free. False for ISWAP and non-unitary `prev`, which GateCancellation
/// never pairs. Qubit operands are not compared.
bool is_inverse_of(const Operation& prev, const Operation& op);

}  // namespace detail

}  // namespace qtc::transpiler
