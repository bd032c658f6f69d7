#pragma once
// Commutation-aware cancellation: merges single-qubit rotations across the
// two-qubit gates they commute with. Diagonal gates (Z/S/T/RZ/P) commute
// with CX controls and with CZ entirely; X-axis gates (X/SX/RX) commute
// with CX targets. This catches cancellations the purely adjacent
// GateCancellation pass cannot see, e.g.  T(c) . CX(c,t) . Tdg(c)  ->  CX.

#include "transpiler/pass_manager.hpp"

namespace qtc::transpiler {

/// Accumulated rotations re-emit as P (Z axis) / RX (X axis); runs that sum
/// to a multiple of 2 pi vanish. The circuit unitary is preserved up to
/// global phase. Conditioned operations act as barriers.
class CommutativeCancellation final : public Pass {
 public:
  std::string name() const override { return "commutative-cancellation"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

}  // namespace qtc::transpiler
