#pragma once
// Gate decomposition passes. The paper (Sec. II-B): "the user first has to
// decompose all non-elementary quantum operations (e.g. Toffoli gate, SWAP
// gate, or Fredkin gate) to the elementary operations U(theta, phi, lambda)
// and CNOT".

#include <span>

#include "transpiler/pass_manager.hpp"

namespace qtc::transpiler {

/// Rewrites multi-qubit gates other than CX into {1q gates, CX}:
/// CZ/CY/CH/CRX/CRY/CRZ/CP/CU via the ABC controlled-unitary construction,
/// SWAP as three CX, iSWAP/RZZ/RXX via standard identities, CCX via the
/// Clifford+T network, CSWAP via CCX. Single-qubit gates are left alone.
class DecomposeMultiQubit final : public Pass {
 public:
  std::string name() const override { return "decompose-multi-qubit"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

/// Rewrites every remaining 1q gate into the QX-native U(theta,phi,lambda)
/// (named gates keep their exact unitary; RZ etc. may pick up a global
/// phase). Run after DecomposeMultiQubit for a full {U, CX} basis.
class RewriteToUBasis final : public Pass {
 public:
  std::string name() const override { return "rewrite-u-basis"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

/// Rewrites CX into the directed native ECR of modern heavy-hex devices:
/// CX(c, t) = e^{-i pi/4} [SX t][S c] ECR(c, t) [X c] (global phase
/// dropped). Direction-preserving, so run it after FixCxDirections; follow
/// with RewriteToRzSxBasis to lower the emitted 1q gates. ECR and 1q gates
/// pass through; other multi-qubit gates must be decomposed first.
class RewriteToEcrBasis final : public Pass {
 public:
  std::string name() const override { return "rewrite-ecr-basis"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

/// Rewrites every 1q gate into the modern IBM basis {RZ, SX} via
/// U(theta, phi, lambda) ~ RZ(phi + pi) SX RZ(theta + pi) SX RZ(lambda)
/// (up to global phase), leaving CX and ECR untouched: the {RZ, SX, CX/ECR}
/// target of current devices. Run after DecomposeMultiQubit. Pure Z
/// rotations emit a single RZ; identities vanish.
class RewriteToRzSxBasis final : public Pass {
 public:
  std::string name() const override { return "rewrite-rzsx-basis"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

/// RewriteToEcrBasis followed by RewriteToRzSxBasis in one sweep: the same
/// circuit op for op, without building the intermediate ECR-basis circuit.
/// finish_pipeline lowers to ECR/RZ/SX devices with it.
class RewriteToEcrRzSxBasis final : public Pass {
 public:
  std::string name() const override { return "rewrite-ecr-rzsx-basis"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;
};

namespace detail {

/// ZYZ Euler angles of a 1q gate, zyz_decompose(op_matrix(kind, params)).
/// The parameter-free kinds read a table built once with exactly that call,
/// so every value is bitwise what the decomposition returns.
EulerAngles euler_angles(OpKind kind, std::span<const double> params);

}  // namespace detail

}  // namespace qtc::transpiler
