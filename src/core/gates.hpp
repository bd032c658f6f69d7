#pragma once
// The standard gate set: kinds, metadata (name / arity / parameter count),
// unitary matrices and inverses. This is the vocabulary shared by the IR,
// the QASM frontend, the transpiler and every simulator backend.

#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "core/matrix.hpp"
#include "core/small_vec.hpp"
#include "core/types.hpp"

namespace qtc {

enum class OpKind {
  // single-qubit
  I,
  X,
  Y,
  Z,
  H,
  S,
  Sdg,
  T,
  Tdg,
  SX,
  SXdg,
  RX,
  RY,
  RZ,
  P,   // phase gate, diag(1, e^{i lambda}); a.k.a. u1
  U2,  // u2(phi, lambda) = U(pi/2, phi, lambda)
  U,   // generic single-qubit U(theta, phi, lambda); a.k.a. u3
  // two-qubit (control first in the qubit list where applicable)
  CX,
  CY,
  CZ,
  CH,
  CRX,
  CRY,
  CRZ,
  CP,
  CU,  // controlled-U(theta, phi, lambda) (no extra control phase)
  SWAP,
  ISWAP,
  RZZ,
  RXX,
  // three-qubit
  CCX,    // Toffoli, controls first
  CSWAP,  // Fredkin, control first
  // non-unitary / structural
  Measure,
  Reset,
  Barrier,
  // Appended after the structural kinds so existing QBIN opcode values
  // (raw enum values on the wire) stay stable for the checked-in corpus.
  ECR,  // echoed cross-resonance, 1/sqrt(2) (IX - XY); modern 2q native gate
};

/// The real parameters of one gate: U and CU take the most, three.
using ParamList = SmallVec<double, 3>;

/// Human-readable lowercase mnemonic, matching OpenQASM / qelib1 names.
const char* op_name(OpKind kind);
/// Parse a mnemonic back to a kind (names as produced by op_name).
std::optional<OpKind> op_from_name(const std::string& name);

/// Number of qubits the gate acts on (0 for Barrier, which is variadic).
int op_num_qubits(OpKind kind);
/// Number of real parameters the gate carries.
int op_num_params(OpKind kind);
/// True for unitary gates (everything except Measure/Reset/Barrier).
inline bool op_is_unitary(OpKind kind) {
  return kind != OpKind::Measure && kind != OpKind::Reset &&
         kind != OpKind::Barrier;
}
/// True for gates with >= 2 qubits.
bool op_is_multi_qubit(OpKind kind);

/// Unitary matrix of the gate, dimension 2^k x 2^k where k = op_num_qubits.
/// Convention: the gate-local basis index of qubit list [q0, q1, ...] puts q0
/// in the LEAST significant bit (Qiskit little-endian). E.g. CX with control
/// q0 and target q1 maps |q1 q0> : 01 -> 11, 11 -> 01.
Matrix op_matrix(OpKind kind, std::span<const double> params = {});
inline Matrix op_matrix(OpKind kind, std::initializer_list<double> params) {
  return op_matrix(kind, std::span<const double>(params.begin(), params.size()));
}

/// The inverse gate as (kind, params). Every unitary gate in the set has an
/// inverse within the set.
std::pair<OpKind, ParamList> op_inverse(OpKind kind,
                                        std::span<const double> params = {});
inline std::pair<OpKind, ParamList> op_inverse(
    OpKind kind, std::initializer_list<double> params) {
  return op_inverse(kind,
                    std::span<const double>(params.begin(), params.size()));
}

/// Decompose an arbitrary single-qubit unitary into U(theta, phi, lambda)
/// (ZYZ Euler angles) plus a global phase alpha such that
/// e^{i alpha} U(theta,phi,lambda) == m.
struct EulerAngles {
  double theta, phi, lambda, phase;
};
EulerAngles zyz_decompose(const Matrix& m);

/// Matrix of U(theta, phi, lambda) in the standard (phase-fixed) convention:
/// [[cos(t/2), -e^{i l} sin(t/2)], [e^{i p} sin(t/2), e^{i(p+l)} cos(t/2)]].
Matrix u3_matrix(double theta, double phi, double lambda);

}  // namespace qtc
