#include "transpiler/decompose.hpp"

#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace qtc::transpiler {

namespace {

Operation make(OpKind kind, std::vector<Qubit> qubits,
               std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

/// Controlled-U via the ABC construction: with U = e^{ia} Rz(b) Ry(g) Rz(d),
///   CU(c,t) = P(a)_c . A_t . CX . B_t . CX . C_t
/// where A = Rz(b) Ry(g/2), B = Ry(-g/2) Rz(-(d+b)/2), C = Rz((d-b)/2).
void controlled_unitary(const Matrix& u, Qubit control, Qubit target,
                        std::vector<Operation>& out) {
  const EulerAngles e = zyz_decompose(u);
  // U3(theta, phi, lambda) = e^{i(phi+lambda)/2} Rz(phi) Ry(theta) Rz(lambda)
  const double alpha = e.phase + (e.phi + e.lambda) / 2;
  const double beta = e.phi, gamma = e.theta, delta = e.lambda;
  auto push_rz = [&](double angle, Qubit q) {
    if (std::abs(angle) > 1e-12) out.push_back(make(OpKind::RZ, {q}, {angle}));
  };
  auto push_ry = [&](double angle, Qubit q) {
    if (std::abs(angle) > 1e-12) out.push_back(make(OpKind::RY, {q}, {angle}));
  };
  push_rz((delta - beta) / 2, target);  // C
  out.push_back(make(OpKind::CX, {control, target}));
  push_rz(-(delta + beta) / 2, target);  // B (Rz first, then Ry)
  push_ry(-gamma / 2, target);
  out.push_back(make(OpKind::CX, {control, target}));
  push_ry(gamma / 2, target);  // A (Ry first, then Rz)
  push_rz(beta, target);
  if (std::abs(alpha) > 1e-12) out.push_back(make(OpKind::P, {control}, {alpha}));
}

void ccx_network(Qubit a, Qubit b, Qubit c, std::vector<Operation>& out) {
  // The Clifford+T Toffoli network (qelib1's ccx).
  out.push_back(make(OpKind::H, {c}));
  out.push_back(make(OpKind::CX, {b, c}));
  out.push_back(make(OpKind::Tdg, {c}));
  out.push_back(make(OpKind::CX, {a, c}));
  out.push_back(make(OpKind::T, {c}));
  out.push_back(make(OpKind::CX, {b, c}));
  out.push_back(make(OpKind::Tdg, {c}));
  out.push_back(make(OpKind::CX, {a, c}));
  out.push_back(make(OpKind::T, {b}));
  out.push_back(make(OpKind::T, {c}));
  out.push_back(make(OpKind::H, {c}));
  out.push_back(make(OpKind::CX, {a, b}));
  out.push_back(make(OpKind::T, {a}));
  out.push_back(make(OpKind::Tdg, {b}));
  out.push_back(make(OpKind::CX, {a, b}));
}

/// Expand one operation into {1q, CX} pieces; returns false when the op is
/// already elementary (or non-unitary) and was moved to `out` unchanged.
bool expand(Operation& op, std::vector<Operation>& out) {
  const auto& q = op.qubits;
  switch (op.kind) {
    case OpKind::CZ:
      out.push_back(make(OpKind::H, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::CY:
      out.push_back(make(OpKind::Sdg, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::S, {q[1]}));
      return true;
    case OpKind::CP: {
      const double l = op.params[0];
      out.push_back(make(OpKind::P, {q[0]}, {l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::P, {q[1]}, {-l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::P, {q[1]}, {l / 2}));
      return true;
    }
    case OpKind::CRZ: {
      const double l = op.params[0];
      out.push_back(make(OpKind::RZ, {q[1]}, {l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {-l / 2}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    }
    case OpKind::CH:
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CU: {
      // Strip the leading control: the controlled 4x4 matrix embeds the
      // 2x2 unitary in the |control=1> block.
      const Matrix full = op_matrix(op.kind, op.params);
      Matrix u(2, 2);
      u(0, 0) = full(1, 1);
      u(0, 1) = full(1, 3);
      u(1, 0) = full(3, 1);
      u(1, 1) = full(3, 3);
      controlled_unitary(u, q[0], q[1], out);
      return true;
    }
    case OpKind::SWAP:
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::CX, {q[1], q[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    case OpKind::ISWAP:
      out.push_back(make(OpKind::S, {q[0]}));
      out.push_back(make(OpKind::S, {q[1]}));
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::CX, {q[1], q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::RZZ:
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {op.params[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      return true;
    case OpKind::RXX:
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::RZ, {q[1]}, {op.params[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::H, {q[0]}));
      out.push_back(make(OpKind::H, {q[1]}));
      return true;
    case OpKind::ECR:
      // ECR(q0, q1) = e^{i pi/4} [SXdg q1][Sdg q0] CX(q0, q1) [X q0]
      // (global phase dropped, like the other phase-normalized rewrites).
      out.push_back(make(OpKind::X, {q[0]}));
      out.push_back(make(OpKind::CX, {q[0], q[1]}));
      out.push_back(make(OpKind::Sdg, {q[0]}));
      out.push_back(make(OpKind::SXdg, {q[1]}));
      return true;
    case OpKind::CCX:
      ccx_network(q[0], q[1], q[2], out);
      return true;
    case OpKind::CSWAP:
      out.push_back(make(OpKind::CX, {q[2], q[1]}));
      ccx_network(q[0], q[1], q[2], out);
      out.push_back(make(OpKind::CX, {q[2], q[1]}));
      return true;
    default:
      out.push_back(std::move(op));
      return false;
  }
}

/// CX(c, t) = e^{-i pi/4} [SX t][S c] ECR(c, t) [X c] (phase dropped):
/// hands X(c), ECR(c, t), S(c), SX(t) to `emit` in circuit order, each with
/// the CX's condition. Direction-preserving: the ECR takes over the CX's own
/// qubit list, so this must run after FixCxDirections.
template <typename Emit>
void expand_cx_to_ecr(Operation cx, Emit&& emit) {
  const auto piece = [&](OpKind kind, Qubit q) {
    Operation op = make(kind, {q});
    op.cond_reg = cx.cond_reg;
    op.cond_val = cx.cond_val;
    return op;
  };
  Operation x = piece(OpKind::X, cx.qubits[0]);
  Operation s = piece(OpKind::S, cx.qubits[0]);
  Operation sx = piece(OpKind::SX, cx.qubits[1]);
  cx.kind = OpKind::ECR;
  emit(std::move(x));
  emit(std::move(cx));
  emit(std::move(s));
  emit(std::move(sx));
}

/// Everything but CX passes RewriteToEcrBasis unchanged: 1q gates, ECR and
/// non-unitary ops. Other multi-qubit gates must be decomposed first.
void check_ecr_input(const Operation& op) {
  if (op_is_unitary(op.kind) && op.qubits.size() > 1 &&
      op.kind != OpKind::ECR)
    throw std::invalid_argument(
        "rewrite-ecr-basis: run decompose-multi-qubit first (found " +
        std::string(op_name(op.kind)) + ")");
}

/// Appends `op` in the {RZ, SX, CX/ECR} basis: CX, ECR, RZ, SX, I and
/// non-unitary ops as they are, every other 1q gate as
/// U(theta, phi, lambda) ~ RZ(phi + pi) SX RZ(theta + pi) SX RZ(lambda)
/// (global phase dropped), or a single RZ when it is diagonal. Near-zero
/// RZs vanish; every emitted gate keeps `op`'s condition.
void append_rzsx(Operation op, QuantumCircuit& out) {
  if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
      op.kind == OpKind::ECR || op.kind == OpKind::RZ ||
      op.kind == OpKind::SX || op.kind == OpKind::I) {
    out.append(std::move(op));
    return;
  }
  if (op.qubits.size() != 1)
    throw std::invalid_argument(
        "rewrite-rzsx-basis: run decompose-multi-qubit first (found " +
        std::string(op_name(op.kind)) + ")");
  const Qubit q = op.qubits[0];
  const auto push_rz = [&](double angle) {
    angle = std::remainder(angle, 2 * PI);
    if (std::abs(angle) < 1e-12) return;
    Operation rz = make(OpKind::RZ, {q}, {angle});
    rz.cond_reg = op.cond_reg;
    rz.cond_val = op.cond_val;
    out.append(std::move(rz));
  };
  const auto push_sx = [&] {
    Operation sx = make(OpKind::SX, {q});
    sx.cond_reg = op.cond_reg;
    sx.cond_val = op.cond_val;
    out.append(std::move(sx));
  };
  const EulerAngles e = detail::euler_angles(op.kind, op.params);
  if (std::abs(std::remainder(e.theta, 2 * PI)) < 1e-12) {
    push_rz(e.phi + e.lambda);  // diagonal gate
    return;
  }
  push_rz(e.lambda);
  push_sx();
  push_rz(e.theta + PI);
  push_sx();
  push_rz(e.phi + PI);
}

}  // namespace

QuantumCircuit DecomposeMultiQubit::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  std::vector<Operation> pieces;
  for (auto& op : circuit.ops()) {
    const int cond_reg = op.cond_reg;
    const std::uint64_t cond_val = op.cond_val;
    pieces.clear();
    expand(op, pieces);
    for (auto& piece : pieces) {
      piece.cond_reg = cond_reg;
      piece.cond_val = cond_val;
      out.append(std::move(piece));
    }
  }
  return out;
}

QuantumCircuit RewriteToUBasis::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  for (auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
        op.kind == OpKind::U || op.kind == OpKind::P || op.kind == OpKind::U2 ||
        op.kind == OpKind::I) {
      out.append(std::move(op));
      continue;
    }
    if (op.qubits.size() != 1)
      throw std::invalid_argument(
          "rewrite-u-basis: run decompose-multi-qubit first (found " +
          std::string(op_name(op.kind)) + ")");
    const EulerAngles e = detail::euler_angles(op.kind, op.params);
    op.kind = OpKind::U;
    op.params = {e.theta, e.phi, e.lambda};
    out.append(std::move(op));
  }
  return out;
}

QuantumCircuit RewriteToEcrBasis::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  for (auto& op : circuit.ops()) {
    if (op.kind == OpKind::CX) {
      expand_cx_to_ecr(std::move(op),
                       [&](Operation piece) { out.append(std::move(piece)); });
      continue;
    }
    check_ecr_input(op);
    out.append(std::move(op));
  }
  return out;
}

QuantumCircuit RewriteToRzSxBasis::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  for (auto& op : circuit.ops()) append_rzsx(std::move(op), out);
  return out;
}

QuantumCircuit RewriteToEcrRzSxBasis::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  for (auto& op : circuit.ops()) {
    if (op.kind == OpKind::CX) {
      expand_cx_to_ecr(std::move(op), [&](Operation piece) {
        append_rzsx(std::move(piece), out);
      });
      continue;
    }
    check_ecr_input(op);
    append_rzsx(std::move(op), out);
  }
  return out;
}

namespace detail {

EulerAngles euler_angles(OpKind kind, const std::vector<double>& params) {
  constexpr std::size_t kKinds = static_cast<std::size_t>(OpKind::ECR) + 1;
  struct Table {
    std::array<EulerAngles, kKinds> angles{};
    std::array<bool, kKinds> fixed{};
  };
  static const Table table = [] {
    Table t;
    for (std::size_t k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<OpKind>(k);
      if (!op_is_unitary(kind) || op_num_qubits(kind) != 1 ||
          op_num_params(kind) != 0)
        continue;
      t.angles[k] = zyz_decompose(op_matrix(kind));
      t.fixed[k] = true;
    }
    return t;
  }();
  const auto k = static_cast<std::size_t>(kind);
  if (k < kKinds && table.fixed[k] && params.empty()) return table.angles[k];
  return zyz_decompose(op_matrix(kind, params));
}

}  // namespace detail

}  // namespace qtc::transpiler
