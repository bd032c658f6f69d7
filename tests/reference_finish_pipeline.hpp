#pragma once
// Test-only oracle for transpiler::detail::finish_pipeline: the post-routing
// pipeline as it was when every pass took `const QuantumCircuit&` and built
// a fresh circuit by copying each op it kept. Cancellation is the
// rescanning oracle of reference_gate_cancellation.hpp, which pairs
// inverses through op_inverse; the 1q rewrites run
// zyz_decompose(op_matrix(...)) for every gate. The library moves one
// circuit through its passes and must emit the same circuit op for op.

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "core/gates.hpp"
#include "core/matrix.hpp"
#include "reference_gate_cancellation.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::testing {

namespace reference_pipeline {

inline Operation make(OpKind kind, std::vector<Qubit> qubits,
                      std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

/// DecomposeMultiQubit restricted to what reaches finish_pipeline: the
/// router emits SWAP as its only gate outside {1q, CX}, so any other
/// multi-qubit gate here is a test bug.
inline QuantumCircuit decompose_swaps(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::SWAP) {
      const auto q = op.qubits;
      for (Operation piece : {make(OpKind::CX, {q[0], q[1]}),
                              make(OpKind::CX, {q[1], q[0]}),
                              make(OpKind::CX, {q[0], q[1]})}) {
        piece.cond_reg = op.cond_reg;
        piece.cond_val = op.cond_val;
        out.append(std::move(piece));
      }
      continue;
    }
    if (op_is_unitary(op.kind) && op.qubits.size() >= 2 &&
        op.kind != OpKind::CX)
      throw std::logic_error("reference pipeline: unexpected " +
                             std::string(op_name(op.kind)));
    out.append(op);
  }
  return out;
}

inline QuantumCircuit fix_cx_directions(const QuantumCircuit& circuit,
                                        const arch::CouplingMap& coupling) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (op.kind != OpKind::CX) {
      if (op_is_unitary(op.kind) && op.qubits.size() >= 2 &&
          op.kind != OpKind::Barrier)
        throw std::invalid_argument(
            "fix-cx-directions: multi-qubit gate other than CX; decompose "
            "first");
      out.append(op);
      continue;
    }
    const Qubit control = op.qubits[0], target = op.qubits[1];
    if (coupling.has_edge(control, target)) {
      out.append(op);
      continue;
    }
    if (!coupling.has_edge(target, control))
      throw std::invalid_argument(
          "fix-cx-directions: CX on uncoupled pair; route first");
    Operation h1, h2, flipped;
    h1.kind = OpKind::H;
    h1.qubits = {control};
    h1.cond_reg = op.cond_reg;
    h1.cond_val = op.cond_val;
    h2 = h1;
    h2.qubits = {target};
    flipped = op;
    flipped.qubits = {target, control};
    out.append(h1).append(h2).append(flipped).append(h1).append(h2);
  }
  return out;
}

inline std::optional<double> diagonal_angle(const Operation& op) {
  switch (op.kind) {
    case OpKind::Z: return PI;
    case OpKind::S: return PI / 2;
    case OpKind::Sdg: return -PI / 2;
    case OpKind::T: return PI / 4;
    case OpKind::Tdg: return -PI / 4;
    case OpKind::P:
    case OpKind::RZ: return op.params[0];
    default: return std::nullopt;
  }
}

inline std::optional<double> x_axis_angle(const Operation& op) {
  switch (op.kind) {
    case OpKind::X: return PI;
    case OpKind::SX: return PI / 2;
    case OpKind::SXdg: return -PI / 2;
    case OpKind::RX: return op.params[0];
    default: return std::nullopt;
  }
}

inline double wrap_2pi(double angle) {
  angle = std::fmod(angle, 2 * PI);
  if (angle > PI) angle -= 2 * PI;
  if (angle < -PI) angle += 2 * PI;
  return angle;
}

inline QuantumCircuit commutative_cancellation(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  enum class Axis { None, Z, X };
  struct Run {
    Axis axis = Axis::None;
    double angle = 0;
  };
  std::vector<Run> runs(circuit.num_qubits());
  auto flush = [&](Qubit q) {
    Run& run = runs[q];
    if (run.axis != Axis::None) {
      const double angle = wrap_2pi(run.angle);
      if (std::abs(angle) > 1e-12) {
        Operation op;
        op.kind = run.axis == Axis::Z ? OpKind::P : OpKind::RX;
        op.qubits = {q};
        op.params = {angle};
        out.append(std::move(op));
      }
    }
    run = Run{};
  };
  auto absorb = [&](Qubit q, Axis axis, double angle) {
    Run& run = runs[q];
    if (run.axis != Axis::None && run.axis != axis) flush(q);
    runs[q].axis = axis;
    runs[q].angle += angle;
  };
  for (const auto& op : circuit.ops()) {
    const bool plain = op_is_unitary(op.kind) && !op.conditioned();
    if (plain && op.qubits.size() == 1) {
      if (const auto z = diagonal_angle(op)) {
        absorb(op.qubits[0], Axis::Z, *z);
        continue;
      }
      if (const auto x = x_axis_angle(op)) {
        absorb(op.qubits[0], Axis::X, *x);
        continue;
      }
      flush(op.qubits[0]);
      out.append(op);
      continue;
    }
    if (plain && op.kind == OpKind::CX) {
      if (runs[op.qubits[0]].axis == Axis::X) flush(op.qubits[0]);
      if (runs[op.qubits[1]].axis == Axis::Z) flush(op.qubits[1]);
      out.append(op);
      continue;
    }
    if (plain && (op.kind == OpKind::CZ || op.kind == OpKind::CP ||
                  op.kind == OpKind::RZZ)) {
      for (Qubit q : op.qubits)
        if (runs[q].axis == Axis::X) flush(q);
      out.append(op);
      continue;
    }
    if (op.conditioned()) {
      for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
    } else {
      for (Qubit q : op.qubits) flush(q);
    }
    out.append(op);
  }
  for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

inline QuantumCircuit fuse_single_qubit_gates(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  struct Run {
    std::vector<Operation> ops;
    Matrix product = Matrix::identity(2);
  };
  std::vector<Run> runs(circuit.num_qubits());
  auto flush = [&](Qubit q) {
    Run& run = runs[q];
    if (run.ops.empty()) return;
    if (run.ops.size() == 1) {
      out.append(run.ops.front());
    } else if (!run.product.equal_up_to_phase(Matrix::identity(2), 1e-12)) {
      const EulerAngles e = zyz_decompose(run.product);
      Operation fused;
      fused.kind = OpKind::U;
      fused.qubits = {q};
      fused.params = {e.theta, e.phi, e.lambda};
      out.append(std::move(fused));
    }
    run = Run{};
  };
  for (const auto& op : circuit.ops()) {
    const bool fusable = op_is_unitary(op.kind) && op.qubits.size() == 1 &&
                         !op.conditioned();
    if (fusable) {
      Run& run = runs[op.qubits[0]];
      run.product = op_matrix(op.kind, op.params) * run.product;
      run.ops.push_back(op);
    } else {
      for (Qubit q : op.qubits) flush(q);
      if (op.conditioned())
        for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
      out.append(op);
    }
  }
  for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

inline QuantumCircuit rewrite_u_basis(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
        op.kind == OpKind::U || op.kind == OpKind::P || op.kind == OpKind::U2 ||
        op.kind == OpKind::I) {
      out.append(op);
      continue;
    }
    const EulerAngles e = zyz_decompose(op_matrix(op.kind, op.params));
    Operation u = op;
    u.kind = OpKind::U;
    u.params = {e.theta, e.phi, e.lambda};
    out.append(std::move(u));
  }
  return out;
}

inline QuantumCircuit rewrite_ecr_basis(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::CX) {
      std::vector<Operation> pieces;
      pieces.push_back(make(OpKind::X, {op.qubits[0]}));
      pieces.push_back(make(OpKind::ECR, {op.qubits[0], op.qubits[1]}));
      pieces.push_back(make(OpKind::S, {op.qubits[0]}));
      pieces.push_back(make(OpKind::SX, {op.qubits[1]}));
      for (auto& piece : pieces) {
        piece.cond_reg = op.cond_reg;
        piece.cond_val = op.cond_val;
        out.append(std::move(piece));
      }
      continue;
    }
    out.append(op);
  }
  return out;
}

inline QuantumCircuit rewrite_rzsx_basis(const QuantumCircuit& circuit) {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  auto push_rz = [&](double angle, Qubit q, const Operation& like) {
    angle = std::remainder(angle, 2 * PI);
    if (std::abs(angle) < 1e-12) return;
    Operation op;
    op.kind = OpKind::RZ;
    op.qubits = {q};
    op.params = {angle};
    op.cond_reg = like.cond_reg;
    op.cond_val = like.cond_val;
    out.append(std::move(op));
  };
  auto push_sx = [&](Qubit q, const Operation& like) {
    Operation op;
    op.kind = OpKind::SX;
    op.qubits = {q};
    op.cond_reg = like.cond_reg;
    op.cond_val = like.cond_val;
    out.append(std::move(op));
  };
  for (const auto& op : circuit.ops()) {
    if (!op_is_unitary(op.kind) || op.kind == OpKind::CX ||
        op.kind == OpKind::ECR || op.kind == OpKind::RZ ||
        op.kind == OpKind::SX || op.kind == OpKind::I) {
      out.append(op);
      continue;
    }
    const Qubit q = op.qubits[0];
    const EulerAngles e = zyz_decompose(op_matrix(op.kind, op.params));
    if (std::abs(std::remainder(e.theta, 2 * PI)) < 1e-12) {
      push_rz(e.phi + e.lambda, q, op);
      continue;
    }
    push_rz(e.lambda, q, op);
    push_sx(q, op);
    push_rz(e.theta + PI, q, op);
    push_sx(q, op);
    push_rz(e.phi + PI, q, op);
  }
  return out;
}

}  // namespace reference_pipeline

/// The copy-per-pass pipeline, pass for pass in finish_pipeline's order.
inline QuantumCircuit reference_finish_pipeline(
    const QuantumCircuit& routed, bool had_swaps, const arch::Backend& backend,
    const transpiler::TranspileOptions& options) {
  namespace rp = reference_pipeline;
  QuantumCircuit current = routed;
  if (had_swaps) current = rp::decompose_swaps(current);
  current = rp::fix_cx_directions(current, backend.coupling_map());
  if (options.optimization_level >= 1)
    current = reference_gate_cancellation(current);
  if (options.optimization_level >= 2) {
    current = rp::commutative_cancellation(current);
    current = rp::fuse_single_qubit_gates(current);
    current = reference_gate_cancellation(current);
  }
  if (backend.basis() == arch::BasisSet::EcrRzSx) {
    current = rp::rewrite_ecr_basis(current);
    current = rp::rewrite_rzsx_basis(current);
    if (options.optimization_level >= 1)
      current = reference_gate_cancellation(current);
  } else if (options.to_u_basis) {
    current = rp::rewrite_u_basis(current);
  }
  if (!transpiler::satisfies_coupling(current, backend.coupling_map()))
    throw std::logic_error("reference pipeline: illegal circuit");
  return current;
}

}  // namespace qtc::testing
