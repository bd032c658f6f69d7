#include "transpiler/commutative.hpp"

#include <cmath>
#include <optional>
#include <utility>

namespace qtc::transpiler {

namespace {

/// Z-axis angle of a diagonal 1q gate (as a P-gate angle), if it is one.
std::optional<double> diagonal_angle(const Operation& op) {
  switch (op.kind) {
    case OpKind::Z:
      return PI;
    case OpKind::S:
      return PI / 2;
    case OpKind::Sdg:
      return -PI / 2;
    case OpKind::T:
      return PI / 4;
    case OpKind::Tdg:
      return -PI / 4;
    case OpKind::P:
    case OpKind::RZ:
      return op.params[0];
    default:
      return std::nullopt;
  }
}

/// X-axis angle (as an RX angle), if the gate is an X rotation up to phase.
std::optional<double> x_axis_angle(const Operation& op) {
  switch (op.kind) {
    case OpKind::X:
      return PI;
    case OpKind::SX:
      return PI / 2;
    case OpKind::SXdg:
      return -PI / 2;
    case OpKind::RX:
      return op.params[0];
    default:
      return std::nullopt;
  }
}

double wrap_2pi(double angle) {
  angle = std::fmod(angle, 2 * PI);
  if (angle > PI) angle -= 2 * PI;
  if (angle < -PI) angle += 2 * PI;
  return angle;
}

}  // namespace

QuantumCircuit CommutativeCancellation::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
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

  for (auto& op : circuit.ops()) {
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
      out.append(std::move(op));
      continue;
    }
    if (plain && op.kind == OpKind::CX) {
      // Z runs commute through the control, X runs through the target.
      if (runs[op.qubits[0]].axis == Axis::X) flush(op.qubits[0]);
      if (runs[op.qubits[1]].axis == Axis::Z) flush(op.qubits[1]);
      out.append(std::move(op));
      continue;
    }
    if (plain && (op.kind == OpKind::CZ || op.kind == OpKind::CP ||
                  op.kind == OpKind::RZZ)) {
      // Fully diagonal two-qubit gates commute with Z runs on both operands.
      for (Qubit q : op.qubits)
        if (runs[q].axis == Axis::X) flush(q);
      out.append(std::move(op));
      continue;
    }
    // Everything else is a barrier for its qubits (everything, when the op
    // is classically conditioned).
    if (op.conditioned()) {
      for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
    } else {
      for (Qubit q : op.qubits) flush(q);
    }
    out.append(std::move(op));
  }
  for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

}  // namespace qtc::transpiler
