#include "transpiler/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace qtc::transpiler {

namespace {

bool is_symmetric_kind(OpKind kind) {
  return kind == OpKind::SWAP || kind == OpKind::CZ || kind == OpKind::RZZ ||
         kind == OpKind::RXX || kind == OpKind::ISWAP;
}

bool same_operands(const Operation& a, const Operation& b) {
  if (a.qubits.size() != b.qubits.size()) return false;
  if (a.qubits == b.qubits) return true;
  if (is_symmetric_kind(a.kind) && a.kind == b.kind) {
    auto sa = a.qubits, sb = b.qubits;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    return sa == sb;
  }
  return false;
}

bool is_mergeable_rotation(OpKind kind) {
  switch (kind) {
    case OpKind::RX:
    case OpKind::RY:
    case OpKind::RZ:
    case OpKind::P:
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CRZ:
    case OpKind::CP:
    case OpKind::RZZ:
    case OpKind::RXX:
      return true;
    default:
      return false;
  }
}

bool cancellable(const Operation& op) {
  return op_is_unitary(op.kind) && op.kind != OpKind::ISWAP &&
         op.kind != OpKind::Barrier && !op.conditioned();
}

/// Per-round bookkeeping, kept across the rounds of one run so a fixed-point
/// loop allocates it once.
struct RoundState {
  std::vector<bool> dead;
  // last[q] = index of the latest surviving op touching qubit q so far.
  std::vector<int> last;
  // Predecessor links: a surviving op i owns links[link_at[i] + k], the
  // value last[qubits[k]] had just before i was pushed. A pair (j, i)
  // cancels only while j is last[q] on all its qubits, so every op pushed
  // after j on them is gone by then, j's links are still exact, and
  // restoring them pops j back off.
  std::vector<int> links;
  std::vector<std::size_t> link_at;
};

/// One simplification round in O(total arity); survivors are compacted in
/// place, in order. Returns true if anything changed.
bool cancel_round(std::vector<Operation>& ops, RoundState& s) {
  const std::size_t n = ops.size();
  std::vector<bool>& dead = s.dead;
  std::vector<int>& last = s.last;
  std::vector<int>& links = s.links;
  std::vector<std::size_t>& link_at = s.link_at;
  dead.assign(n, false);
  last.assign(last.size(), -1);
  links.clear();
  link_at.resize(n);
  bool changed = false;
  const auto push = [&](std::size_t i) {
    link_at[i] = links.size();
    for (Qubit q : ops[i].qubits) {
      links.push_back(last[q]);
      last[q] = static_cast<int>(i);
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Operation& op = ops[i];
    for (Qubit q : op.qubits)
      if (q >= static_cast<int>(last.size()))
        last.resize(q + 1, -1);
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind) ||
        op.conditioned()) {
      push(i);
      continue;
    }
    // The candidate predecessor: the single latest toucher of ALL operands.
    int j = -1;
    bool uniform = true;
    for (Qubit q : op.qubits) {
      if (j == -1) j = last[q];
      if (last[q] != j) uniform = false;
    }
    bool removed = false;
    if (uniform && j >= 0 && cancellable(ops[j]) && cancellable(op) &&
        same_operands(ops[j], op)) {
      Operation& prev = ops[j];
      if (prev.kind == op.kind && is_mergeable_rotation(op.kind) &&
          prev.qubits == op.qubits) {
        const double sum = prev.params[0] + op.params[0];
        if (std::abs(sum) < 1e-12) {
          dead[j] = dead[i] = true;
        } else {
          prev.params[0] = sum;
          dead[i] = true;
        }
        removed = true;
      } else if (detail::is_inverse_of(prev, op) &&
                 prev.qubits == op.qubits) {
        dead[j] = dead[i] = true;
        removed = true;
      } else if (is_symmetric_kind(op.kind) && prev.kind == op.kind &&
                 op_num_params(op.kind) == 0) {
        dead[j] = dead[i] = true;  // self-inverse symmetric pair
        removed = true;
      }
    }
    if (removed) {
      changed = true;
      // A merge leaves `last` as it is; a cancelled pair pops j back off.
      if (dead[j]) {
        const auto& qs = ops[j].qubits;
        for (std::size_t k = qs.size(); k-- > 0;)
          last[qs[k]] = links[link_at[j] + k];
      }
      continue;
    }
    push(i);
  }
  if (!changed) return false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    if (kept != i) ops[kept] = std::move(ops[i]);
    ++kept;
  }
  ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(kept), ops.end());
  return true;
}

}  // namespace

QuantumCircuit GateCancellation::run(QuantumCircuit circuit) const {
  std::vector<Operation> ops = std::move(circuit.ops());
  RoundState state;
  while (cancel_round(ops, state)) {
  }
  QuantumCircuit out = circuit.empty_like();
  out.append_all(std::move(ops));
  return out;
}

QuantumCircuit FuseSingleQubitGates::run(QuantumCircuit circuit) const {
  QuantumCircuit out = circuit.empty_like();
  struct Run {
    std::vector<Operation> ops;
    Matrix product = Matrix::identity(2);
  };
  std::vector<Run> runs(circuit.num_qubits());

  auto flush = [&](Qubit q) {
    Run& run = runs[q];
    if (run.ops.empty()) return;
    if (run.ops.size() == 1) {
      out.append(std::move(run.ops.front()));
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

  for (auto& op : circuit.ops()) {
    const bool fusable = op_is_unitary(op.kind) && op.qubits.size() == 1 &&
                         !op.conditioned();
    if (fusable) {
      Run& run = runs[op.qubits[0]];
      run.product = op_matrix(op.kind, op.params) * run.product;
      run.ops.push_back(std::move(op));
    } else {
      for (Qubit q : op.qubits) flush(q);
      if (op.conditioned())  // conditions read clbits: flush everything
        for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
      out.append(std::move(op));
    }
  }
  for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

namespace detail {

bool is_inverse_of(const Operation& prev, const Operation& op) {
  // Each parameter of op_inverse's result is compared as
  // !(|inverse - got| > 1e-12): a NaN difference counts as close, and every
  // pair is decided as the op_inverse-based oracle in
  // tests/reference_gate_cancellation.hpp decides it.
  const auto close = [](double inverse, double got) {
    return !(std::abs(inverse - got) > 1e-12);
  };
  const std::vector<double>& p = prev.params;
  const std::vector<double>& o = op.params;
  switch (prev.kind) {
    case OpKind::I:
    case OpKind::X:
    case OpKind::Y:
    case OpKind::Z:
    case OpKind::H:
    case OpKind::CX:
    case OpKind::CY:
    case OpKind::CZ:
    case OpKind::CH:
    case OpKind::SWAP:
    case OpKind::CCX:
    case OpKind::CSWAP:
    case OpKind::ECR:
      return op.kind == prev.kind && o.empty();
    case OpKind::S:
      return op.kind == OpKind::Sdg && o.empty();
    case OpKind::Sdg:
      return op.kind == OpKind::S && o.empty();
    case OpKind::T:
      return op.kind == OpKind::Tdg && o.empty();
    case OpKind::Tdg:
      return op.kind == OpKind::T && o.empty();
    case OpKind::SX:
      return op.kind == OpKind::SXdg && o.empty();
    case OpKind::SXdg:
      return op.kind == OpKind::SX && o.empty();
    case OpKind::RX:
    case OpKind::RY:
    case OpKind::RZ:
    case OpKind::P:
    case OpKind::CRX:
    case OpKind::CRY:
    case OpKind::CRZ:
    case OpKind::CP:
    case OpKind::RZZ:
    case OpKind::RXX:
      return op.kind == prev.kind && p.size() == 1 && o.size() == 1 &&
             close(-p[0], o[0]);
    case OpKind::U2:
      // u2(phi, lambda)^-1 = U(-pi/2, -lambda, -phi)
      return op.kind == OpKind::U && p.size() == 2 && o.size() == 3 &&
             close(-PI / 2, o[0]) && close(-p[1], o[1]) &&
             close(-p[0], o[2]);
    case OpKind::U:
    case OpKind::CU:
      return op.kind == prev.kind && p.size() == 3 && o.size() == 3 &&
             close(-p[0], o[0]) && close(-p[2], o[1]) && close(-p[1], o[2]);
    case OpKind::ISWAP:
    case OpKind::Measure:
    case OpKind::Reset:
    case OpKind::Barrier:
      return false;
  }
  return false;
}

}  // namespace detail

}  // namespace qtc::transpiler
