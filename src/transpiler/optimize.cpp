#include "transpiler/optimize.hpp"

#include <algorithm>
#include <cmath>

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

bool params_close(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > 1e-12) return false;
  return true;
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

/// One simplification round in O(total arity). Returns true if anything
/// changed.
bool cancel_round(std::vector<Operation>& ops) {
  const std::size_t n = ops.size();
  std::vector<bool> dead(n, false);
  // last[q] = index of the latest surviving op touching qubit q so far.
  std::vector<int> last;
  // Predecessor links: a surviving op i owns links[link_at[i] + k], the
  // value last[qubits[k]] had just before i was pushed. A pair (j, i)
  // cancels only while j is last[q] on all its qubits, so every op pushed
  // after j on them is gone by then, j's links are still exact, and
  // restoring them pops j back off.
  std::vector<int> links;
  std::vector<std::size_t> link_at(n);
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
      } else {
        const auto [inv_kind, inv_params] =
            op_inverse(prev.kind, prev.params);
        if (inv_kind == op.kind && params_close(inv_params, op.params) &&
            prev.qubits == op.qubits) {
          dead[j] = dead[i] = true;
          removed = true;
        } else if (is_symmetric_kind(op.kind) && prev.kind == op.kind &&
                   op_num_params(op.kind) == 0) {
          dead[j] = dead[i] = true;  // self-inverse symmetric pair
          removed = true;
        }
      }
    }
    if (removed) {
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
  if (std::none_of(dead.begin(), dead.end(), [](bool d) { return d; }))
    return false;
  std::vector<Operation> survivors;
  survivors.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!dead[i]) survivors.push_back(std::move(ops[i]));
  ops = std::move(survivors);
  return true;
}

}  // namespace

QuantumCircuit GateCancellation::run(const QuantumCircuit& circuit) const {
  std::vector<Operation> ops = circuit.ops();
  while (cancel_round(ops)) {
  }
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (auto& op : ops) out.append(std::move(op));
  return out;
}

QuantumCircuit FuseSingleQubitGates::run(const QuantumCircuit& circuit) const {
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
      if (op.conditioned())  // conditions read clbits: flush everything
        for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
      out.append(op);
    }
  }
  for (Qubit q = 0; q < circuit.num_qubits(); ++q) flush(q);
  return out;
}

}  // namespace qtc::transpiler
