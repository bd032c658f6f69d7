#pragma once
// Test-only oracle for transpiler::GateCancellation: the pass as it was
// before it kept predecessor links. After every removal it rebuilds the
// per-qubit "latest surviving op" table by rescanning all earlier ops, so a
// round costs O(n x removals) but is easy to check by eye. The library pass
// must produce the same circuit op for op: same rounds, same merge order,
// same rotation sums.

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/circuit.hpp"
#include "core/gates.hpp"

namespace qtc::testing {

namespace reference_cancellation {

inline bool is_symmetric_kind(OpKind kind) {
  return kind == OpKind::SWAP || kind == OpKind::CZ || kind == OpKind::RZZ ||
         kind == OpKind::RXX || kind == OpKind::ISWAP;
}

inline bool same_operands(const Operation& a, const Operation& b) {
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

inline bool params_close(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > 1e-12) return false;
  return true;
}

inline bool is_mergeable_rotation(OpKind kind) {
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

inline bool cancellable(const Operation& op) {
  return op_is_unitary(op.kind) && op.kind != OpKind::ISWAP &&
         op.kind != OpKind::Barrier && !op.conditioned();
}

/// One simplification round. Returns true if anything changed.
inline bool cancel_round(std::vector<Operation>& ops) {
  const std::size_t n = ops.size();
  std::vector<bool> dead(n, false);
  // last[q] = index of the latest surviving op touching qubit q so far.
  std::vector<int> last;
  for (std::size_t i = 0; i < n; ++i) {
    const Operation& op = ops[i];
    for (Qubit q : op.qubits)
      if (q >= static_cast<int>(last.size())) last.resize(q + 1, -1);
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind) ||
        op.conditioned()) {
      for (Qubit q : op.qubits) last[q] = static_cast<int>(i);
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
    if (uniform && j >= 0 && !dead[j] && cancellable(ops[j]) &&
        cancellable(op) && same_operands(ops[j], op)) {
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
        const auto [inv_kind, inv_params] = op_inverse(prev.kind, prev.params);
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
      // Rebuild `last` by rescanning every surviving op up to i.
      std::fill(last.begin(), last.end(), -1);
      for (std::size_t k = 0; k <= i; ++k) {
        if (dead[k]) continue;
        for (Qubit q : ops[k].qubits) last[q] = static_cast<int>(k);
      }
      continue;
    }
    for (Qubit q : op.qubits) last[q] = static_cast<int>(i);
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

}  // namespace reference_cancellation

/// The rescanning pass, run to a fixed point like GateCancellation::run.
inline QuantumCircuit reference_gate_cancellation(
    const QuantumCircuit& circuit) {
  std::vector<Operation> ops = circuit.ops();
  while (reference_cancellation::cancel_round(ops)) {
  }
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (auto& op : ops) out.append(std::move(op));
  return out;
}

}  // namespace qtc::testing
