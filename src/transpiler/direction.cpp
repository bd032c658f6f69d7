#include "transpiler/direction.hpp"

#include <stdexcept>
#include <utility>

namespace qtc::transpiler {

QuantumCircuit FixCxDirections::run(QuantumCircuit circuit) const {
  QuantumCircuit out(circuit.num_qubits(), circuit.num_clbits());
  for (auto& op : circuit.ops()) {
    if (op.kind != OpKind::CX) {
      if (op_is_unitary(op.kind) && op.qubits.size() >= 2 &&
          op.kind != OpKind::Barrier)
        throw std::invalid_argument(
            "fix-cx-directions: multi-qubit gate other than CX; decompose "
            "first");
      out.append(std::move(op));
      continue;
    }
    const Qubit control = op.qubits[0], target = op.qubits[1];
    if (coupling_.has_edge(control, target)) {
      out.append(std::move(op));
      continue;
    }
    if (!coupling_.has_edge(target, control))
      throw std::invalid_argument(
          "fix-cx-directions: CX on uncoupled pair; route first");
    Operation h1, h2;
    h1.kind = OpKind::H;
    h1.qubits = {control};
    h1.cond_reg = op.cond_reg;
    h1.cond_val = op.cond_val;
    h2 = h1;
    h2.qubits = {target};
    std::swap(op.qubits[0], op.qubits[1]);
    out.append(h1).append(h2).append(std::move(op)).append(std::move(h1))
        .append(std::move(h2));
  }
  return out;
}

bool satisfies_coupling(const QuantumCircuit& circuit,
                        const arch::CouplingMap& coupling) {
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind)) continue;
    if (op.qubits.size() == 1) continue;
    if ((op.kind != OpKind::CX && op.kind != OpKind::ECR) ||
        op.qubits.size() != 2)
      return false;
    if (!coupling.has_edge(op.qubits[0], op.qubits[1])) return false;
  }
  return true;
}

bool satisfies_connectivity(const QuantumCircuit& circuit,
                            const arch::CouplingMap& coupling) {
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind)) continue;
    if (op.qubits.size() == 1) continue;
    if (op.qubits.size() > 2) return false;
    if (!coupling.connected(op.qubits[0], op.qubits[1])) return false;
  }
  return true;
}

}  // namespace qtc::transpiler
