#pragma once
// Shared plumbing for the mappers: operand remapping, SWAP insertion and
// input validation. Internal to the map module.

#include <stdexcept>
#include <utility>

#include "map/mapping.hpp"

namespace qtc::map::detail {

/// Bumps the process-wide mapper_run_count(); every Mapper::run calls this
/// exactly once, whatever its trial count.
void note_mapper_run();

inline bool is_two_qubit_gate(const Operation& op) {
  return op.kind != OpKind::Barrier && op_is_unitary(op.kind) &&
         op.qubits.size() == 2;
}

inline void validate(const QuantumCircuit& circuit,
                     const arch::CouplingMap& coupling) {
  if (circuit.num_qubits() > coupling.num_qubits())
    throw std::invalid_argument("mapper: circuit larger than device");
  if (!coupling.is_connected())
    throw std::invalid_argument("mapper: coupling graph is disconnected");
  for (const auto& op : circuit.ops())
    if (op.kind != OpKind::Barrier && op.qubits.size() > 2)
      throw std::invalid_argument(
          "mapper: 3+ qubit gate; run DecomposeMultiQubit first");
}

/// Streams rewritten operations into a physical-qubit circuit while the
/// layout evolves under inserted SWAPs. Records, per emitted op, the index
/// of the source op it remaps (-1 for inserted SWAPs) so routings can be
/// replayed onto same-structure circuits (see transpiler::TranspileCache).
struct RoutingContext {
  RoutingContext(const QuantumCircuit& logical,
                 const arch::CouplingMap& coupling)
      : RoutingContext(
            logical, coupling,
            Layout::trivial(logical.num_qubits(), coupling.num_qubits())) {}

  RoutingContext(const QuantumCircuit& logical,
                 const arch::CouplingMap& coupling, Layout start)
      : coupling_map(coupling),
        out(logical.empty_like(coupling.num_qubits())),
        layout(std::move(start)) {}

  void emit_remapped(const Operation& op, int source_idx) {
    Operation moved = op;
    for (auto& q : moved.qubits) q = layout.l2p[q];
    out.append(std::move(moved));
    source_index.push_back(source_idx);
  }

  void emit_swap(int p1, int p2) {
    if (!coupling_map.connected(p1, p2))
      throw std::logic_error("mapper: swap on uncoupled pair");
    Operation sw;
    sw.kind = OpKind::SWAP;
    sw.qubits = {p1, p2};
    out.append(std::move(sw));
    source_index.push_back(-1);
    layout.swap_physical(p1, p2);
    ++swaps;
  }

  MappingResult finish(Layout initial) && {
    MappingResult result;
    result.circuit = std::move(out);
    result.initial = std::move(initial);
    result.final_layout = layout;
    result.swaps_inserted = swaps;
    result.source_index = std::move(source_index);
    return result;
  }

  const arch::CouplingMap& coupling_map;
  QuantumCircuit out;
  Layout layout;
  std::vector<int> source_index;
  int swaps = 0;
};

}  // namespace qtc::map::detail
