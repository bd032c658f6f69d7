#include "dd/simulator.hpp"

#include <stdexcept>

namespace qtc::dd {

namespace {

/// The final state of a circuit already checked for a final layer: every
/// op other than a barrier or a measurement is an unconditioned gate.
DDSimulator::StateHandle evolve(const QuantumCircuit& circuit) {
  auto pkg = std::make_unique<Package>(circuit.num_qubits());
  // The evolving state is pinned via a ref handle so the collector can
  // reclaim spent gate DDs and intermediate states mid-run.
  Package::VRef state = pkg->hold(pkg->make_zero_state());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || op.kind == OpKind::Measure) continue;
    const MEdge gate = pkg->make_gate(op_matrix(op.kind, op.params), op.qubits);
    state = pkg->hold(pkg->multiply(gate, state.edge()));
  }
  const VEdge final_state = state.edge();
  return {std::move(pkg), final_state, std::move(state)};
}

}  // namespace

DDSimulator::StateHandle DDSimulator::simulate(const QuantumCircuit& circuit) {
  sim::final_layer(circuit).require("dd::simulate");
  return evolve(circuit);
}

std::vector<cplx> DDSimulator::statevector(const QuantumCircuit& circuit) {
  auto handle = simulate(circuit);
  return handle.package->to_vector(handle.state);
}

DDRunResult DDSimulator::run(const QuantumCircuit& circuit, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  const sim::FinalLayer layer = sim::final_layer(circuit);
  layer.require("dd::run");
  auto handle = evolve(circuit);
  DDRunResult result;
  result.final_nodes = handle.package->node_count(handle.state);
  const auto& stats = handle.package->stats();
  result.allocated_nodes =
      stats.vector_nodes_allocated + stats.matrix_nodes_allocated;
  result.gc_runs = stats.gc_runs;
  result.freed_nodes = stats.nodes_freed;
  result.reused_nodes = stats.vector_nodes_reused + stats.matrix_nodes_reused;
  result.peak_live_nodes = stats.peak_live_nodes;
  result.compute_hits = stats.compute_hits;
  result.compute_evictions = stats.add_table.evictions +
                             stats.madd_table.evictions +
                             stats.mulv_table.evictions +
                             stats.mulm_table.evictions;
  // The per-node norm table is cached inside the package, so the O(nodes)
  // preprocessing is paid by the first shot, then each shot costs O(n).
  result.counts = sim::sample_final_layer(layer, seed_, shots, [&](Rng& rng) {
    return handle.package->sample(handle.state, rng);
  });
  return result;
}

DDSimulator::UnitaryHandle DDSimulator::unitary(const QuantumCircuit& circuit) {
  auto pkg = std::make_unique<Package>(circuit.num_qubits());
  Package::MRef u = pkg->hold(pkg->make_identity());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (!op_is_unitary(op.kind) || op.conditioned())
      throw std::invalid_argument("dd::unitary: circuit must be unitary");
    const MEdge gate = pkg->make_gate(op_matrix(op.kind, op.params), op.qubits);
    u = pkg->hold(pkg->multiply(gate, u.edge()));  // later gates from the left
  }
  const MEdge unitary = u.edge();
  return {std::move(pkg), unitary, std::move(u)};
}

}  // namespace qtc::dd
