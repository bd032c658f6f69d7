#include "dd/simulator.hpp"

#include <stdexcept>
#include <string>

namespace qtc::dd {

namespace {

/// Enforce the measure-last contract: once a wire is measured, nothing else
/// may act on it. The old behavior — silently skipping mid-circuit measures
/// — returned confidently wrong counts for measure-then-gate circuits.
void require_measure_last(const QuantumCircuit& circuit, const char* api) {
  std::vector<char> measured(circuit.num_qubits(), 0);
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (op.kind == OpKind::Measure) {
      const int q = op.qubits[0];
      if (measured[q])
        throw std::invalid_argument(
            std::string(api) + ": qubit " + std::to_string(q) +
            " is measured twice; measurements must form a single final "
            "layer (measure-last only)");
      measured[q] = 1;
      continue;
    }
    for (int q : op.qubits)
      if (measured[q])
        throw std::invalid_argument(
            std::string(api) + ": mid-circuit measurement — qubit " +
            std::to_string(q) +
            " is used after being measured; the DD engine supports "
            "measure-last circuits only");
  }
}

}  // namespace

DDSimulator::StateHandle DDSimulator::simulate(const QuantumCircuit& circuit) {
  require_measure_last(circuit, "dd::simulate");
  auto pkg = std::make_unique<Package>(circuit.num_qubits());
  // The evolving state is pinned via a ref handle so the collector can
  // reclaim spent gate DDs and intermediate states mid-run.
  Package::VRef state = pkg->hold(pkg->make_zero_state());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || op.kind == OpKind::Measure) continue;
    if (!op_is_unitary(op.kind) || op.conditioned())
      throw std::invalid_argument(
          "dd::simulate: only unitary, unconditioned circuits");
    const MEdge gate = pkg->make_gate(op_matrix(op.kind, op.params), op.qubits);
    state = pkg->hold(pkg->multiply(gate, state.edge()));
  }
  const VEdge final_state = state.edge();
  return {std::move(pkg), final_state, std::move(state)};
}

std::vector<cplx> DDSimulator::statevector(const QuantumCircuit& circuit) {
  auto handle = simulate(circuit);
  return handle.package->to_vector(handle.state);
}

DDRunResult DDSimulator::run(const QuantumCircuit& circuit, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  require_measure_last(circuit, "dd::run");
  // Collect the measurement layer; everything else must be unitary.
  std::vector<std::pair<int, int>> qubit_to_clbit;
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Measure)
      qubit_to_clbit.emplace_back(op.qubits[0], op.clbits[0]);
    else if (op.kind == OpKind::Reset || op.conditioned())
      throw std::invalid_argument(
          "dd::run: reset/conditioned circuits are not supported");
  }
  auto handle = simulate(circuit);
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
  if (qubit_to_clbit.empty()) {
    result.counts.shots = shots;
    return result;
  }
  // The per-node norm table is cached inside the package, so the O(nodes)
  // preprocessing is paid once here, then each shot costs O(n).
  const int ncl = circuit.num_clbits();
  for (int s = 0; s < shots; ++s) {
    const std::uint64_t basis = handle.package->sample(handle.state, rng_);
    result.counts.record(sim::measured_key(basis, qubit_to_clbit, ncl));
  }
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
