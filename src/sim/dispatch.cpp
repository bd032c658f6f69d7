#include "sim/dispatch.hpp"

#include <array>
#include <atomic>

#include "core/gates.hpp"
#include "core/knobs.hpp"
#include "sim/result.hpp"
#include "sim/stabilizer.hpp"

namespace qtc::sim {

namespace {

// The Clifford predicate is sim::is_clifford_op (stabilizer.hpp) — the same
// source of truth the tableau engine itself checks against, so a new
// Clifford gate can't silently diverge the dispatcher's profile from what
// the engine accepts.

// One counter slot per Engine value (Auto never runs, but indexing by the
// enum keeps the bookkeeping trivial).
constexpr int kNumEngines = 4;
std::array<std::atomic<std::uint64_t>, kNumEngines>& counters() {
  static std::array<std::atomic<std::uint64_t>, kNumEngines> c{};
  return c;
}

}  // namespace

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::Auto:
      return "auto";
    case Engine::Statevector:
      return "statevector";
    case Engine::Stabilizer:
      return "stabilizer";
    case Engine::DecisionDiagram:
      return "decision_diagram";
  }
  return "statevector";
}

bool dispatch_enabled() { return knobs::flag(knobs::Knob::Dispatch); }

void set_dispatch_enabled(int enabled) {
  if (enabled < 0)
    knobs::clear(knobs::Knob::Dispatch);
  else
    knobs::set(knobs::Knob::Dispatch, enabled);
}

CircuitProfile profile_circuit(const QuantumCircuit& circuit) {
  CircuitProfile p;
  p.num_qubits = circuit.num_qubits();
  MeasureLast rule(circuit.num_qubits());
  for (const Operation& op : circuit.ops()) {
    if (op.conditioned()) p.has_conditionals = true;
    if (rule.visit(op) >= 0) p.measurements_final = false;
    switch (op.kind) {
      case OpKind::Barrier:
        continue;  // no wire interaction; never blocks any engine
      case OpKind::Measure:
        p.has_measurements = true;
        continue;
      case OpKind::Reset:
        p.has_reset = true;
        break;
      default:
        break;
    }
    if (op_is_unitary(op.kind)) {
      ++p.unitary_gates;
      if (op.qubits.size() >= 2) ++p.entangling_gates;
      if (!is_clifford_op(op)) p.clifford_only = false;
    }
  }
  return p;
}

DispatchDecision choose_engine(const CircuitProfile& p) {
  if (p.clifford_only && p.unitary_gates > 0)
    return {Engine::Stabilizer, "clifford-only gate set"};
  if (p.dd_compatible()) {
    if (p.num_qubits > 26)
      return {Engine::DecisionDiagram, "beyond array-engine capacity"};
    if (p.entangling_gates <= 2 * p.num_qubits && p.num_qubits >= 8)
      return {Engine::DecisionDiagram, "sparse entanglement structure"};
  }
  return {Engine::Statevector, "general circuit"};
}

DispatchDecision choose_engine(const QuantumCircuit& circuit) {
  return choose_engine(profile_circuit(circuit));
}

void note_engine_run(Engine e) {
  counters()[static_cast<int>(e)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t engine_runs(Engine e) {
  return counters()[static_cast<int>(e)].load(std::memory_order_relaxed);
}

void reset_engine_run_counters() {
  for (auto& c : counters()) c.store(0, std::memory_order_relaxed);
}

}  // namespace qtc::sim
