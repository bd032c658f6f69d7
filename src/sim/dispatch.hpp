#pragma once
// Automatic engine dispatch: pick the cheapest simulation technique a
// circuit admits, the way Aer picks a method. The paper presents three
// simulator flavours — the array (statevector) baseline, the
// Aaronson-Gottesman stabilizer tableau and the JKU decision-diagram
// engine — each unbeatable on its own turf: Clifford-only circuits run in
// polynomial time on the tableau, structurally-regular circuits stay
// compact as DDs, and everything else belongs on the fused statevector
// kernels. This module holds the *analysis* (circuit profile + decision
// tree); the exec layer owns actually invoking the chosen engine, so
// qtc_sim never depends on qtc_dd.
//
// Knob: QTC_DISPATCH (on by default; "0"/"off"/"false"/"no" pins everything
// to the statevector engine). set_dispatch_enabled overrides the env. An
// explicit per-call engine request always wins over the automatic choice.

#include <cstdint>

#include "core/circuit.hpp"

namespace qtc::sim {

/// Simulation technique an execution can run on. `Auto` asks the dispatcher
/// to choose; the others force a specific engine.
enum class Engine {
  Auto,
  Statevector,      // fused array kernels (trajectory engine when noisy)
  Stabilizer,       // Aaronson-Gottesman tableau, Clifford set only
  DecisionDiagram,  // DD package, final-layer measurements only
};

const char* engine_name(Engine e);

/// Effective on/off: programmatic override wins over QTC_DISPATCH, which
/// wins over the default (on).
bool dispatch_enabled();
/// Force dispatch on (1) / off (0); -1 restores the env/default behavior.
void set_dispatch_enabled(int enabled);

/// Structural facts the decision tree consumes, in one pass over the ops.
struct CircuitProfile {
  int num_qubits = 0;
  int unitary_gates = 0;
  int entangling_gates = 0;  // unitary gates on >= 2 qubits
  bool clifford_only = true;  // every unitary gate in the stabilizer set
  bool has_reset = false;
  bool has_conditionals = false;
  bool has_measurements = false;
  /// True when no gate or measurement acts on a wire after that wire has
  /// been measured: sim::MeasureLast (sim/result.hpp).
  bool measurements_final = true;

  /// The circuit has a final measurement layer (sim::final_layer), the
  /// contract of dd::DDSimulator: measure-last wires, no reset/conditionals.
  bool dd_compatible() const {
    return measurements_final && !has_reset && !has_conditionals;
  }
};

CircuitProfile profile_circuit(const QuantumCircuit& circuit);

/// The dispatcher's verdict: which engine, and the reason (recorded in
/// ExecuteResult metadata so runs are auditable).
struct DispatchDecision {
  Engine engine = Engine::Statevector;
  const char* reason = "";
};

/// Decision tree over a noiseless circuit (callers must pin noisy runs to
/// the statevector/trajectory engine before asking — neither the tableau
/// nor the DD package can apply Kraus channels):
///   1. Clifford-only gate set -> Stabilizer (polynomial time, any size).
///   2. DD-compatible and structured (entangling gates <= 2n, i.e. sparse
///      enough that the DD plausibly stays compact) or too large for the
///      array engine (n > 26) -> DecisionDiagram.
///   3. Otherwise -> Statevector.
DispatchDecision choose_engine(const CircuitProfile& profile);
DispatchDecision choose_engine(const QuantumCircuit& circuit);

// --- engine-use counters (observability + tests) ----------------------------
// The exec layer notes which engine actually ran each job; tests assert
// routing end-to-end (e.g. a 100-qubit GHZ must bump the Stabilizer counter)
// without reaching into engine internals.

void note_engine_run(Engine e);
std::uint64_t engine_runs(Engine e);
void reset_engine_run_counters();

}  // namespace qtc::sim
