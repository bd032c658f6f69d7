#include "exec/execute.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "dd/simulator.hpp"
#include "noise/trajectory.hpp"
#include "sim/stabilizer.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::exec {

ExecuteResult execute(const QuantumCircuit& circuit,
                      const arch::Backend& backend,
                      const ExecuteOptions& options) {
  // Validate up front so a malformed request costs a structured error, not
  // a transpile followed by a failure (or UB) deep in the shot loop — a bad
  // tenant submission must never take down a service worker.
  if (options.shots < 1)
    throw std::invalid_argument("execute: shots must be >= 1 (got " +
                                std::to_string(options.shots) + ")");
  if (circuit.num_qubits() > backend.num_qubits())
    throw std::invalid_argument("execute: circuit does not fit the backend");
  ExecuteResult result;
  if (options.transpile) {
    transpiler::TranspileResult compiled =
        options.use_transpile_cache
            ? transpiler::transpile_cached(circuit, backend,
                                           options.transpile_options)
            : transpiler::transpile(circuit, backend,
                                    options.transpile_options);
    result.compiled = std::move(compiled.circuit);
    result.initial_layout = std::move(compiled.initial_layout);
    result.final_layout = std::move(compiled.final_layout);
    result.swaps_inserted = compiled.swaps_inserted;
    result.transpile_cache_hit = compiled.cache_hit;
    result.mapper_trials = compiled.mapper_trials;
  } else {
    if (!transpiler::satisfies_coupling(circuit, backend.coupling_map()))
      throw std::invalid_argument(
          "execute: untranspiled circuit violates the coupling map");
    result.compiled = circuit;
    result.initial_layout =
        map::Layout::trivial(circuit.num_qubits(), backend.num_qubits());
    result.final_layout = result.initial_layout;
  }
  // The caller's model is used in place; otherwise the backend's memoized
  // model is copied out, which shares its channels (no matrix copies).
  std::optional<noise::NoiseModel> derived;
  if (!options.noise_model) derived = noise::from_backend(backend);
  const noise::NoiseModel& model =
      options.noise_model ? *options.noise_model : *derived;
  // Engine selection: explicit request wins; otherwise the dispatcher picks
  // from the compiled circuit's structure. Noise pins the choice to the
  // trajectory engine — the tableau and DD engines cannot apply Kraus
  // channels (an explicit noisy request for one is a contract violation).
  const bool noisy = model.has_noise();
  if (options.engine != sim::Engine::Auto) {
    if (noisy && options.engine != sim::Engine::Statevector)
      throw std::invalid_argument(
          std::string("execute: engine '") +
          sim::engine_name(options.engine) +
          "' cannot apply a noise model (only statevector/trajectory can)");
    result.engine = options.engine;
    result.dispatch_reason = "explicit override";
  } else if (noisy) {
    result.engine = sim::Engine::Statevector;
    result.dispatch_reason = "noise model active";
  } else if (!sim::dispatch_enabled()) {
    result.engine = sim::Engine::Statevector;
    result.dispatch_reason = "dispatch disabled";
  } else {
    const sim::DispatchDecision decision = sim::choose_engine(result.compiled);
    result.engine = decision.engine;
    result.dispatch_reason = decision.reason;
  }
  switch (result.engine) {
    case sim::Engine::Stabilizer: {
      sim::StabilizerSimulator tableau(options.seed);
      result.counts = tableau.run(result.compiled, options.shots);
      break;
    }
    case sim::Engine::DecisionDiagram: {
      dd::DDSimulator diagrams(options.seed);
      result.counts = diagrams.run(result.compiled, options.shots).counts;
      break;
    }
    default: {
      noise::TrajectorySimulator device(options.seed);
      result.counts = device.run(result.compiled, model, options.shots);
      break;
    }
  }
  sim::note_engine_run(result.engine);
  return result;
}

}  // namespace qtc::exec

namespace qtc::arch {

// Out-of-line so qtc_arch stays below the noise/transpiler layers in the
// dependency order; linking qtc_exec provides this symbol.
sim::Counts Backend::run(const QuantumCircuit& circuit,
                         const RunOptions& options) const {
  exec::ExecuteOptions opts;
  opts.shots = options.shots;
  opts.seed = options.seed;
  opts.transpile = options.transpile;
  return exec::execute(circuit, *this, opts).counts;
}

}  // namespace qtc::arch
