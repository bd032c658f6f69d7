#include "replica.hpp"

#include <stdexcept>
#include <string>

#include "dd/simulator.hpp"
#include "noise/trajectory.hpp"
#include "sim/stabilizer.hpp"
#include "transpiler/transpile_cache.hpp"

namespace perfbench {

using namespace qtc;

// Mirrors src/exec/execute.cpp stage for stage; keep the two in step.
exec::ExecuteResult traced_execute(const QuantumCircuit& circuit,
                                   const arch::Backend& backend,
                                   const exec::ExecuteOptions& options,
                                   Tracer& tracer, std::uint64_t job,
                                   PlanStats& plan_stats) {
  ScopedSpan exec_span(tracer, "exec", job);
  if (options.shots < 1)
    throw std::invalid_argument("execute: shots must be >= 1 (got " +
                                std::to_string(options.shots) + ")");
  if (circuit.num_qubits() > backend.num_qubits())
    throw std::invalid_argument("execute: circuit does not fit the backend");
  if (!options.transpile)
    throw std::invalid_argument("traced_execute: transpile=false unsupported");
  exec::ExecuteResult result;
  {
    ScopedSpan span(tracer, "transpiler", job);
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
  }
  noise::NoiseModel model;
  if (options.noise_model) {
    model = *options.noise_model;
  } else {
    ScopedSpan span(tracer, "noise.model", job);
    model = noise::from_backend(backend);
  }
  const bool noisy = model.has_noise();
  if (options.engine != sim::Engine::Auto) {
    if (noisy && options.engine != sim::Engine::Statevector)
      throw std::invalid_argument("execute: engine cannot apply a noise model");
    result.engine = options.engine;
    result.dispatch_reason = "explicit override";
  } else if (noisy) {
    result.engine = sim::Engine::Statevector;
    result.dispatch_reason = "noise model active";
  } else if (!sim::dispatch_enabled()) {
    result.engine = sim::Engine::Statevector;
    result.dispatch_reason = "dispatch disabled";
  } else {
    ScopedSpan span(tracer, "sim.dispatch", job);
    const sim::CircuitProfile profile = sim::profile_circuit(result.compiled);
    const sim::DispatchDecision decision = sim::choose_engine(profile);
    result.engine = decision.engine;
    result.dispatch_reason = decision.reason;
  }
  plan_stats = PlanStats{};
  switch (result.engine) {
    case sim::Engine::Stabilizer: {
      ScopedSpan span(tracer, "sim.stabilizer", job);
      sim::StabilizerSimulator tableau(options.seed);
      result.counts = tableau.run(result.compiled, options.shots);
      break;
    }
    case sim::Engine::DecisionDiagram: {
      ScopedSpan span(tracer, "dd.run", job);
      dd::DDSimulator diagrams(options.seed);
      result.counts = diagrams.run(result.compiled, options.shots).counts;
      break;
    }
    default: {
      {
        ScopedSpan span(tracer, "noise.plan", job);
        const noise::TrajectoryPlan plan =
            noise::compile_trajectory_plan(result.compiled, model);
        plan_stats.state_sweeps = plan.state_sweeps;
        plan_stats.noisy_gates = plan.noisy_gates;
      }
      ScopedSpan span(tracer, "noise.run", job);
      noise::TrajectorySimulator device(options.seed);
      result.counts = device.run(result.compiled, model, options.shots);
      break;
    }
  }
  sim::note_engine_run(result.engine);
  return result;
}

}  // namespace perfbench
