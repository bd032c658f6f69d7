#include "transpiler/transpile.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "transpiler/commutative.hpp"
#include "transpiler/decompose.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/optimize.hpp"

namespace qtc::transpiler {

namespace detail {

bool in_router_basis(const QuantumCircuit& circuit) {
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (op.qubits.size() >= 2 && op.kind != OpKind::CX) return false;
  }
  return true;
}

QuantumCircuit lower_to_router_basis(const QuantumCircuit& circuit) {
  if (in_router_basis(circuit)) return circuit;
  return DecomposeMultiQubit().run(circuit);
}

std::unique_ptr<map::Mapper> make_mapper(const TranspileOptions& options,
                                         const arch::Backend& backend) {
  switch (options.mapper) {
    case MapperKind::Naive:
      return std::make_unique<map::NaiveMapper>();
    case MapperKind::AStar:
      return std::make_unique<map::AStarMapper>();
    case MapperKind::Sabre:
      break;
  }
  auto sabre = std::make_unique<map::SabreMapper>(20, 0.5, options.trials,
                                                  options.seed);
  if (options.fidelity == 1) sabre->with_fidelity(&backend);
  return sabre;
}

QuantumCircuit finish_pipeline(QuantumCircuit routed, bool had_swaps,
                               const arch::Backend& backend,
                               const TranspileOptions& options) {
  // One circuit moves through every pass; no pass copies an op it keeps.
  // Inserted SWAPs become CXs; when the mapper inserted none the routed
  // circuit is already in the {1q, CX} basis and the pass would be an
  // op-for-op identity, so skip it. Wrong-way CXs get the 4-H conjugation.
  QuantumCircuit current = std::move(routed);
  if (had_swaps) current = DecomposeMultiQubit().run(std::move(current));
  current = FixCxDirections(backend.coupling_map()).run(std::move(current));

  if (options.optimization_level >= 1)
    current = GateCancellation().run(std::move(current));
  if (options.optimization_level >= 2) {
    current = CommutativeCancellation().run(std::move(current));
    current = FuseSingleQubitGates().run(std::move(current));
    current = GateCancellation().run(std::move(current));
  }
  if (backend.basis() == arch::BasisSet::EcrRzSx) {
    // Directions are legal by now, so the direction-preserving CX -> ECR
    // rewrite lands every ECR on a native edge; the 1q tail then lowers to
    // {RZ, SX}, in the same sweep. to_u_basis is meaningless for these
    // devices and ignored.
    current = RewriteToEcrRzSxBasis().run(std::move(current));
    if (options.optimization_level >= 1)
      current = GateCancellation().run(std::move(current));
  } else if (options.to_u_basis) {
    current = RewriteToUBasis().run(std::move(current));
  }

  if (!satisfies_coupling(current, backend.coupling_map()))
    throw std::logic_error("transpile: produced an illegal circuit");
  return current;
}

TranspileResult finish_routing(map::MappingResult routing,
                               const arch::Backend& backend,
                               const TranspileOptions& options) {
  TranspileResult result;
  result.circuit =
      finish_pipeline(std::move(routing.circuit), routing.swaps_inserted > 0,
                      backend, options);
  result.initial_layout = std::move(routing.initial);
  result.final_layout = std::move(routing.final_layout);
  result.swaps_inserted = routing.swaps_inserted;
  result.mapper_trials = routing.trials_run;
  result.best_trial = routing.best_trial;
  return result;
}

TranspileOptions resolve_options(const TranspileOptions& options) {
  TranspileOptions resolved = options;
  if (resolved.trials <= 0) resolved.trials = map::default_map_trials();
  if (resolved.seed == map::kMapSeedFromEnv)
    resolved.seed = map::default_map_seed();
  if (resolved.fidelity < 0)
    resolved.fidelity = map::default_map_fidelity() ? 1 : 0;
  if (resolved.fidelity > 1) resolved.fidelity = 1;
  return resolved;
}

}  // namespace detail

TranspileResult transpile(const QuantumCircuit& circuit,
                          const arch::Backend& backend,
                          const TranspileOptions& options) {
  const TranspileOptions opts = detail::resolve_options(options);

  // 1. Bring everything down to {1q, CX} so the router sees only pairs.
  const QuantumCircuit lowered = detail::lower_to_router_basis(circuit);

  // 2. Layout + routing; 3-4. lower SWAPs, legalize directions, clean up.
  return detail::finish_routing(
      detail::make_mapper(opts, backend)->run(lowered, backend.coupling_map()),
      backend, opts);
}

}  // namespace qtc::transpiler
