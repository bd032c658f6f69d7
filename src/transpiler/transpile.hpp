#pragma once
// End-to-end compilation for a QX backend — the `compile(circ, ibmqx4)` step
// of the paper's Sec. IV: decompose to {U, CX}, place & route under the
// coupling map, legalize CNOT directions, and clean up.

#include <cstdint>

#include "arch/backend.hpp"
#include "map/mapping.hpp"
#include "transpiler/pass_manager.hpp"

namespace qtc::transpiler {

enum class MapperKind { Naive, Sabre, AStar };

struct TranspileOptions {
  MapperKind mapper = MapperKind::Sabre;
  /// 0 = no cleanup, 1 = gate cancellation, 2 = + 1q-gate fusion.
  int optimization_level = 1;
  /// Rewrite all 1q gates into the device-native U(theta, phi, lambda).
  bool to_u_basis = false;
  /// SABRE layout-portfolio width; 0 defers to QTC_MAP_TRIALS (default 4).
  int trials = 0;
  /// Portfolio base seed; kMapSeedFromEnv defers to QTC_MAP_SEED
  /// (default 0xC0FFEE). Fixed seed => bitwise-reproducible routing,
  /// independent of QTC_NUM_THREADS.
  std::uint64_t seed = map::kMapSeedFromEnv;
  /// Fidelity-aware SABRE: swap costs weighted by per-edge calibration
  /// error/duration, noise-adaptive trial seeding, winner by estimated
  /// success. -1 defers to QTC_MAP_FIDELITY (default off); 0 forces the
  /// calibration-blind legacy routing (bitwise-identical results); 1 forces
  /// fidelity-aware routing. Ignored by the Naive/AStar mappers.
  int fidelity = -1;
};

struct TranspileResult {
  QuantumCircuit circuit;  // over physical qubits, coupling-legal
  map::Layout initial_layout;
  map::Layout final_layout;
  int swaps_inserted = 0;
  /// Layout trials the mapper ran for this result (0 when the routing was
  /// served from a TranspileCache) and which trial won.
  int mapper_trials = 0;
  int best_trial = 0;
  /// Set when the result came out of a TranspileCache: `cache_hit` for any
  /// hit, `cache_exact` when even the parameters matched (no re-bind).
  bool cache_hit = false;
  bool cache_exact = false;
};

/// Compile `circuit` for `backend`. The result satisfies
/// transpiler::satisfies_coupling on the backend's coupling map.
TranspileResult transpile(const QuantumCircuit& circuit,
                          const arch::Backend& backend,
                          const TranspileOptions& options = {});

namespace detail {

/// True when every multi-qubit op is already a CX (or barrier), so
/// lower_to_router_basis would return the input unchanged. Kind-only.
bool in_router_basis(const QuantumCircuit& circuit);

/// Stage 1 of transpile(): lower to the router's {1q, CX} basis. Returns the
/// input unchanged (fast path) when in_router_basis holds. The lowering may
/// depend on parameter values (the controlled-unitary ABC network drops
/// rotations below 1e-12), so transpile() is a pure function of this
/// output, not of the input's structure.
QuantumCircuit lower_to_router_basis(const QuantumCircuit& circuit);

/// Stage 2 factory: the mapper selected by `options` (with the SABRE
/// portfolio's resolved trials/seed). `backend` supplies calibration when
/// the resolved options enable fidelity-aware routing; the returned mapper
/// holds a non-owning pointer to it, so the backend must outlive the mapper.
std::unique_ptr<map::Mapper> make_mapper(const TranspileOptions& options,
                                         const arch::Backend& backend);

/// Stages 3-4 of transpile(): lower inserted SWAPs (skipped when the mapper
/// inserted none), legalize CX directions, clean up, rewrite to the
/// backend's native basis (ECR/RZ/SX backends always; U basis on request),
/// and verify the result against the coupling map.
QuantumCircuit finish_pipeline(QuantumCircuit routed, bool had_swaps,
                               const arch::Backend& backend,
                               const TranspileOptions& options);

/// Stages 3-4 plus the bookkeeping: finish_pipeline on the routed circuit,
/// with the mapper's layouts, SWAP count and trial counts copied into the
/// result. transpile() and every TranspileCache path build results here.
TranspileResult finish_routing(map::MappingResult routing,
                               const arch::Backend& backend,
                               const TranspileOptions& options);

/// Copy of `options` with trials/seed resolved from the QTC_MAP_* knobs, so
/// cache keys and mapper construction agree on the effective values.
TranspileOptions resolve_options(const TranspileOptions& options);

}  // namespace detail

}  // namespace qtc::transpiler
