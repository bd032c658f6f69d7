#pragma once
// Qubit mapping (the paper's Sec. V-B): placing logical qubits onto physical
// ones and inserting SWAPs so every two-qubit gate acts on coupled qubits.
// Minimizing the inserted gates is NP-hard [11]; this module provides the
// straightforward mapper Qiskit shipped (Fig. 4a) and two improved
// heuristics in the spirit of [18] (SABRE) and [39] (layered A*).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/coupling_map.hpp"
#include "core/circuit.hpp"
#include "core/types.hpp"

namespace qtc::arch {
class Backend;  // arch/backend.hpp; only referenced by pointer here
}

namespace qtc::map {

/// Bidirectional logical<->physical qubit assignment. Physical qubits not
/// hosting a logical qubit map to -1.
struct Layout {
  std::vector<int> l2p;  // logical -> physical
  std::vector<int> p2l;  // physical -> logical or -1

  static Layout trivial(int num_logical, int num_physical);
  /// Exchange the logical occupants of two physical qubits.
  void swap_physical(int p1, int p2);
  int num_logical() const { return static_cast<int>(l2p.size()); }
  int num_physical() const { return static_cast<int>(p2l.size()); }

  bool operator==(const Layout&) const = default;
};

/// A routed circuit over physical qubits plus the layouts that relate it to
/// the logical circuit: logical qubit l starts at initial.l2p[l] and (after
/// the inserted SWAPs) ends at final.l2p[l].
struct MappingResult {
  QuantumCircuit circuit;
  Layout initial;
  Layout final_layout;
  int swaps_inserted = 0;
  /// Per routed op: the index of the input op it remaps, or -1 for an
  /// inserted SWAP. Lets a transpile cache replay this routing onto a
  /// same-structure circuit with different parameters (re-bind only).
  std::vector<int> source_index;
  /// Portfolio bookkeeping (SABRE): how many layout trials ran and which won.
  int trials_run = 1;
  int best_trial = 0;

  bool operator==(const MappingResult&) const = default;
};

/// Process-wide count of Mapper::run invocations (all mappers, one per call
/// whatever the trial count). Monotonic; tests diff it around a code path to
/// prove a transpile-cache hit performed zero mapper runs.
std::uint64_t mapper_run_count();

/// Portfolio defaults, resolved from the environment on each run:
/// QTC_MAP_TRIALS (default 4, clamped to [1, 256]) and QTC_MAP_SEED
/// (default 0xC0FFEE).
int default_map_trials();
std::uint64_t default_map_seed();
/// QTC_MAP_FIDELITY (default off): route with calibration-weighted costs.
bool default_map_fidelity();
/// Sentinel seed value meaning "resolve from QTC_MAP_SEED / default".
inline constexpr std::uint64_t kMapSeedFromEnv = ~std::uint64_t{0};

/// Calibration-derived cost model for fidelity-aware routing. Per-edge costs
/// blend log-infidelity (weight 0.75) and gate duration (0.25), normalized
/// so the median edge costs ~1 — commensurate with the hop counts the
/// calibration-blind router uses — and `dist` holds all-pairs shortest
/// paths under those weights (undirected: a coupler's cheaper orientation).
/// SabreMapper reads it through map::shared_fidelity_model, one immutable
/// instance per device.
struct FidelityModel {
  int num_physical = 0;
  std::vector<double> dist;       // n*n weighted all-pairs distances
  std::vector<double> edge_cost;  // indexed like CouplingMap::edges()
  double at(int a, int b) const {
    return dist[static_cast<std::size_t>(a) * num_physical + b];
  }
  /// Cost of executing a 2q gate (or SWAP leg) on coupled pair (a, b):
  /// the cheaper calibrated orientation. O(1) via the edge-index table.
  double pair_cost(const arch::CouplingMap& coupling, int a, int b) const;
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual std::string name() const = 0;
  /// Route `circuit` onto `coupling`. Requires every gate to act on at most
  /// two qubits (run DecomposeMultiQubit first) and the coupling graph to be
  /// connected with at least as many physical as logical qubits.
  virtual MappingResult run(const QuantumCircuit& circuit,
                            const arch::CouplingMap& coupling) const = 0;
};

/// Routes each offending gate along a shortest path with SWAPs, greedily and
/// with no lookahead: the baseline behaviour of the paper's Fig. 4a.
class NaiveMapper final : public Mapper {
 public:
  std::string name() const override { return "naive"; }
  MappingResult run(const QuantumCircuit& circuit,
                    const arch::CouplingMap& coupling) const override;
};

/// Bidirectional SABRE (Li/Ding/Xie [18]): front-layer routing with a
/// lookahead window and per-qubit decay to escape ping-pong swaps, run as a
/// portfolio of `trials` independent layout trials. Trial 0 starts from the
/// trivial layout; trial t > 0 from a random initial placement drawn from
/// the RNG stream derive_stream_seed(seed, t). Every trial refines its
/// initial layout with a forward/backward/forward pass before emitting, and
/// the portfolio keeps the best result by (swap count, then depth, then
/// trial index). Trials fan out on the core/parallel.hpp pool; the result is
/// bitwise independent of the thread count. trials == 0 and
/// seed == kMapSeedFromEnv defer to the QTC_MAP_TRIALS / QTC_MAP_SEED
/// environment knobs.
///
/// with_fidelity(backend) attaches calibration: swap scoring then uses the
/// FidelityModel's weighted distances plus the candidate edge's own cost,
/// trial 1 seeds from noise_aware_layout instead of a random placement, and
/// the portfolio winner maximizes estimated log-success (SWAP = 3 native 2q
/// gates) instead of raw swap count. With fidelity off the routing is
/// bitwise-identical to the calibration-blind mapper.
class SabreMapper final : public Mapper {
 public:
  explicit SabreMapper(int lookahead = 20, double lookahead_weight = 0.5,
                       int trials = 0, std::uint64_t seed = kMapSeedFromEnv)
      : lookahead_(lookahead),
        lookahead_weight_(lookahead_weight),
        trials_(trials),
        seed_(seed) {}
  /// Non-owning: `backend` must outlive every run() call. Pass nullptr (or
  /// enabled = false) to restore calibration-blind routing.
  SabreMapper& with_fidelity(const arch::Backend* backend,
                             bool enabled = true) {
    backend_ = backend;
    fidelity_ = enabled && backend != nullptr;
    return *this;
  }
  std::string name() const override { return "sabre"; }
  MappingResult run(const QuantumCircuit& circuit,
                    const arch::CouplingMap& coupling) const override;

 private:
  int lookahead_;
  double lookahead_weight_;
  int trials_;
  std::uint64_t seed_;
  const arch::Backend* backend_ = nullptr;
  bool fidelity_ = false;
};

/// Layered A* search (Zulehner/Paler/Wille [39]): the circuit is split into
/// layers of disjoint two-qubit gates and an optimal (within the node
/// budget) SWAP sequence is searched per layer.
class AStarMapper final : public Mapper {
 public:
  explicit AStarMapper(std::size_t node_limit = 200000)
      : node_limit_(node_limit) {}
  std::string name() const override { return "astar"; }
  MappingResult run(const QuantumCircuit& circuit,
                    const arch::CouplingMap& coupling) const override;

 private:
  std::size_t node_limit_;
};

/// Embed an n-logical-qubit statevector into n_physical qubits under a
/// layout (ancilla physical qubits in |0>). Used to verify that a mapped
/// circuit is equivalent to the original up to the layout permutation.
std::vector<cplx> embed_state(std::span<const cplx> logical_state,
                              const Layout& layout, int num_physical);

}  // namespace qtc::map
