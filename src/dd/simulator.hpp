#pragma once
// Decision-diagram based circuit simulator: the JKU add-on simulator the
// paper presents as a Qiskit "success story" (Sec. V-A, refs [5][40]).
// Functionally a drop-in alternative to sim::StatevectorSimulator, but the
// state is a DD, so memory tracks circuit structure instead of 2^n.
//
// Measurement contract: measurements must form a final layer
// (sim::final_layer). A circuit in which a gate or another measurement acts
// on a wire after that wire is measured, or with a reset or a conditioned
// op, is rejected with std::invalid_argument by simulate(), statevector()
// and run(): the DD engine has no collapse path. run() draws every shot
// from the final diagram through sim::sample_final_layer, one stream seeded
// from the simulator's seed per call, so a repeated run() repeats.
//
// Memory: the simulator pins its evolving state with a Package ref handle,
// so the package's garbage collector (QTC_DD_GC_THRESHOLD) can reclaim
// spent gate DDs and intermediate states while the run is in flight.

#include <cstdint>
#include <memory>

#include "core/circuit.hpp"
#include "dd/package.hpp"
#include "sim/result.hpp"

namespace qtc::dd {

struct DDRunResult {
  sim::Counts counts;
  /// Nodes in the final state DD — the compactness measure of Fig. 3.
  std::size_t final_nodes = 0;
  /// Total vector/matrix nodes ever constructed during the run (free-list
  /// reuses included).
  std::size_t allocated_nodes = 0;
  // --- bounded-memory telemetry (see PackageStats) -------------------------
  std::size_t gc_runs = 0;
  std::size_t freed_nodes = 0;
  std::size_t reused_nodes = 0;
  /// High-water mark of simultaneously live nodes; with GC enabled this is
  /// bounded by the threshold plus one operation's working set, however
  /// deep the circuit.
  std::size_t peak_live_nodes = 0;
  std::size_t compute_hits = 0;
  std::size_t compute_evictions = 0;
};

class DDSimulator {
 public:
  explicit DDSimulator(std::uint64_t seed = 0xC0FFEE) : seed_(seed) {}

  /// Execute with sampling; measurements must form a final layer (the
  /// mirror of the array simulator's final-layer path).
  DDRunResult run(const QuantumCircuit& circuit, int shots = 1024);

  /// Final state as a DD, together with the package that owns it. The
  /// package must outlive the edge; `root` keeps the state pinned across
  /// any further garbage collections in that package.
  struct StateHandle {
    std::unique_ptr<Package> package;
    VEdge state;
    Package::VRef root;
  };
  StateHandle simulate(const QuantumCircuit& circuit);

  /// Dense amplitudes of the final state (n <= 26).
  std::vector<cplx> statevector(const QuantumCircuit& circuit);

  /// Full-circuit operator as a matrix DD (the paper's Fig. 3 object).
  struct UnitaryHandle {
    std::unique_ptr<Package> package;
    MEdge unitary;
    Package::MRef root;
  };
  UnitaryHandle unitary(const QuantumCircuit& circuit);

 private:
  std::uint64_t seed_;
};

}  // namespace qtc::dd
