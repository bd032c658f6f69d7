#pragma once
// CNOT direction legalization: the paper's Sec. II-B notes that "even within
// these pairs, it is firmly defined which qubit is the target and which is
// the control"; a wrong-way CNOT is fixed by conjugating with four Hadamards
// (the extra H gates visible in the paper's Fig. 4a).

#include "arch/coupling_map.hpp"
#include "transpiler/pass_manager.hpp"

namespace qtc::transpiler {

/// Flips CX gates whose (control, target) orientation is not native:
///   CX(a, b) = (H a)(H b) CX(b, a) (H a)(H b).
/// Requires the circuit to already be routed (both orientations missing is
/// an error). Only CX is handled; run decomposition first.
/// The pass holds a non-owning reference to `coupling` (a device's map
/// carries dense distance tables, too big to copy per transpile), so the
/// map must outlive the pass; temporaries are rejected at compile time.
class FixCxDirections final : public Pass {
 public:
  explicit FixCxDirections(const arch::CouplingMap& coupling)
      : coupling_(coupling) {}
  explicit FixCxDirections(arch::CouplingMap&&) = delete;
  std::string name() const override { return "fix-cx-directions"; }
  QuantumCircuit run(QuantumCircuit circuit) const override;

 private:
  const arch::CouplingMap& coupling_;
};

/// True when every multi-qubit gate is a CX on a native directed edge (the
/// paper's "CNOT-constraints").
bool satisfies_coupling(const QuantumCircuit& circuit,
                        const arch::CouplingMap& coupling);
/// Weaker check: adjacency only, ignoring direction.
bool satisfies_connectivity(const QuantumCircuit& circuit,
                            const arch::CouplingMap& coupling);

}  // namespace qtc::transpiler
