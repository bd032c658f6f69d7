#pragma once
// Output checks whose references do not come from the code under test: a
// plain dense statevector written here (gate matrices from core::op_matrix,
// none of the simulator's fused or SIMD kernels), analytic outcome sets, and
// direct coupling/basis inspection of compiled circuits.

#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "map/mapping.hpp"

namespace perfbench {

/// Heavy outputs of a measure-all circuit: bitstrings (Counts key format,
/// highest clbit leftmost) whose ideal probability exceeds the median, and
/// the ideal probability mass of that set.
struct HeavySet {
  std::vector<std::string> outputs;
  double ideal_probability = 0;
};
HeavySet heavy_set(const qtc::QuantumCircuit& logical);

/// Empty when `compiled` is legal on `backend` (every op a basis gate, every
/// two-qubit gate on a native directed edge); else what is wrong.
std::string check_compiled(const qtc::QuantumCircuit& compiled,
                           const qtc::arch::Backend& backend);

/// Empty when the routed circuit, started with logical qubit l on physical
/// initial.l2p[l] (ancillas |0>), ends in the logical circuit's state with
/// logical qubit l on physical final.l2p[l], up to global phase; else why not.
/// Simulates only the physical qubits the compiled circuit touches.
std::string check_equivalent(const qtc::QuantumCircuit& logical,
                             const qtc::QuantumCircuit& compiled,
                             const qtc::map::Layout& initial,
                             const qtc::map::Layout& final_layout);

}  // namespace perfbench
