#pragma once
// Seeded input generators for the benchmark workloads. Every generator is a
// pure function of its arguments, so a workload's inputs depend only on the
// --seed it was given.

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/rng.hpp"

namespace perfbench {

/// The hybrid tenants' 4-qubit VQE ansatz: an RY layer, a CX ring, a second
/// RY layer, then measurement. Takes eight angles.
qtc::QuantumCircuit vqe_ansatz(const std::vector<double>& angles);

/// Random 3-5 qubit circuit over H/S/T/RZ/RX/CX, measured.
qtc::QuantumCircuit random_small(qtc::Rng& rng);

/// Random n-qubit circuit of `gates` gates over H/T/RZ/CX (the heavy-hex
/// suite's random member), measured.
qtc::QuantumCircuit random_circuit(int n, int gates, qtc::Rng& rng);

/// n-qubit QFT (H + controlled phase, final swaps), measured.
qtc::QuantumCircuit qft(int n);

/// Width-n quantum-volume model circuit (ignis::qv_model_circuit), measured.
qtc::QuantumCircuit qv(int n, qtc::Rng& rng);

/// n-qubit GHZ state preparation (H then a CX chain), measured.
qtc::QuantumCircuit ghz(int n);

/// Mirrored random Clifford on n qubits: C (`layers` layers of random 1q
/// Cliffords and CX between nearby logical qubits) followed by C^dagger, then
/// measurement. The ideal outcome is all zeros on every shot.
qtc::QuantumCircuit mirrored_clifford(int n, int layers, qtc::Rng& rng);

}  // namespace perfbench
