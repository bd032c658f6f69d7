#pragma once
// Noise-aware initial placement: calibration data (per-edge CX error, per-
// qubit readout error) varies across a device, so where a circuit's
// frequently-interacting qubits land matters. This is one of the
// "improved solutions" the paper invites the EDA community to contribute
// on top of the stock flow.

#include <memory>

#include "arch/backend.hpp"
#include "map/mapping.hpp"

namespace qtc::map {

/// Greedy placement: logical qubits are laid out in order of interaction
/// weight, each onto the free physical qubit that maximizes the error-
/// weighted adjacency to its already-placed partners (falling back to
/// distance, then readout quality).
Layout noise_aware_layout(const QuantumCircuit& circuit,
                          const arch::Backend& backend);

/// Relabel a logical circuit onto physical qubits according to a layout
/// (the circuit then has backend-many qubits and an identity layout).
QuantumCircuit apply_layout(const QuantumCircuit& circuit,
                            const Layout& layout, int num_physical);

/// Pessimistic success estimate of a routed, coupling-legal circuit:
/// product over gates of (1 - gate error) and over measured qubits of
/// (1 - readout error). Gates on 3+ qubits (pre-decomposition Toffoli etc.)
/// are scored from their constituent pairs — coupled pairs at the pair's
/// calibrated error, uncoupled pairs at the device's worst 2q error — so a
/// multi-qubit gate can never score better than a 1q gate (the old code
/// sent any !=2-qubit gate down the 1q branch). A cheap, monotone figure of
/// merit for layouts.
double estimated_success(const QuantumCircuit& physical_circuit,
                         const arch::Backend& backend);

/// Build the calibration-weighted routing cost model for a backend (see
/// FidelityModel in map/mapping.hpp). Throws if the backend's calibration
/// does not cover every coupling-map edge.
FidelityModel make_fidelity_model(const arch::Backend& backend);

/// The same model, built once per device and shared read-only: a one-entry
/// arch::DeviceMemo keyed exactly on the device (as noise::from_backend's
/// is), so repeated mapper runs on one backend neither rebuild the all-pairs
/// table nor copy it. A different device replaces the entry. Thread-safe.
std::shared_ptr<const FidelityModel> shared_fidelity_model(
    const arch::Backend& backend);

}  // namespace qtc::map
