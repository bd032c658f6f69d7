// noise_aware_layout against its full-recompute oracle: the library's hill
// climb rejects most candidate swaps from the change in the terms the swap
// touches, and must still return the oracle's layout entry for entry. The
// last test pins the end-to-end effect: fidelity-aware Eagle transpiles
// emit the same QASM bytes as before the hill climb became incremental.
// Those transpiles run the SABRE portfolio's trials on the pool, so the
// file carries the `parallel` label for the TSan preset.

#include "map/noise_aware.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aqua/algorithms.hpp"
#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "ignis/quantum_volume.hpp"
#include "qasm/parser.hpp"
#include "reference_noise_aware.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::map {
namespace {

using qtc::testing::reference_noise_aware_layout;

/// Random 1q/CX circuit on `width` qubits of which only the first `active`
/// carry gates; the rest stay idle.
QuantumCircuit random_circuit(std::uint64_t seed, int width, int active,
                              int gates) {
  Rng rng(seed);
  QuantumCircuit qc(width);
  auto pick = [&] { return static_cast<int>(rng.index(active)); };
  for (int g = 0; g < gates; ++g) {
    const int a = pick();
    switch (rng.index(4)) {
      case 0: qc.h(a); break;
      case 1: qc.rz(rng.uniform(-PI, PI), a); break;
      default: {
        const int b = (a + 1 + static_cast<int>(rng.index(active - 1))) %
                      active;
        qc.cx(a, b);
      }
    }
  }
  return qc;
}

void expect_matches_oracle(const QuantumCircuit& circuit,
                           const arch::Backend& backend,
                           const std::string& label) {
  const Layout got = noise_aware_layout(circuit, backend);
  const Layout want = reference_noise_aware_layout(circuit, backend);
  EXPECT_EQ(got.l2p, want.l2p) << label;
  EXPECT_EQ(got.p2l, want.p2l) << label;
}

std::vector<std::pair<std::string, arch::Backend>> devices() {
  return {{"qx4", arch::qx4_backend()},
          {"qx5", arch::qx5_backend()},
          {"heavy_hex5", arch::heavy_hex_backend(5)},
          {"heavy_hex7", arch::heavy_hex_backend(7)}};
}

TEST(NoiseAwareOracle, RandomQftAndQvOnEveryDevice) {
  for (const auto& [name, backend] : devices()) {
    const int np = backend.num_qubits();
    std::vector<int> widths = {2, 3, np};
    if (np > 5) widths = {2, 5, 8, std::min(np, 14)};
    if (np > 16) widths.push_back(24);
    for (int w : widths) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string label = name + " width " + std::to_string(w) +
                                  " seed " + std::to_string(seed);
        expect_matches_oracle(random_circuit(seed * 31 + w, w, w, 4 * w),
                              backend, "random " + label);
        if (w <= 14) {
          Rng rng(seed * 7 + w);
          expect_matches_oracle(ignis::qv_model_circuit(w, rng), backend,
                                "qv " + label);
        }
      }
      expect_matches_oracle(aqua::qft(w), backend,
                            name + " qft " + std::to_string(w));
    }
  }
}

TEST(NoiseAwareOracle, IdleLogicalQubits) {
  for (const auto& [name, backend] : devices()) {
    const int np = backend.num_qubits();
    const int width = std::min(np, 12);
    for (int active : {2, width / 2, width - 1}) {
      if (active < 2) continue;
      expect_matches_oracle(random_circuit(active, width, active, 6 * active),
                            backend,
                            name + " idle " + std::to_string(width - active));
    }
    // No two-qubit gate at all: the objective is readout terms only.
    QuantumCircuit single(width);
    for (int q = 0; q < width; q += 2) single.h(q);
    expect_matches_oracle(single, backend, name + " no 2q gates");
  }
}

TEST(NoiseAwareOracle, QftEqualWeightTies) {
  // Every QFT pair interacts equally often, so many candidate swaps change
  // the objective by exactly zero; they must take the full-evaluation path.
  for (const auto& [name, backend] : devices())
    for (int w = 2; w <= std::min(backend.num_qubits(), 20); w += 3)
      expect_matches_oracle(aqua::qft(w, /*with_swaps=*/false), backend,
                            name + " qft " + std::to_string(w));
}

TEST(NoiseAwareOracle, DirectionDependentCxError) {
  // Both orientations of every coupler are edges, with different errors:
  // the moved pair's own term must be scored in the objective's
  // (lower logical, higher logical) orientation.
  std::vector<std::pair<int, int>> edges;
  const int n = 9;
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) {
      const int q = 3 * r + c;
      if (c + 1 < 3) edges.insert(edges.end(), {{q, q + 1}, {q + 1, q}});
      if (r + 1 < 3) edges.insert(edges.end(), {{q, q + 3}, {q + 3, q}});
    }
  arch::CouplingMap grid(n, edges, "grid3x3");
  arch::Calibration cal = arch::default_calibration(grid);
  for (std::size_t e = 0; e < edges.size(); ++e)
    cal.cx_error[e] = 0.005 + 0.004 * static_cast<double>((e * 7) % 11) +
                      (edges[e].first < edges[e].second ? 0.0 : 0.03);
  const arch::Backend backend(grid, cal);
  for (int w : {2, 4, 6, 9})
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      expect_matches_oracle(random_circuit(seed + 100 * w, w, w, 5 * w),
                            backend, "grid width " + std::to_string(w));
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The benchmark's eagle-compile classes: random, QFT and QV circuits.
std::vector<QuantumCircuit> eagle_inputs() {
  std::vector<QuantumCircuit> inputs;
  for (int w : {8, 16, 32}) inputs.push_back(random_circuit(w, w, w, 5 * w));
  for (int w : {8, 12, 20}) inputs.push_back(aqua::qft(w));
  for (int w : {8, 10, 14}) {
    Rng rng(static_cast<std::uint64_t>(w));
    inputs.push_back(ignis::qv_model_circuit(w, rng));
  }
  return inputs;
}

TEST(NoiseAwareOracle, EagleFidelityTranspilesAreByteIdentical) {
  // FNV-1a digests of qasm::emit(transpile(...)) recorded with the
  // full-recompute hill climb (the oracle above) in the library.
  const std::vector<std::uint64_t> want = {
      0xe6f77d31e98ece34ULL, 0x645175e2e2ddec72ULL, 0x77852839b445f90dULL,
      0x60113efe7b920fc4ULL, 0xc1c8d5bff343dc78ULL, 0x76a43fc553e3221aULL,
      0xab928960a9a9d3bfULL, 0x0d498f395ef49a75ULL, 0x2576a7b58b42274dULL};
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  transpiler::TranspileOptions options;
  options.fidelity = 1;
  options.trials = 4;
  options.seed = 0xC0FFEE;
  const std::vector<QuantumCircuit> inputs = eagle_inputs();
  ASSERT_EQ(inputs.size(), want.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string text =
        qasm::emit(transpiler::transpile(inputs[i], eagle, options).circuit);
    EXPECT_EQ(fnv1a(text), want[i]) << "input " << i;
  }
}

}  // namespace
}  // namespace qtc::map
