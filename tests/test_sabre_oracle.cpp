// SabreMapper::run against its rebuild-every-step oracle: the library keeps
// the front layer's gate records, touch lists and lookahead window across
// SWAPs, patches only the records on the swapped qubits and reuses each
// coupler slot's candidate delta sums until a SWAP dirties an endpoint, and
// must still return the oracle's MappingResult (events, layouts,
// source_index, trial bookkeeping) on every device, with fidelity-aware
// scoring off and on. The trials run on the pool and share the run's slot
// table, so the file carries the `parallel` label for the TSan preset.

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
#include "map/mapping.hpp"
#include "reference_sabre.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::map {
namespace {

using qtc::testing::reference_sabre_run;

struct Device {
  std::string name;
  arch::Backend backend;
};

/// A 4x4 grid from an edge list with alternating coupler orientations: its
/// four inner qubits have degree 4, so candidate slots are looked up from
/// both ends of neighbor lists longer than heavy-hex's.
arch::CouplingMap grid4x4() {
  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) {
      const int q = 4 * r + c;
      if (c + 1 < 4)
        edges.push_back((r + c) % 2 ? std::make_pair(q + 1, q)
                                    : std::make_pair(q, q + 1));
      if (r + 1 < 4)
        edges.push_back((r + c) % 2 ? std::make_pair(q, q + 4)
                                    : std::make_pair(q + 4, q));
    }
  return arch::CouplingMap(16, edges, "grid4x4");
}

std::vector<Device> devices() {
  const arch::CouplingMap chain = arch::linear(12);
  const arch::CouplingMap grid = grid4x4();
  return {{"qx5", arch::qx5_backend()},
          {"linear12", arch::Backend(chain, arch::default_calibration(chain))},
          {"grid4x4", arch::Backend(grid, arch::default_calibration(grid))},
          {"heavy_hex7", arch::heavy_hex_backend(7)},
          {"heavy_hex13", arch::heavy_hex_backend(13)}};
}

/// Random circuit on the first `active` of `width` qubits mixing 1q and 2q
/// gates with the ops the router must pass through: measures, resets,
/// partial and full barriers, and classically conditioned gates.
QuantumCircuit mixed_circuit(std::uint64_t seed, int width, int active,
                             int gates) {
  Rng rng(seed);
  QuantumCircuit qc(width, 4);
  auto pick = [&] { return static_cast<int>(rng.index(active)); };
  auto other = [&](int a) {
    return (a + 1 + static_cast<int>(rng.index(active - 1))) % active;
  };
  for (int g = 0; g < gates; ++g) {
    const int a = pick();
    switch (rng.index(16)) {
      case 0: qc.h(a); break;
      case 1: qc.rz(rng.uniform(-PI, PI), a); break;
      case 2: qc.measure(a, static_cast<int>(rng.index(4))); break;
      case 3: qc.reset(a); break;
      case 4: qc.barrier({a, other(a)}); break;
      case 5:
        if (rng.index(4) == 0) qc.barrier();
        else qc.x(a).c_if(0, rng.index(16));
        break;
      case 6: qc.cx(a, other(a)).c_if(0, rng.index(16)); break;
      case 7: qc.cz(a, other(a)); break;
      case 8: qc.rzz(rng.uniform(-PI, PI), a, other(a)); break;
      case 9: qc.swap(a, other(a)); break;
      default: qc.cx(a, other(a));
    }
  }
  return qc;
}

/// Mirrored random Clifford on `n` qubits with short-range CX, as the
/// clifford-scale benchmark sends: local enough to route at scale, still
/// forcing SWAPs on heavy-hex.
QuantumCircuit mirrored_clifford(std::uint64_t seed, int n) {
  Rng rng(seed);
  QuantumCircuit c(n);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < n; ++q) {
      switch (rng.index(4)) {
        case 0: c.h(q); break;
        case 1: c.s(q); break;
        case 2: c.sdg(q); break;
        default: break;
      }
    }
    for (int q = layer % 2; q + 1 < n; q += 2) {
      if (rng.index(2)) continue;
      const int t = std::min(n - 1, q + 1 + static_cast<int>(rng.index(3)));
      c.cx(q, t);
    }
  }
  QuantumCircuit mirrored = c;
  mirrored.compose(c.inverse());
  return mirrored;
}

QuantumCircuit ghz(int n) {
  QuantumCircuit qc(n);
  qc.h(0);
  for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

void expect_matches_oracle(const QuantumCircuit& circuit,
                           const arch::Backend& backend, bool fidelity,
                           const std::string& label, int trials = 4,
                           int lookahead = 20, double weight = 0.5,
                           std::uint64_t seed = 0xC0FFEE) {
  const arch::CouplingMap& coupling = backend.coupling_map();
  const MappingResult got = SabreMapper(lookahead, weight, trials, seed)
                                .with_fidelity(&backend, fidelity)
                                .run(circuit, coupling);
  const MappingResult want =
      reference_sabre_run(circuit, coupling, lookahead, weight, trials, seed,
                          &backend, fidelity);
  const std::string tag = label + (fidelity ? " fidelity" : " blind");
  EXPECT_EQ(got.swaps_inserted, want.swaps_inserted) << tag;
  EXPECT_EQ(got.initial, want.initial) << tag;
  EXPECT_EQ(got.final_layout, want.final_layout) << tag;
  EXPECT_EQ(got.source_index, want.source_index) << tag;
  EXPECT_EQ(got.best_trial, want.best_trial) << tag;
  EXPECT_TRUE(got.circuit.ops() == want.circuit.ops()) << tag;
  EXPECT_TRUE(got == want) << tag;
}

TEST(SabreOracle, MixedRandomCircuitsOnEveryDevice) {
  for (const auto& [name, backend] : devices()) {
    const int np = backend.num_qubits();
    std::vector<int> widths = {3, std::min(np, 12)};
    if (np > 16 && np < 200) widths.push_back(24);
    for (int w : widths) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string label = name + " width " + std::to_string(w) +
                                  " seed " + std::to_string(seed);
        const QuantumCircuit qc = mixed_circuit(seed * 13 + w, w, w, 6 * w);
        for (bool fidelity : {false, true})
          expect_matches_oracle(qc, backend, fidelity, label);
      }
    }
  }
}

TEST(SabreOracle, IdleQubitsAndNarrowCircuits) {
  for (const auto& [name, backend] : devices()) {
    const int width = std::min(backend.num_qubits(), 16);
    for (int active : {2, width / 2}) {
      const QuantumCircuit qc = mixed_circuit(active, width, active, 8 * active);
      for (bool fidelity : {false, true})
        expect_matches_oracle(qc, backend, fidelity,
                              name + " active " + std::to_string(active));
    }
  }
}

TEST(SabreOracle, QftAndQuantumVolume) {
  for (const auto& [name, backend] : devices()) {
    const int w = std::min(backend.num_qubits(), 14);
    Rng rng(static_cast<std::uint64_t>(w));
    const QuantumCircuit qv = ignis::qv_model_circuit(w, rng);
    for (bool fidelity : {false, true}) {
      expect_matches_oracle(aqua::qft(std::min(w, 10)), backend, fidelity,
                            name + " qft");
      expect_matches_oracle(qv, backend, fidelity, name + " qv");
    }
  }
}

/// eagle-compile's random class: H, T, RZ and CX on random qubits.
QuantumCircuit random_compile_circuit(std::uint64_t seed, int n, int gates) {
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    const int a = static_cast<int>(rng.index(n));
    switch (rng.index(4)) {
      case 0: qc.h(a); break;
      case 1: qc.t(a); break;
      case 2: qc.rz(rng.uniform(-PI, PI), a); break;
      default:
        qc.cx(a, (a + 1 + static_cast<int>(rng.index(n - 1))) % n);
    }
  }
  return qc;
}

TEST(SabreOracle, EagleCompileClassMix) {
  // eagle-compile's nine classes on Eagle, lowered to the router's basis as
  // transpile hands them to the mapper: random 8/16/32 with 5n gates, QFT
  // 8/12/20 and QV 8/10/14. The seed draws the random content and the
  // portfolio's random layouts.
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<std::pair<std::string, QuantumCircuit>> classes;
    for (int n : {8, 16, 32})
      classes.emplace_back("random " + std::to_string(n),
                           random_compile_circuit(seed * 100 + n, n, 5 * n));
    for (int n : {8, 12, 20})
      classes.emplace_back("qft " + std::to_string(n), aqua::qft(n));
    for (int n : {8, 10, 14}) {
      Rng rng(seed * 100 + n);
      classes.emplace_back("qv " + std::to_string(n),
                           ignis::qv_model_circuit(n, rng));
    }
    for (const auto& [name, logical] : classes) {
      const QuantumCircuit qc =
          transpiler::detail::lower_to_router_basis(logical);
      for (bool fidelity : {false, true})
        expect_matches_oracle(qc, eagle, fidelity,
                              name + " seed " + std::to_string(seed), 4, 20,
                              0.5, seed);
    }
  }
}

TEST(SabreOracle, LookaheadAndTrialSettings) {
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  const QuantumCircuit qc = mixed_circuit(77, 24, 24, 150);
  for (int lookahead : {0, 1, 5, 40})
    for (bool fidelity : {false, true})
      expect_matches_oracle(qc, eagle, fidelity,
                            "lookahead " + std::to_string(lookahead), 2,
                            lookahead, 0.5, 3);
  for (double weight : {0.0, 1.5})
    expect_matches_oracle(qc, eagle, false, "weight", 3, 20, weight, 11);
  expect_matches_oracle(qc, eagle, true, "one trial", 1);
  expect_matches_oracle(qc, eagle, true, "eight trials", 8);
}

TEST(SabreOracle, CliffordScaleCircuitsOnOsprey) {
  // The clifford-scale workload's shapes: GHZ chains and mirrored Cliffords
  // of a few hundred qubits on the 433-qubit heavy-hex map.
  const arch::Backend osprey = arch::heavy_hex_backend(13);
  expect_matches_oracle(ghz(240), osprey, false, "ghz 240", 2);
  expect_matches_oracle(mirrored_clifford(5, 200), osprey, false,
                        "mirrored 200", 2);
  expect_matches_oracle(mirrored_clifford(6, 300), osprey, false,
                        "mirrored 300", 1);
}

/// Longest run of consecutive SWAPs in a routed circuit. Each stall step
/// emits one SWAP, so a run longer than the stall limit can only come from
/// the safety valve's forced shortest-path SWAPs.
int longest_swap_run(const QuantumCircuit& routed) {
  int run = 0, best = 0;
  for (const auto& op : routed.ops()) {
    run = op.kind == OpKind::SWAP ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best;
}

TEST(SabreOracle, StallSafetyValve) {
  // A negative lookahead weight rewards pulling the window's gates apart,
  // so the heuristic ping-pongs until the stall limit forces the oldest
  // blocked gate along a shortest path. Qubit 0 meets partners spread along
  // the chain, so every pass (the emitting forward pass too) stalls.
  const arch::CouplingMap line = arch::linear(12);
  const arch::Backend chain(line, arch::default_calibration(line));
  const int n = line.num_qubits();
  QuantumCircuit qc(n);
  for (int partner : {11, 5, 9, 2, 7, 11}) qc.cx(0, partner).cx(0, partner);
  const int stall_limit = 4 * n * n + 16;
  for (bool fidelity : {false, true}) {
    expect_matches_oracle(qc, chain, fidelity, "valve", 1, 20, -10.0, 1);
    const MappingResult got = SabreMapper(20, -10.0, 1, 1)
                                  .with_fidelity(&chain, fidelity)
                                  .run(qc, line);
    EXPECT_GT(longest_swap_run(got.circuit), stall_limit)
        << (fidelity ? "fidelity" : "blind");
  }
}

}  // namespace
}  // namespace qtc::map
