// The two samplers every engine goes through: the seeded per-shot loop
// (sim::sample_shots, with the one statevector replay sim::replay_shots) and
// final-layer sampling (sim::sample_final_layer).
//
// * The ideal statevector engine's shot-by-shot path must reproduce the
//   full-width trajectory oracle (tests/reference_trajectory.hpp) under an
//   empty noise model, counts bitwise, over a seeded corpus of dynamic
//   circuits with idle qubits, fusion off and on.
// * One determinism check runs over the seven engine paths that sample
//   shots: statevector per-shot and final-layer, trajectory, density
//   matrix, decision diagram, stabilizer per-shot and tableau-once. Counts
//   are equal at 1 and 4 threads, on a repeated run() of one simulator, and
//   a longer run's histogram holds a shorter run's outcome for outcome
//   (shot prefix stability).
// * The first run() of a fresh statevector or DD simulator on a final-layer
//   corpus gives pinned counts, recorded before the two engines shared
//   final-layer sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "dd/simulator.hpp"
#include "noise/channel.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "reference_trajectory.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "sim/stabilizer.hpp"

namespace qtc {
namespace {

/// Restores every knob this file touches, whatever the test outcome.
struct KnobGuard {
  ~KnobGuard() {
    parallel::set_num_threads(0);
    sim::set_fusion_enabled(-1);
  }
};

// --- statevector per-shot path == trajectory oracle ---------------------------

/// A random dynamic circuit on `active` qubits plus two idle ones, placed at
/// random register positions: unitary gates, mid-circuit measurements,
/// resets, conditioned gates and barriers. It always holds a reset, so the
/// statevector engine never takes its final-layer sampling path.
QuantumCircuit dynamic_circuit(int active, Rng& gen) {
  const int width = active + 2;
  std::vector<int> live;
  const int idle_a = static_cast<int>(gen.index(width));
  int idle_b = static_cast<int>(gen.index(width - 1));
  if (idle_b >= idle_a) ++idle_b;
  for (int q = 0; q < width; ++q)
    if (q != idle_a && q != idle_b) live.push_back(q);
  const auto pick = [&] { return live[gen.index(live.size())]; };
  const auto pick_other = [&](int q) {
    int r = pick();
    while (active > 1 && r == q) r = pick();
    return r;
  };

  QuantumCircuit qc(width, active);
  const int ops = 6 + static_cast<int>(gen.index(4 * active + 10));
  const int reset_at = static_cast<int>(gen.index(ops));
  for (int i = 0; i < ops; ++i) {
    if (i == reset_at) {
      qc.reset(pick());
      continue;
    }
    const int q = pick();
    switch (gen.index(active > 1 ? 12 : 8)) {
      case 0: qc.h(q); break;
      case 1: qc.sx(q); break;
      case 2: qc.rz(gen.uniform(-3, 3), q); break;
      case 3: qc.ry(gen.uniform(-3, 3), q); break;
      case 4: qc.t(q); break;
      case 5:
        qc.measure(q, static_cast<int>(gen.index(active)));
        break;
      case 6:
        qc.x(q).c_if(0, gen.index(std::uint64_t{1} << std::min(active, 3)));
        break;
      case 7: qc.barrier(); break;
      case 8: qc.cx(q, pick_other(q)); break;
      case 9: qc.cz(q, pick_other(q)); break;
      case 10: qc.cp(gen.uniform(-3, 3), q, pick_other(q)); break;
      default:
        qc.h(pick_other(q)).c_if(0, gen.index(2));
    }
  }
  for (int c = 0; c < active; ++c) qc.measure(live[c], c);
  return qc;
}

TEST(ShotSampler, StatevectorPerShotPathMatchesTrajectoryOracle) {
  KnobGuard guard;
  const noise::NoiseModel noiseless;
  constexpr int kShots = 257;  // odd, so the last chunk is short
  Rng gen(0x5A3D);
  for (int i = 0; i < 48; ++i) {
    const int active = 1 + i % 10;
    const QuantumCircuit qc = dynamic_circuit(active, gen);
    const std::uint64_t seed = 1000 + i;
    for (int fusion : {0, 1}) {
      SCOPED_TRACE("circuit " + std::to_string(i) + " (" +
                   std::to_string(active) + " active qubits), fusion=" +
                   std::to_string(fusion));
      sim::set_fusion_enabled(fusion);
      const sim::RunResult got = sim::StatevectorSimulator(seed).run(qc, kShots);
      const sim::Counts want =
          testing::reference_trajectory_run(qc, noiseless, kShots, seed);
      EXPECT_EQ(got.counts.histogram, want.histogram);
      EXPECT_EQ(got.counts.shots, kShots);
      // The last shot's state, at the register's full width.
      EXPECT_EQ(got.statevector.size(), std::size_t{1} << qc.num_qubits());
    }
  }
}

// --- one determinism check over every shot-sampling engine path -------------

/// `make()` builds a fresh simulator and returns its run function; calling
/// that function twice is a repeated run() on one simulator.
struct EnginePath {
  const char* name;
  std::function<std::function<sim::Counts(int)>()> make;
};

std::ostream& operator<<(std::ostream& os, const EnginePath& p) {
  return os << p.name;
}

constexpr std::uint64_t kSeed = 0x51A7;

/// Mid-circuit measurement, a conditioned gate and a reset: only the
/// shot-by-shot paths run it.
QuantumCircuit dynamic_feature_circuit() {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).t(1).rz(0.3, 2).cx(1, 2);
  qc.measure(0, 0);
  qc.x(2).c_if(0, 1);
  qc.reset(0);
  qc.h(0).cx(2, 3).sx(3);
  qc.barrier();
  qc.measure_all();
  return qc;
}

noise::NoiseModel feature_noise() {
  noise::NoiseModel model;
  model.add_all_qubit_error(noise::depolarizing(0.02), OpKind::H);
  model.add_all_qubit_error(noise::amplitude_damping(0.05), OpKind::SX);
  model.add_all_qubit_error(noise::depolarizing2(0.03), OpKind::CX);
  model.set_readout_error(1, {0.04, 0.02});
  return model;
}

/// A Clifford circuit with random outcomes; `conditioned` adds a c_if, which
/// sends the stabilizer engine down its per-shot path.
QuantumCircuit clifford_circuit(bool conditioned) {
  QuantumCircuit qc(5, 5);
  qc.h(0).cx(0, 1).h(2).s(2).cx(2, 3).h(4);
  qc.measure(2, 2);
  qc.x(3);
  if (conditioned) qc.c_if(0, 4);
  qc.cz(1, 4).h(1);
  qc.measure_all();
  return qc;
}

/// A final measurement layer with random outcomes.
QuantumCircuit final_layer_circuit() {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).ry(0.7, 2).t(1).h(1);
  qc.cx(1, 3).rz(0.4, 3).h(3).cx(2, 3);
  qc.measure_all();
  return qc;
}

const EnginePath kEnginePaths[] = {
    {"statevector_per_shot",
     [] {
       return std::function<sim::Counts(int)>(
           [s = sim::StatevectorSimulator(kSeed)](int shots) mutable {
             return s.run(dynamic_feature_circuit(), shots).counts;
           });
     }},
    {"statevector_final_layer",
     [] {
       return std::function<sim::Counts(int)>(
           [s = sim::StatevectorSimulator(kSeed)](int shots) mutable {
             return s.run(final_layer_circuit(), shots).counts;
           });
     }},
    {"trajectory",
     [] {
       return std::function<sim::Counts(int)>(
           [s = noise::TrajectorySimulator(kSeed)](int shots) mutable {
             return s.run(dynamic_feature_circuit(), feature_noise(), shots);
           });
     }},
    {"density_matrix",
     [] {
       return std::function<sim::Counts(int)>(
           [s = noise::DensityMatrixSimulator(kSeed)](int shots) mutable {
             QuantumCircuit qc(3, 3);
             qc.h(0).cx(0, 1).cx(1, 2).rz(0.9, 2).h(1).measure_all();
             return s.run(qc, feature_noise(), shots).counts;
           });
     }},
    {"decision_diagram",
     [] {
       return std::function<sim::Counts(int)>(
           [s = dd::DDSimulator(kSeed)](int shots) mutable {
             return s.run(final_layer_circuit(), shots).counts;
           });
     }},
    {"stabilizer_per_shot",
     [] {
       return std::function<sim::Counts(int)>(
           [s = sim::StabilizerSimulator(kSeed)](int shots) mutable {
             return s.run(clifford_circuit(true), shots);
           });
     }},
    {"tableau_once",
     [] {
       return std::function<sim::Counts(int)>(
           [s = sim::StabilizerSimulator(kSeed)](int shots) mutable {
             return s.run(clifford_circuit(false), shots);
           });
     }},
};

// --- pinned first-run counts of the final-layer engines ---------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over "bits:count\n" lines of a histogram, in key order.
std::uint64_t counts_digest(const sim::Counts& counts) {
  std::string text;
  for (const auto& [bits, count] : counts.histogram)
    text += bits + ":" + std::to_string(count) + "\n";
  return fnv1a(text);
}

/// For each width 2..12: a GHZ, and a seeded random unitary prefix, each
/// followed by measure_all.
std::vector<QuantumCircuit> final_layer_corpus() {
  std::vector<QuantumCircuit> corpus;
  Rng gen(0xF1A7);
  for (int n = 2; n <= 12; ++n) {
    QuantumCircuit ghz(n, n);
    ghz.h(0);
    for (int q = 1; q < n; ++q) ghz.cx(q - 1, q);
    ghz.measure_all();
    corpus.push_back(ghz);
    QuantumCircuit prefix(n, n);
    for (int g = 0; g < 6 * n; ++g) {
      const int q = static_cast<int>(gen.index(n));
      switch (gen.index(6)) {
        case 0: prefix.h(q); break;
        case 1: prefix.ry(gen.uniform(-3, 3), q); break;
        case 2: prefix.rz(gen.uniform(-3, 3), q); break;
        case 3: prefix.t(q); break;
        case 4: prefix.sx(q); break;
        default: {
          const int t = (q + 1 + static_cast<int>(gen.index(n - 1))) % n;
          prefix.cx(q, t);
        }
      }
    }
    prefix.measure_all();
    corpus.push_back(prefix);
  }
  return corpus;
}

/// Digests of the first run() of a fresh simulator per corpus circuit: the
/// statevector engine's, then the DD engine's.
std::vector<std::uint64_t> first_run_digests() {
  std::vector<std::uint64_t> digests;
  std::uint64_t seed = 0x900;
  for (const QuantumCircuit& qc : final_layer_corpus()) {
    ++seed;
    digests.push_back(
        counts_digest(sim::StatevectorSimulator(seed).run(qc, 1024).counts));
    digests.push_back(
        counts_digest(dd::DDSimulator(seed).run(qc, 1024).counts));
  }
  return digests;
}

TEST(ShotSampler, FinalLayerFirstRunCountsArePinned) {
  // FNV-1a digests recorded with the statevector engine's and the DD
  // engine's own final-layer samplers, which drew from a member RNG; the
  // shared sampler's one run-local stream starts from the same seed, so a
  // fresh simulator's counts stay bitwise. Pairs: statevector, DD.
  const std::vector<std::uint64_t> want = {
      0xab5007a43919a247ULL, 0x042ec904a101c6e6ULL,
      0xd55d0c8762cd0923ULL, 0xb61d7d1fbb696abaULL,
      0x8e4fc1c4a8509327ULL, 0xd66485c327a88fbcULL,
      0xf84627a7d33b2990ULL, 0x653ef40ef0d8b244ULL,
      0x25e47a2b9c8979c9ULL, 0xfeef6b31636abc05ULL,
      0xf640140613d5e11bULL, 0x12c4dbac8cb084dbULL,
      0xc2835a69455ff742ULL, 0xb2cbe883587d2d1cULL,
      0x1ea910525db31e23ULL, 0xd4d8c908509b5aabULL,
      0x1598a7c2ded62310ULL, 0x1a2fc521a240ce05ULL,
      0xc8909b967fbc3575ULL, 0xc2b4988bf780c6fdULL,
      0x98c33bcdbb16759fULL, 0xce1cd466fbe40a2cULL,
      0xec3c53c940ac856fULL, 0x70a61917054690c1ULL,
      0xaaca5c5171be6c21ULL, 0xe83e3f4c79c23009ULL,
      0x175237880a03678bULL, 0x996b25fd6bea3571ULL,
      0x37af6020f757e45cULL, 0xc4db68419ce096a9ULL,
      0xeaf54ecb89845806ULL, 0x1ce824fa9184302bULL,
      0xccc8ca50c3717783ULL, 0xc71af590b2def678ULL,
      0x33dcf1a51eb0ba11ULL, 0x82c38dd29d1f269dULL,
      0x0077da8a26038f8fULL, 0x0077da8a26038f8fULL,
      0x77ed0eab6cd29157ULL, 0x4c37e1b5b75ce7acULL,
      0x431d0024c45bef95ULL, 0x694da3d4e038a1c0ULL,
      0x6f43d3bdd49a6e14ULL, 0xf2a7300b06a51b7fULL,
  };
  EXPECT_EQ(first_run_digests(), want);
}

class ShotDeterminism : public ::testing::TestWithParam<EnginePath> {};

TEST_P(ShotDeterminism, CountsEqualAtOneAndFourThreads) {
  KnobGuard guard;
  parallel::set_num_threads(1);
  const sim::Counts serial = GetParam().make()(600);
  parallel::set_num_threads(4);
  const sim::Counts threaded = GetParam().make()(600);
  EXPECT_EQ(serial.shots, 600);
  EXPECT_GT(serial.histogram.size(), 1u);  // the outcomes really are random
  EXPECT_EQ(threaded.histogram, serial.histogram);
}

TEST_P(ShotDeterminism, RepeatedRunIsIdentical) {
  KnobGuard guard;
  parallel::set_num_threads(4);
  const auto run = GetParam().make();
  const sim::Counts first = run(600);
  const sim::Counts second = run(600);
  EXPECT_EQ(second.histogram, first.histogram);
}

TEST_P(ShotDeterminism, ShotPrefixIsStable) {
  // Shot s sees the same draws whatever the total (its own stream on the
  // per-shot paths, the same stretch of the call's one stream on the
  // final-layer paths), so the first 100 shots of a 600-shot run are the
  // 100-shot run: every outcome count of the short run is covered by the
  // long one.
  KnobGuard guard;
  parallel::set_num_threads(4);
  const sim::Counts small = GetParam().make()(100);
  const sim::Counts large = GetParam().make()(600);
  EXPECT_EQ(small.shots, 100);
  for (const auto& [bits, c] : small.histogram)
    EXPECT_GE(large.count(bits), c) << bits;
}

INSTANTIATE_TEST_SUITE_P(
    EnginePaths, ShotDeterminism, ::testing::ValuesIn(kEnginePaths),
    [](const ::testing::TestParamInfo<EnginePath>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace qtc
