// Trajectory compaction: the trajectory engine simulates only the qubits a
// compiled circuit touches, yet its fixed-seed counts must equal the
// full-width shot loop bit for bit. The oracle in reference_trajectory.hpp
// is that full-width loop; it is compared with the library engine over
// random noisy circuits on QX5 and on a heavy-hex device, with kept qubits
// on both sides of the reduction-block boundary at register bit 14, under
// every fusion x threads x SIMD combination. The register-aligned
// reductions that make this exact are unit-tested on hand-built states
// whose plain sequential sums would round differently. Also here: wide
// devices now run (only the touched qubits count against the 30-qubit
// cap), and counts keys are built per clbit, so registers wider than 64
// clbits are safe on every engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/backend.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "dd/simulator.hpp"
#include "exec/execute.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "reference_trajectory.hpp"
#include "service/execution_service.hpp"
#include "sim/fusion.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"
#include "transpiler/transpile.hpp"

namespace qtc {
namespace {

/// Restores every knob this file touches, whatever the test outcome.
struct KnobGuard {
  ~KnobGuard() {
    parallel::set_num_threads(0);
    sim::set_fusion_enabled(-1);
    sim::simd::set_simd_enabled(-1);
  }
};

/// Runs `body` under every fusion x threads x SIMD combination.
template <typename Body>
void for_each_mode(const Body& body) {
  KnobGuard guard;
  for (int fusion : {0, 1})
    for (int threads : {1, 4})
      for (int simd : {0, 1}) {
        SCOPED_TRACE("fusion=" + std::to_string(fusion) +
                     " threads=" + std::to_string(threads) +
                     " simd=" + std::to_string(simd));
        sim::set_fusion_enabled(fusion);
        parallel::set_num_threads(threads);
        sim::simd::set_simd_enabled(simd);
        body();
      }
}

/// The same operations on a register of `width` qubits (every operand must
/// be below `width`). Circuits here have no classical conditions on
/// registers other than the default one, so the default creg is enough.
QuantumCircuit with_width(const QuantumCircuit& qc, int width) {
  QuantumCircuit out(width, qc.num_clbits());
  for (const Operation& op : qc.ops()) out.append(op);
  return out;
}

/// Random noisy-device circuit on a `device_qubits` register, placed by hand
/// on `edges`: 1q gates on the edges' qubits, two-qubit gates along the
/// edges in their calibrated orientation, then every used qubit measured.
/// With `classical` a mid-circuit measurement drives a conditioned gate and
/// the measured qubit is reset and reused.
QuantumCircuit placed_circuit(int device_qubits,
                              const std::vector<std::pair<int, int>>& edges,
                              OpKind entangler, int gates, std::uint64_t seed,
                              bool classical) {
  std::vector<int> used;
  for (auto [a, b] : edges)
    for (int q : {a, b})
      if (std::find(used.begin(), used.end(), q) == used.end())
        used.push_back(q);
  std::sort(used.begin(), used.end());
  QuantumCircuit qc(device_qubits, static_cast<int>(used.size()));
  Rng rng(seed);
  const auto any_qubit = [&] { return used[rng.index(used.size())]; };
  for (int g = 0; g < gates; ++g) {
    if (classical && g == gates / 2) {
      const int q = edges[0].first;
      qc.measure(q, 0);
      qc.x(edges[0].second).c_if(0, 1);
      qc.reset(q);
      qc.sx(q);
    }
    switch (rng.index(5)) {
      case 0:
        qc.sx(any_qubit());
        break;
      case 1:
        qc.rz(rng.uniform() * 6.28, any_qubit());
        break;
      case 2:
        qc.x(any_qubit());
        break;
      default: {
        const auto [a, b] = edges[rng.index(edges.size())];
        qc.gate(entangler, {a, b});
      }
    }
  }
  for (std::size_t i = 0; i < used.size(); ++i)
    qc.measure(used[i], static_cast<int>(i));
  return qc;
}

/// `model` with a large readout error that differs on every qubit, so a
/// readout looked up by the wrong qubit changes counts within a few shots.
noise::NoiseModel with_distinct_readout(noise::NoiseModel model, int qubits) {
  for (int q = 0; q < qubits; ++q)
    model.set_readout_error(q, {0.05 + 0.02 * q, 0.04 + 0.02 * q});
  return model;
}

/// Random logical circuit for the transpiler (universal mix, measured).
QuantumCircuit logical_circuit(int n, int gates, std::uint64_t seed) {
  QuantumCircuit qc(n, n);
  Rng rng(seed);
  for (int g = 0; g < gates; ++g) {
    const int a = static_cast<int>(rng.index(n));
    switch (rng.index(4)) {
      case 0:
        qc.h(a);
        break;
      case 1:
        qc.t(a);
        break;
      case 2:
        qc.ry(rng.uniform() * 3.0, a);
        break;
      default: {
        const int b = (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
        qc.cx(a, b);
      }
    }
  }
  qc.measure_all();
  return qc;
}

/// Compares the library engine with the full-width oracle on `oracle_qc`
/// (the same operations, possibly on a narrower register that still has
/// more than 15 qubits, so both reductions keep their block boundaries).
/// The oracle runs once, unfused, serial and scalar; the engine runs in all
/// eight modes.
void expect_matches_oracle(const QuantumCircuit& qc,
                           const QuantumCircuit& oracle_qc,
                           const noise::NoiseModel& model, int shots,
                           std::uint64_t seed) {
  sim::Counts want;
  {
    KnobGuard guard;
    sim::set_fusion_enabled(0);
    parallel::set_num_threads(1);
    sim::simd::set_simd_enabled(0);
    want = testing::reference_trajectory_run(oracle_qc, model, shots, seed);
  }
  ASSERT_EQ(want.shots, shots);
  for_each_mode([&] {
    EXPECT_EQ(noise::TrajectorySimulator(seed).run(qc, model, shots).histogram,
              want.histogram);
  });
}

// --- differential: compacted engine == full-width oracle ---------------------

TEST(TrajectoryCompaction, MatchesFullWidthOracleOnQx5Placements) {
  // Kept qubits straddle register bit 14 (2, 3, 4, 13 | 14, 15).
  const arch::Backend qx5 = arch::qx5_backend();
  const noise::NoiseModel model = noise::from_backend(qx5);
  const std::vector<std::pair<int, int>> edges = {
      {3, 14}, {15, 14}, {15, 2}, {13, 14}, {13, 4}, {2, 3}};
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const QuantumCircuit qc = placed_circuit(16, edges, OpKind::CX, 30, seed,
                                             /*classical=*/seed == 12);
    expect_matches_oracle(qc, qc, model, 12, 900 + seed);
  }
  // Only physical 14 and 15: every kept qubit is above the boundary.
  const QuantumCircuit high =
      placed_circuit(16, {{15, 14}}, OpKind::CX, 20, 5, true);
  expect_matches_oracle(high, high, model, 12, 77);
}

TEST(TrajectoryCompaction, MatchesFullWidthOracleOnRoutedQx5Circuits) {
  const arch::Backend qx5 = arch::qx5_backend();
  const noise::NoiseModel model =
      with_distinct_readout(noise::from_backend(qx5), 16);
  bool straddled = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    transpiler::TranspileOptions opts;
    opts.seed = seed;
    const QuantumCircuit qc =
        transpiler::transpile(logical_circuit(5, 24, seed), qx5, opts).circuit;
    bool low = false, high = false;
    for (const Operation& op : qc.ops())
      for (int q : op.qubits) (q < 14 ? low : high) = true;
    straddled = straddled || (low && high);
    expect_matches_oracle(qc, qc, model, 8, 40 + seed);
  }
  EXPECT_TRUE(straddled) << "no routed layout crossed physical qubit 14";
}

TEST(TrajectoryCompaction, MatchesFullWidthOracleOnHeavyHex) {
  // heavy_hex(3) has 23 qubits; the kept qubits 10..18 straddle bit 14. The
  // oracle runs the same operations on the 19-qubit prefix of the register:
  // with more than 15 qubits the reduction blocks still split at bit 14, and
  // the blocks above 2^19 it drops hold exact zeros.
  const arch::Backend hh = arch::heavy_hex_backend(3);
  ASSERT_EQ(hh.num_qubits(), 23);
  const noise::NoiseModel model =
      with_distinct_readout(noise::from_backend(hh), 23);
  const std::vector<std::pair<int, int>> edges = {
      {11, 10}, {11, 12}, {13, 12}, {13, 14}, {16, 14}, {15, 10}, {18, 15}};
  for (std::uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const QuantumCircuit qc =
        placed_circuit(23, edges, OpKind::ECR, 24, seed, seed == 22);
    expect_matches_oracle(qc, with_width(qc, 19), model, 4, 300 + seed);
  }
}

TEST(TrajectoryCompaction, CircuitWithoutOperandsRunsOnZeroQubits) {
  QuantumCircuit qc(16, 2);
  qc.barrier();
  const sim::Counts counts =
      noise::TrajectorySimulator(1).run(qc, noise::NoiseModel{}, 4);
  EXPECT_EQ(counts.histogram, (std::map<std::string, int>{{"00", 4}}));
}

// --- register-aligned reductions ---------------------------------------------

/// Register index of compact index `c` for the given positions.
std::uint64_t deposit(std::uint64_t c, const std::vector<int>& positions) {
  std::uint64_t full = 0;
  for (std::size_t i = 0; i < positions.size(); ++i)
    if ((c >> i) & 1) full |= std::uint64_t{1} << positions[i];
  return full;
}

/// Compact state whose amplitudes make blocked and sequential sums round
/// differently: 1 at index `big`, norm 2^-53 everywhere else (so a run of
/// them vanishes into an already-large partial sum but not into a fresh one).
sim::AmpVector adversarial_amps(int k, std::uint64_t big) {
  const double tiny = std::ldexp(1.0, -27);
  sim::AmpVector amps(std::size_t{1} << k, cplx{tiny, tiny});
  amps[big] = cplx{1.0, 0.0};
  return amps;
}

sim::Statevector full_width(const sim::AmpVector& compact,
                            const std::vector<int>& positions, int width) {
  sim::AmpVector full(std::size_t{1} << width, cplx{0, 0});
  for (std::uint64_t c = 0; c < compact.size(); ++c)
    full[deposit(c, positions)] = compact[c];
  return sim::Statevector(std::move(full));
}

struct LayoutCase {
  int width;
  std::vector<int> positions;
};

const std::vector<LayoutCase>& layout_cases() {
  static const std::vector<LayoutCase> cases = {
      {16, {3, 14}},      {16, {3, 14, 15}},    {16, {14, 15}},
      {15, {0, 7, 14}},   {17, {1, 13, 14, 16}}, {18, {0, 2, 15, 17}},
      {14, {2, 9, 13}},   {16, {0, 1, 2, 3, 4, 14}},
  };
  return cases;
}

TEST(RegisterLayout, NormMatchesFullWidthRegister) {
  KnobGuard guard;
  int plain_differs = 0;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const LayoutCase& lc : layout_cases()) {
      const int k = static_cast<int>(lc.positions.size());
      const sim::AmpVector amps = adversarial_amps(k, 0);
      sim::Statevector compact{sim::AmpVector(amps)};
      const double plain = compact.norm();
      compact.set_register_layout(lc.positions, lc.width);
      const double want = full_width(amps, lc.positions, lc.width).norm();
      EXPECT_EQ(compact.norm(), want) << "width " << lc.width << " k " << k;
      plain_differs += plain != want;
    }
  }
  EXPECT_GT(plain_differs, 0) << "cases do not exercise block alignment";
}

TEST(RegisterLayout, ProbabilityOfOneMatchesFullWidthRegister) {
  KnobGuard guard;
  int plain_differs = 0;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const LayoutCase& lc : layout_cases()) {
      const int k = static_cast<int>(lc.positions.size());
      for (int q = 0; q < k; ++q) {
        const sim::AmpVector amps = adversarial_amps(k, std::uint64_t{1} << q);
        sim::Statevector compact{sim::AmpVector(amps)};
        const double plain = compact.probability_of_one(q);
        compact.set_register_layout(lc.positions, lc.width);
        const double want = full_width(amps, lc.positions, lc.width)
                                .probability_of_one(lc.positions[q]);
        EXPECT_EQ(compact.probability_of_one(q), want)
            << "width " << lc.width << " qubit at " << lc.positions[q];
        plain_differs += plain != want;
      }
    }
  }
  EXPECT_GT(plain_differs, 0) << "cases do not exercise block alignment";
}

TEST(RegisterLayout, DefaultLayoutIsParallelReduceTree) {
  // A state without an explicit layout sums exactly like
  // parallel::parallel_reduce over its own index space.
  KnobGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (int n : {10, 14, 15, 16, 17}) {
      Rng rng(static_cast<std::uint64_t>(n));
      sim::AmpVector amps(std::size_t{1} << n);
      for (cplx& a : amps) a = cplx{rng.uniform() - 0.5, rng.uniform() - 0.5};
      const sim::Statevector sv{sim::AmpVector(amps)};
      const double sum_sq = parallel::parallel_reduce(
          0, amps.size(), [&](std::uint64_t lo, std::uint64_t hi) {
            double s = 0;
            for (std::uint64_t i = lo; i < hi; ++i) s += std::norm(amps[i]);
            return s;
          });
      EXPECT_EQ(sv.norm(), std::sqrt(sum_sq)) << n;
      for (int q : {0, n / 2, n - 1}) {
        const std::uint64_t mask = std::uint64_t{1} << q;
        const double p1 = parallel::parallel_reduce(
            0, amps.size() >> 1, [&](std::uint64_t lo, std::uint64_t hi) {
              double s = 0;
              for (std::uint64_t g = lo; g < hi; ++g) {
                const std::uint64_t i =
                    ((g & ~(mask - 1)) << 1) | (g & (mask - 1)) | mask;
                s += std::norm(amps[i]);
              }
              return s;
            });
        EXPECT_EQ(sv.probability_of_one(q), p1) << n << " q" << q;
      }
    }
  }
}

TEST(RegisterLayout, RejectsMalformedLayouts) {
  sim::Statevector sv(3);
  EXPECT_THROW(sv.set_register_layout({0, 1}, 8), std::invalid_argument);
  EXPECT_THROW(sv.set_register_layout({0, 2, 2}, 8), std::invalid_argument);
  EXPECT_THROW(sv.set_register_layout({3, 1, 5}, 8), std::invalid_argument);
  EXPECT_THROW(sv.set_register_layout({0, 1, 8}, 8), std::invalid_argument);
  EXPECT_THROW(sv.set_register_layout({-1, 1, 2}, 8), std::invalid_argument);
  EXPECT_NO_THROW(sv.set_register_layout({0, 20, 63}, 64));
  EXPECT_NO_THROW(sv.set_register_layout({14, 100, 1120}, 1121));
}

// --- wide devices ------------------------------------------------------------

QuantumCircuit eight_qubit_job() {
  QuantumCircuit qc(8, 8);
  qc.h(0);
  for (int q = 0; q < 7; ++q) qc.cx(q, q + 1).t(q + 1);
  qc.ry(0.4, 3).cx(7, 0);
  qc.measure_all();
  return qc;
}

TEST(WideDevice, NoisyEightQubitCircuitRunsOnEagle) {
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  ASSERT_EQ(eagle.num_qubits(), 127);
  exec::ExecuteOptions opts;
  opts.shots = 16;
  opts.seed = 5;
  const exec::ExecuteResult direct =
      exec::execute(eight_qubit_job(), eagle, opts);
  EXPECT_EQ(direct.compiled.num_qubits(), 127);
  EXPECT_EQ(direct.counts.shots, 16);
  for (const auto& [bits, count] : direct.counts.histogram)
    EXPECT_EQ(bits.size(), 8u);

  service::ServiceConfig config;
  config.workers = 2;
  service::ExecutionService svc(config);
  const service::JobResult job =
      svc.submit(eight_qubit_job(), eagle, opts, "wide").result();
  ASSERT_EQ(job.state, service::JobState::Done) << job.error;
  EXPECT_EQ(job.counts.histogram, direct.counts.histogram);
}

/// what() of the exception `f` throws ("" when it does not throw).
template <typename F>
std::string thrown_message(const F& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(WideDevice, MoreThanThirtyTouchedQubitsStillThrows) {
  QuantumCircuit qc(40, 1);
  for (int q = 0; q < 31; ++q) qc.h(q);
  qc.measure(0, 0);
  const std::string msg = thrown_message([&] {
    noise::TrajectorySimulator(1).run(qc, noise::NoiseModel{}, 2);
  });
  EXPECT_NE(msg.find("touches 31 qubits"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at most 30"), std::string::npos) << msg;

  // Through exec on Eagle: a 31-qubit noisy GHZ routes fine, then the
  // trajectory engine refuses it with the same message.
  QuantumCircuit ghz(31, 31);
  ghz.h(0);
  for (int q = 0; q < 30; ++q) ghz.cx(q, q + 1);
  ghz.measure_all();
  exec::ExecuteOptions opts;
  opts.shots = 2;
  const std::string via_exec = thrown_message(
      [&] { exec::execute(ghz, arch::heavy_hex_backend(7), opts); });
  EXPECT_NE(via_exec.find("touches 31 qubits"), std::string::npos)
      << via_exec;
}

TEST(WideDevice, IdealEngineRunsEightQubitCircuitOnEagle) {
  // The eight-qubit job at register positions 4, 19, ..., 109 of Eagle's
  // 127: both engines simulate the eight touched qubits, so the counts are
  // the narrow job's.
  const int width = arch::heavy_hex_backend(7).num_qubits();
  const QuantumCircuit job = eight_qubit_job();
  QuantumCircuit wide(width, job.num_clbits());
  for (Operation op : job.ops()) {
    for (int& q : op.qubits) q = 15 * q + 4;
    wide.append(op);
  }
  const sim::Counts counts = sim::StatevectorSimulator(5).run(wide, 64).counts;
  EXPECT_EQ(counts.shots, 64);
  EXPECT_EQ(counts.histogram,
            sim::StatevectorSimulator(5).run(job, 64).counts.histogram);
  EXPECT_EQ(
      noise::TrajectorySimulator(5).run(wide, noise::NoiseModel{}, 64).histogram,
      counts.histogram);
}

TEST(WideDevice, BothEnginesThrowOneWidthMessage) {
  QuantumCircuit qc(40, 1);
  for (int q = 0; q < 31; ++q) qc.h(q);
  qc.measure(0, 0);
  const std::string ideal =
      thrown_message([&] { sim::StatevectorSimulator(1).run(qc, 2); });
  EXPECT_NE(ideal.find("touches 31 qubits"), std::string::npos) << ideal;
  EXPECT_EQ(ideal, thrown_message([&] {
              noise::TrajectorySimulator(1).run(qc, noise::NoiseModel{}, 2);
            }));
}

// --- wide classical registers ------------------------------------------------

TEST(WideClbits, SeventyClbitKeysOnEveryEngine) {
  // Qubit 2 reads 1 into clbit 69 (the leftmost key character) and qubit 0
  // reads 1 into clbit 3; a packed uint64 key would overflow at clbit 64.
  QuantumCircuit qc(3, 70);
  qc.x(2).x(0).measure(2, 69).measure(0, 3).measure(1, 0);
  std::string want(70, '0');
  want[0] = '1';
  want[66] = '1';
  const std::map<std::string, int> all_want = {{want, 8}};

  EXPECT_EQ(noise::TrajectorySimulator(3).run(qc, noise::NoiseModel{}, 8)
                .histogram,
            all_want);
  EXPECT_EQ(sim::StatevectorSimulator(3).run(qc, 8).counts.histogram,
            all_want);
  EXPECT_EQ(noise::DensityMatrixSimulator(3)
                .run(qc, noise::NoiseModel{}, 8)
                .counts.histogram,
            all_want);
  EXPECT_EQ(dd::DDSimulator(3).run(qc, 8).counts.histogram, all_want);

  // Per-shot statevector path (a gate after a measurement).
  QuantumCircuit mid(3, 70);
  mid.x(2).measure(2, 69).x(1).measure(1, 64);
  std::string mid_want(70, '0');
  mid_want[0] = '1';
  mid_want[5] = '1';
  EXPECT_EQ(sim::StatevectorSimulator(3).run(mid, 8).counts.histogram,
            (std::map<std::string, int>{{mid_want, 8}}));
  EXPECT_EQ(noise::TrajectorySimulator(3).run(mid, noise::NoiseModel{}, 8)
                .histogram,
            (std::map<std::string, int>{{mid_want, 8}}));
}

}  // namespace
}  // namespace qtc
