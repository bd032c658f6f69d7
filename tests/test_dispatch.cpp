// Engine dispatch and SIMD kernel-layer tests.
//
// Dispatch: the automatic engine choice must route pure-Clifford circuits to
// the stabilizer tableau (verified end-to-end through exec::execute with the
// engine-use counters, including a 100-qubit GHZ no array engine could
// hold), must never hand a mid-circuit-measurement circuit to the DD engine,
// and must always yield to an explicit override.
//
// SIMD: the vector kernels are validated two ways — a NEAR(1e-12) sweep of
// scalar vs SIMD full states, and golden bit-pattern fixtures captured from
// the pre-SIMD kernels which the scalar fallback (and, by the layer's no-FMA
// determinism contract, the vector paths too) must reproduce exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "arch/coupling_map.hpp"
#include "exec/execute.hpp"
#include "noise/noise_model.hpp"
#include "sim/dispatch.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"

namespace qtc {
namespace {

using sim::Engine;

/// Noiseless options: dispatch only ever fires on noise-free runs, so every
/// routing test pins an explicitly empty noise model.
exec::ExecuteOptions noiseless_options(const noise::NoiseModel& model) {
  exec::ExecuteOptions opts;
  opts.transpile = false;  // keep the circuit's gate kinds (no U/CX rebase)
  opts.noise_model = &model;
  opts.shots = 64;
  return opts;
}

arch::Backend linear_backend(int n) {
  return arch::Backend(arch::linear(n), arch::Calibration{});
}

// --- dispatch decision tree -------------------------------------------------

TEST(Dispatch, ProfileSeesStructure) {
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).t(2).measure_all();
  const sim::CircuitProfile p = sim::profile_circuit(qc);
  EXPECT_EQ(p.num_qubits, 3);
  EXPECT_EQ(p.unitary_gates, 3);
  EXPECT_EQ(p.entangling_gates, 1);
  EXPECT_FALSE(p.clifford_only);  // T is not Clifford
  EXPECT_TRUE(p.has_measurements);
  EXPECT_TRUE(p.measurements_final);
  EXPECT_TRUE(p.dd_compatible());
}

TEST(Dispatch, MidCircuitMeasurementIsNeverDDEligible) {
  QuantumCircuit qc(2, 2);
  qc.h(0).measure(0, 0).cx(0, 1).measure(1, 1);  // gate after a measurement
  const sim::CircuitProfile p = sim::profile_circuit(qc);
  EXPECT_FALSE(p.measurements_final);
  EXPECT_FALSE(p.dd_compatible());
  EXPECT_NE(sim::choose_engine(p).engine, Engine::DecisionDiagram);

  QuantumCircuit with_reset(2, 2);
  with_reset.h(0).reset(0).h(1).measure_all();
  EXPECT_FALSE(sim::profile_circuit(with_reset).dd_compatible());
  EXPECT_NE(sim::choose_engine(with_reset).engine, Engine::DecisionDiagram);
}

TEST(Dispatch, ProfileAndFinalLayerApplyOneRule) {
  // Dispatch routes to DD exactly when the DD engine accepts the circuit:
  // dd_compatible() is sim::final_layer's verdict, case by case.
  const auto agree = [](const QuantumCircuit& qc, bool want) {
    EXPECT_EQ(sim::profile_circuit(qc).dd_compatible(), want);
    EXPECT_EQ(sim::final_layer(qc).ok(), want);
  };
  QuantumCircuit other_wire(2, 2);
  other_wire.h(0).measure(0, 0).barrier().h(1).measure(1, 1);
  agree(other_wire, true);
  QuantumCircuit shared_clbit(2, 1);
  shared_clbit.x(0).measure(0, 0).measure(1, 0);
  agree(shared_clbit, true);
  QuantumCircuit twice(1, 2);
  twice.h(0).measure(0, 0).measure(0, 1);
  agree(twice, false);
  QuantumCircuit gate_after(2, 2);
  gate_after.h(0).measure(0, 0).cx(1, 0);
  agree(gate_after, false);
  QuantumCircuit reset(2, 2);
  reset.reset(1).h(0).measure_all();
  agree(reset, false);
  QuantumCircuit conditioned(2, 2);
  conditioned.h(0).measure(0, 0);
  conditioned.x(1).c_if(0, 1);
  agree(conditioned, false);
}

TEST(Dispatch, CliffordCircuitChoosesStabilizer) {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).s(2).cz(1, 2).swap(2, 3).measure_all();
  EXPECT_EQ(sim::choose_engine(qc).engine, Engine::Stabilizer);
}

TEST(Dispatch, SparseCircuitChoosesDD) {
  // 10 qubits, one entangling chain: entangling gates (9) <= 2n, T gates
  // keep it out of the Clifford route.
  QuantumCircuit qc(10, 10);
  qc.h(0);
  for (int q = 0; q < 9; ++q) qc.cx(q, q + 1);
  qc.t(9);
  qc.measure_all();
  const sim::DispatchDecision d = sim::choose_engine(qc);
  EXPECT_EQ(d.engine, Engine::DecisionDiagram);
  EXPECT_STREQ(d.reason, "sparse entanglement structure");
}

TEST(Dispatch, DenseNonCliffordChoosesStatevector) {
  QuantumCircuit qc(4, 4);
  for (int layer = 0; layer < 5; ++layer) {
    for (int q = 0; q < 4; ++q) qc.t(q);
    for (int q = 0; q < 3; ++q) qc.cx(q, q + 1);
    for (int q = 0; q < 3; ++q) qc.cp(0.3 * (q + 1), q, q + 1);
  }
  qc.measure_all();
  EXPECT_EQ(sim::choose_engine(qc).engine, Engine::Statevector);
}

// --- end-to-end routing through exec::execute -------------------------------

TEST(Dispatch, CliffordRunsOnStabilizerEndToEnd) {
  const noise::NoiseModel noiseless;
  const arch::Backend backend = linear_backend(3);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).measure_all();
  sim::reset_engine_run_counters();
  const exec::ExecuteResult r =
      exec::execute(qc, backend, noiseless_options(noiseless));
  EXPECT_EQ(r.engine, Engine::Stabilizer);
  EXPECT_STREQ(r.dispatch_reason, "clifford-only gate set");
  EXPECT_EQ(sim::engine_runs(Engine::Stabilizer), 1u);
  EXPECT_EQ(sim::engine_runs(Engine::Statevector), 0u);
  // GHZ: only all-zeros and all-ones outcomes.
  for (const auto& [bits, count] : r.counts.histogram) {
    EXPECT_TRUE(bits == "000" || bits == "111") << bits;
    EXPECT_GT(count, 0);
  }
}

TEST(Dispatch, HundredQubitGhzRoutesToStabilizer) {
  // Far beyond any 2^n array: only the tableau engine can take this, and
  // the dispatcher must find that out on its own.
  constexpr int kN = 100;
  const noise::NoiseModel noiseless;
  const arch::Backend backend = linear_backend(kN);
  QuantumCircuit qc(kN, kN);
  qc.h(0);
  for (int q = 0; q < kN - 1; ++q) qc.cx(q, q + 1);  // nearest-neighbor GHZ
  qc.measure_all();
  sim::reset_engine_run_counters();
  exec::ExecuteOptions opts = noiseless_options(noiseless);
  opts.shots = 32;
  const exec::ExecuteResult r = exec::execute(qc, backend, opts);
  EXPECT_EQ(r.engine, Engine::Stabilizer);
  EXPECT_EQ(sim::engine_runs(Engine::Stabilizer), 1u);
  const std::string zeros(kN, '0'), ones(kN, '1');
  int total = 0;
  for (const auto& [bits, count] : r.counts.histogram) {
    EXPECT_TRUE(bits == zeros || bits == ones) << bits;
    total += count;
  }
  EXPECT_EQ(total, 32);
}

TEST(Dispatch, SparseCircuitRunsOnDDEndToEnd) {
  const noise::NoiseModel noiseless;
  const arch::Backend backend = linear_backend(10);
  QuantumCircuit qc(10, 10);
  qc.h(0);
  for (int q = 0; q < 9; ++q) qc.cx(q, q + 1);
  qc.t(9);
  qc.measure_all();
  sim::reset_engine_run_counters();
  const exec::ExecuteResult r =
      exec::execute(qc, backend, noiseless_options(noiseless));
  EXPECT_EQ(r.engine, Engine::DecisionDiagram);
  EXPECT_EQ(sim::engine_runs(Engine::DecisionDiagram), 1u);
}

TEST(Dispatch, ExplicitOverrideBeatsTheDispatcher) {
  const noise::NoiseModel noiseless;
  const arch::Backend backend = linear_backend(3);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).measure_all();  // would auto-route to stabilizer
  sim::reset_engine_run_counters();
  exec::ExecuteOptions opts = noiseless_options(noiseless);
  opts.engine = Engine::Statevector;
  const exec::ExecuteResult r = exec::execute(qc, backend, opts);
  EXPECT_EQ(r.engine, Engine::Statevector);
  EXPECT_STREQ(r.dispatch_reason, "explicit override");
  EXPECT_EQ(sim::engine_runs(Engine::Statevector), 1u);
  EXPECT_EQ(sim::engine_runs(Engine::Stabilizer), 0u);
}

TEST(Dispatch, NoisyRunsPinToTrajectoryEngine) {
  // Default execution derives noise from the backend; a Clifford circuit
  // must still run on the trajectory engine then.
  const noise::NoiseModel noisy = noise::uniform_depolarizing(0.01, 0.05);
  ASSERT_TRUE(noisy.has_noise());
  const arch::Backend backend = linear_backend(2);
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  sim::reset_engine_run_counters();
  exec::ExecuteOptions opts = noiseless_options(noisy);
  const exec::ExecuteResult r = exec::execute(qc, backend, opts);
  EXPECT_EQ(r.engine, Engine::Statevector);
  EXPECT_STREQ(r.dispatch_reason, "noise model active");
  // Requesting an engine that cannot apply Kraus channels is a contract
  // violation, not a silent fallback.
  opts.engine = Engine::Stabilizer;
  EXPECT_THROW(exec::execute(qc, backend, opts), std::invalid_argument);
  opts.engine = Engine::DecisionDiagram;
  EXPECT_THROW(exec::execute(qc, backend, opts), std::invalid_argument);
}

TEST(Dispatch, KnobDisablesAutomaticRouting) {
  const noise::NoiseModel noiseless;
  const arch::Backend backend = linear_backend(3);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).measure_all();
  sim::set_dispatch_enabled(0);
  const exec::ExecuteResult r =
      exec::execute(qc, backend, noiseless_options(noiseless));
  sim::set_dispatch_enabled(-1);
  EXPECT_EQ(r.engine, Engine::Statevector);
  EXPECT_STREQ(r.dispatch_reason, "dispatch disabled");
}

// --- SIMD kernel layer ------------------------------------------------------

/// Exercises every specialized kernel once fused: 1q runs, diagonal runs,
/// permutation runs, controlled and dense merges. Mirrors the circuit the
/// golden fixtures below were captured from (pre-SIMD build).
QuantumCircuit kernel_mix_circuit() {
  QuantumCircuit qc(5, 5);
  qc.h(0).h(1).h(2).h(3).h(4);
  qc.t(0).rz(0.3, 1).cz(0, 1).cp(0.7, 1, 2);
  qc.x(2).cx(2, 3).swap(3, 4);
  qc.ccx(0, 1, 2).crx(0.5, 2, 3);
  qc.u(0.4, 0.2, -0.6, 4).sx(0).ry(1.1, 1);
  qc.cx(0, 4).rz(-0.9, 4).h(3).cz(3, 4);
  qc.rxx(0.25, 0, 1).t(2).tdg(3);
  return qc;
}

QuantumCircuit deep_circuit() {
  QuantumCircuit qc(6, 6);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q < 6; ++q) qc.u(0.1 * (layer + 1), 0.2 * q, -0.15 * q, q);
    for (int q = 0; q < 5; ++q) qc.cx(q, q + 1);
    for (int q = 0; q < 6; ++q) qc.rz(0.05 * (q + 1) * (layer + 1), q);
    qc.swap(0, 5).ccx(1, 2, 3).cp(0.33 * (layer + 1), 4, 5);
  }
  return qc;
}

sim::AmpVector run_state(const QuantumCircuit& qc, int fusion, int simd) {
  sim::set_fusion_enabled(fusion);
  sim::simd::set_simd_enabled(simd);
  sim::StatevectorSimulator svsim;
  sim::AmpVector amps = svsim.statevector(qc).amplitudes();
  sim::simd::set_simd_enabled(-1);
  sim::set_fusion_enabled(-1);
  return amps;
}

TEST(Simd, ScalarAndVectorStatesAgree) {
  for (const auto& qc : {kernel_mix_circuit(), deep_circuit()}) {
    for (int fusion = 0; fusion <= 1; ++fusion) {
      const sim::AmpVector scalar = run_state(qc, fusion, 0);
      const sim::AmpVector vec = run_state(qc, fusion, 1);
      ASSERT_EQ(scalar.size(), vec.size());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        EXPECT_NEAR(scalar[i].real(), vec[i].real(), 1e-12);
        EXPECT_NEAR(scalar[i].imag(), vec[i].imag(), 1e-12);
      }
    }
  }
}

struct GoldenAmp {
  std::uint64_t re, im;
};

void expect_bitwise(const sim::AmpVector& amps, const GoldenAmp* golden,
                    std::size_t n) {
  ASSERT_EQ(amps.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t re, im;
    const double r = amps[i].real(), m = amps[i].imag();
    std::memcpy(&re, &r, 8);
    std::memcpy(&im, &m, 8);
    EXPECT_EQ(re, golden[i].re) << "real bits differ at amplitude " << i;
    EXPECT_EQ(im, golden[i].im) << "imag bits differ at amplitude " << i;
  }
}

// Bit patterns captured from the pre-SIMD kernels (same circuits, same
// build flags). The scalar fallback must reproduce them exactly — it *is*
// those kernels — and the vector paths must too, by the no-FMA contract.
constexpr GoldenAmp kGoldenMixFusionOff[32] = {
    {0x3fcf214fc633f384ull, 0x3fbf2751dc5bbb02ull},
    {0x3f65051dc68088fcull, 0x3fc19d54ed0116dbull},
    {0xbfac6aa08c44c742ull, 0x3fbea3036c7f2e46ull},
    {0x3fd4078bc98d991full, 0xbfc09370183db071ull},
    {0x3faf165b093f940cull, 0x3fc69138a788b958ull},
    {0xbfbd699f3729fcefull, 0x3fba0755c48d9539ull},
    {0x3fa07447c99e8e3cull, 0x3fc305478fdc07c1ull},
    {0x3fdae60de6b8f303ull, 0x3fae846a4c80a8d8ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x3fd1c4768057bf12ull, 0xbfd435f38068772bull},
    {0x3fa9a976935fd4e7ull, 0x3fb1b5e032179c08ull},
    {0x3fc2fbc8d567a453ull, 0x3fc0c643abc91a92ull},
    {0x3fbeab71d92b19fbull, 0xbfc8be089dc38547ull},
    {0x3fd404527074ba4full, 0xbfa0eeef663413a0ull},
    {0xbfa92776bd0fd00cull, 0x3fb5dd6d5fcca8fbull},
    {0x3fc97d8bbc964783ull, 0x3f9776954b83ac64ull},
    {0x3fd1757708727beeull, 0xbfbf840a63fdf7bdull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
};

constexpr GoldenAmp kGoldenMixFusionOn[32] = {
    {0x3fcf214fc633f384ull, 0x3fbf2751dc5bbb02ull},
    {0x3f65051dc68088fcull, 0x3fc19d54ed0116dbull},
    {0xbfac6aa08c44c742ull, 0x3fbea3036c7f2e46ull},
    {0x3fd4078bc98d991full, 0xbfc09370183db072ull},
    {0x3faf165b093f940cull, 0x3fc69138a788b958ull},
    {0xbfbd699f3729fcf0ull, 0x3fba0755c48d9538ull},
    {0x3fa07447c99e8e3cull, 0x3fc305478fdc07c1ull},
    {0x3fdae60de6b8f303ull, 0x3fae846a4c80a8d8ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x3fd1c4768057bf12ull, 0xbfd435f38068772bull},
    {0x3fa9a976935fd4e6ull, 0x3fb1b5e032179c08ull},
    {0x3fc2fbc8d567a453ull, 0x3fc0c643abc91a91ull},
    {0x3fbeab71d92b19fbull, 0xbfc8be089dc38547ull},
    {0x3fd404527074ba4full, 0xbfa0eeef663413a0ull},
    {0xbfa92776bd0fd00cull, 0x3fb5dd6d5fcca8fbull},
    {0x3fc97d8bbc964783ull, 0x3f9776954b83ac64ull},
    {0x3fd1757708727beeull, 0xbfbf840a63fdf7bdull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
    {0x0000000000000000ull, 0x0000000000000000ull},
};

constexpr GoldenAmp kGoldenDeepFusionOn[64] = {
    {0x3fdd094a495e0e2aull, 0x3fe4e0144153d42full},
    {0xbfc64628c065ab00ull, 0xbf89b58627269090ull},
    {0xbf98734b2f477fa5ull, 0x3fa08f5e8cb39690ull},
    {0x3fb5fbb2cfa82e4cull, 0x3f72fad3bec8b829ull},
    {0xbfa2ae2b2266c745ull, 0x3f7f9fd63c851c84ull},
    {0x3fb24693d5e20b4full, 0x3fa3ff0cbf563693ull},
    {0xbfa089326ce1a726ull, 0xbf93ab4eacd39264ull},
    {0x3fa2b01791e6498full, 0x3f8523ebde740a57ull},
    {0xbfa6400a8ae2544cull, 0x3f6714ec71692cd8ull},
    {0x3f7563d674ffaa56ull, 0xbf7198eddd51c07dull},
    {0xbf52b8ea0365c73bull, 0x3f59841a209c29f7ull},
    {0x3f6e3afe1ce39378ull, 0xbf6abe7acd015e90ull},
    {0xbf8c1473d7c5eb3eull, 0xbf924b86b9d8364aull},
    {0x3f9ad9d31b884881ull, 0xbfaf3365ddb0fe77ull},
    {0xbfa614fa9e259d6eull, 0x3f9b00a032abe900ull},
    {0x3fab8e931f2b4655ull, 0x3fb3fbd0fb4eb992ull},
    {0xbf9466f7dbb54f22ull, 0xbfa4d84cf0bd6d0aull},
    {0xbfbd33d7dc360b27ull, 0xbfbd5d387710b569ull},
    {0x3f7fbc749e474fffull, 0xbf7a274f48bd4774ull},
    {0x3f8bed3703274c30ull, 0xbf83d770c0a783b7ull},
    {0x3f8b96c387ca1e39ull, 0xbf733ada592bde3cull},
    {0x3f87b3d19da1bf8bull, 0xbf90e505db9e1744ull},
    {0x3f880ec95023e14full, 0xbfb574b69a89bdb1ull},
    {0x3fb8935b873adfa2ull, 0xbfc254dcbded7a3cull},
    {0xbfa0ff8288b785b4ull, 0xbfa450d30f17353bull},
    {0xbf8102929365efacull, 0xbfc494c6810cfc65ull},
    {0x3f9c2729ab1f8359ull, 0x3fa6b751bc8da034ull},
    {0x3fa224bcb048396cull, 0xbf8d16e7312393fdull},
    {0xbf8f03983c65ae1dull, 0xbfaa6b40e77fb343ull},
    {0x3fb04ed69131e218ull, 0xbfc42ee20c17f241ull},
    {0xbfa2d829c55d725bull, 0xbf93294edd91b819ull},
    {0xbf833745c69973deull, 0x3f5a8b5a3d6d3bf0ull},
    {0x3f79b672c859973cull, 0xbf89d254685187fbull},
    {0x3f411d54a3f257ecull, 0xbf85b42e68ea43bbull},
    {0xbf644be5009378eeull, 0xbf84739647ff475cull},
    {0x3f94dd6f14b71af3ull, 0xbf92cb373aa936c4ull},
    {0x3fa4581a30db646cull, 0x3f999461b0f8dcadull},
    {0xbf6d7045267249aeull, 0xbf7a9d6ae5e502d5ull},
    {0x3fb47c7522017091ull, 0xbfb916163ae137e2ull},
    {0x3f68c42b662cf1a0ull, 0x3fa1e9e4e27234d4ull},
    {0x3f9be12c9ae04b2dull, 0xbf77d065452bf924ull},
    {0x3f9fac1b9d4257f3ull, 0x3f7d527bcd217c9cull},
    {0x3fc3435e5b46a6f4ull, 0xbfa643bc4106f24aull},
    {0x3f8130d6b59a6916ull, 0x3f95f9e7d56960d5ull},
    {0x3fbb9d5d94e5188aull, 0xbf982d8d970da4b8ull},
    {0xbfc13b489894eac7ull, 0x3fb27c6b1e49cd33ull},
    {0xbf9a037dd9285788ull, 0x3f84d55e52e84983ull},
    {0x3fa1a416ad7ffad7ull, 0xbf81e1c2d943e21dull},
    {0x3fa050228ef424adull, 0xbf9a413a0b432313ull},
    {0x3f60f47d0a82dbefull, 0xbf7a9dab6021b3a6ull},
    {0x3f98bd7d05e6e2a4ull, 0xbfa77868f6293317ull},
    {0x3f8d6b3bc9f8dd06ull, 0xbf92e7e812cab890ull},
    {0xbfa25d0165751ee1ull, 0xbfba0a6a5ced1d81ull},
    {0xbfaed39ea224328eull, 0x3f8c554935969df4ull},
    {0x3f97e6e2b467be18ull, 0x3f96a129ec052d9cull},
    {0x3fbaf666b5afacc5ull, 0x3fc2194d43f3cf1aull},
    {0xbf94291d64713f1dull, 0x3f8711819ca11afeull},
    {0x3f8966779c4e4304ull, 0xbf56ee1e9ddfd75cull},
    {0xbf790ba481870ec8ull, 0xbfba9535444a62d6ull},
    {0x3f95f60c38469f2eull, 0x3f88f383bd290ec9ull},
    {0x3f860b2753f30899ull, 0xbf7190b5ce4463eaull},
    {0x3f86ac77d295d662ull, 0xbf8aca3300138b8cull},
    {0xbf9d473cfb443d1bull, 0x3f90ef4172078ab6ull},
    {0xbfbc2a883b70613aull, 0x3fb0507cbcc6c363ull},
};

const std::map<std::string, int> kGoldenCounts = {
    {"00000", 18},
    {"00001", 5},
    {"00010", 7},
    {"00011", 32},
    {"00100", 5},
    {"00101", 4},
    {"00110", 3},
    {"00111", 53},
    {"10000", 43},
    {"10001", 2},
    {"10010", 13},
    {"10011", 8},
    {"10100", 22},
    {"10101", 5},
    {"10110", 11},
    {"10111", 25},
};

TEST(Simd, ScalarFallbackIsBitwiseIdenticalToPreSimdKernels) {
  expect_bitwise(run_state(kernel_mix_circuit(), 0, 0), kGoldenMixFusionOff,
                 32);
  expect_bitwise(run_state(kernel_mix_circuit(), 1, 0), kGoldenMixFusionOn,
                 32);
  expect_bitwise(run_state(deep_circuit(), 1, 0), kGoldenDeepFusionOn, 64);
}

TEST(Simd, VectorPathIsBitwiseIdenticalToPreSimdKernels) {
  // Only meaningful where a vector path exists; on scalar-only hosts (or
  // -DQTC_DISABLE_SIMD builds) this re-checks the fallback, which is fine.
  expect_bitwise(run_state(kernel_mix_circuit(), 0, 1), kGoldenMixFusionOff,
                 32);
  expect_bitwise(run_state(kernel_mix_circuit(), 1, 1), kGoldenMixFusionOn,
                 32);
  expect_bitwise(run_state(deep_circuit(), 1, 1), kGoldenDeepFusionOn, 64);
}

TEST(Simd, FixedSeedCountsMatchPreSimdGoldens) {
  QuantumCircuit qc = kernel_mix_circuit();
  qc.measure_all();
  for (int simd = 0; simd <= 1; ++simd) {
    SCOPED_TRACE(simd ? "simd on" : "simd off");
    sim::set_fusion_enabled(1);
    sim::simd::set_simd_enabled(simd);
    sim::StatevectorSimulator s(12345);
    const auto counts = s.run(qc, 256).counts;
    sim::simd::set_simd_enabled(-1);
    sim::set_fusion_enabled(-1);
    EXPECT_EQ(counts.histogram, kGoldenCounts);
  }
}

TEST(Simd, KnobReportsState) {
  sim::simd::set_simd_enabled(0);
  EXPECT_FALSE(sim::simd::simd_enabled());
  EXPECT_EQ(sim::simd::select(), sim::simd::Isa::Scalar);
  sim::simd::set_simd_enabled(1);
  EXPECT_TRUE(sim::simd::simd_enabled());
  if (sim::simd::vector_available()) {
    EXPECT_NE(sim::simd::select(), sim::simd::Isa::Scalar);
  }
  sim::simd::set_simd_enabled(-1);
  EXPECT_STREQ(sim::simd::isa_name(sim::simd::Isa::Scalar), "scalar");
}

}  // namespace
}  // namespace qtc
