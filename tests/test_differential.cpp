// Differential-testing harness across the simulator portfolio: seeded random
// circuits are executed by the array (statevector), decision-diagram and —
// when Clifford-only — stabilizer engines, which must agree on probabilities
// and counts; each circuit additionally goes through the transpiler and must
// stay equivalent on the physical qubits. Any disagreement localizes a bug
// to one engine (or to a transpiler pass) without needing a known-good
// reference. Every cross-check runs under all four gate-fusion x SIMD
// combinations, so both the fused execution pipeline and the vector kernel
// layer face the same differential vote as the raw scalar kernels, and a
// dedicated test pins fixed-seed counts to be identical in every mode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "dd/simulator.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "qbin/qbin.hpp"
#include "reference_stabilizer.hpp"
#include "service/execution_service.hpp"
#include "sim/fusion.hpp"
#include "sim/simd.hpp"
#include "sim/stabilizer.hpp"
#include "sim/simulator.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/transpile.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc {
namespace {

/// Runs a test body under every fusion x SIMD combination, restoring the
/// env/default configuration afterwards. SCOPED_TRACE labels failures with
/// the active mode. (With SIMD compiled out or unsupported on the host the
/// simd-on legs transparently run the scalar path — still a valid vote.)
template <typename Body>
void with_fusion_off_and_on(const Body& body) {
  for (int fusion = 0; fusion <= 1; ++fusion) {
    for (int simd = 0; simd <= 1; ++simd) {
      SCOPED_TRACE(std::string(fusion ? "fusion on" : "fusion off") +
                   (simd ? ", simd on" : ", simd off"));
      sim::set_fusion_enabled(fusion);
      sim::simd::set_simd_enabled(simd);
      body();
    }
  }
  sim::set_fusion_enabled(-1);
  sim::simd::set_simd_enabled(-1);
}

/// Universal gate mix (CX/rz-heavy, matching transpiler targets) over
/// 2..10 qubits with a trailing measure-all layer.
QuantumCircuit random_measured_circuit(std::uint64_t seed) {
  const int n = 2 + static_cast<int>(seed % 9);  // 2..10 qubits
  const int gates = 15 + static_cast<int>((seed * 7) % 36);
  Rng rng(seed * 7919 + 1);
  QuantumCircuit qc(n, n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(9)) {
      case 0:
        qc.h(q);
        break;
      case 1:
        qc.t(q);
        break;
      case 2:
        qc.rz(rng.uniform(-PI, PI), q);
        break;
      case 3:
        qc.sx(q);
        break;
      case 4:
        qc.u(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI),
             q);
        break;
      case 5:
        qc.cz(q, q2);
        break;
      case 6:
        qc.cp(rng.uniform(-PI, PI), q, q2);
        break;
      case 7:
        qc.swap(q, q2);
        break;
      default:
        qc.cx(q, q2);
    }
  }
  qc.measure_all();
  return qc;
}

/// Clifford-only mix so the stabilizer engine can join the vote.
QuantumCircuit random_clifford_circuit(std::uint64_t seed) {
  const int n = 2 + static_cast<int>(seed % 5);  // 2..6 qubits
  const int gates = 12 + static_cast<int>((seed * 5) % 25);
  Rng rng(seed * 104729 + 3);
  QuantumCircuit qc(n, n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(7)) {
      case 0:
        qc.h(q);
        break;
      case 1:
        qc.s(q);
        break;
      case 2:
        qc.x(q);
        break;
      case 3:
        qc.sdg(q);
        break;
      case 4:
        qc.cz(q, q2);
        break;
      case 5:
        qc.swap(q, q2);
        break;
      default:
        qc.cx(q, q2);
    }
  }
  qc.measure_all();
  return qc;
}

constexpr std::uint64_t kNumCircuits = 50;

// --- array vs decision-diagram: exact state agreement ------------------------

TEST(Differential, ArrayAndDDStatesAgreeOnRandomCircuits) {
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed = 1; seed <= kNumCircuits; ++seed) {
      const QuantumCircuit qc = random_measured_circuit(seed).unitary_part();
      sim::StatevectorSimulator array;
      const auto sv = array.statevector(qc).amplitudes();
      dd::DDSimulator dds;
      const auto dd_amps = dds.statevector(qc);
      EXPECT_TRUE(states_equal_up_to_phase(sv, dd_amps, 1e-7))
          << "engines disagree on seed " << seed;
    }
  });
}

// --- counts-level agreement on the small circuits ----------------------------

TEST(Differential, ArrayAndDDCountsAgreeOnSmallCircuits) {
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed = 1; seed <= kNumCircuits; ++seed) {
      const QuantumCircuit qc = random_measured_circuit(seed);
      if (qc.num_qubits() > 4) continue;  // keep per-bin statistics meaningful
      const int shots = 4000;
      sim::StatevectorSimulator array(seed);
      dd::DDSimulator dds(seed + 1);
      const auto ca = array.run(qc, shots).counts;
      const auto cd = dds.run(qc, shots).counts;
      ASSERT_EQ(ca.shots, shots);
      ASSERT_EQ(cd.shots, shots);
      for (std::uint64_t i = 0; i < (std::uint64_t{1} << qc.num_qubits());
           ++i) {
        const std::string bits = sim::format_bits(i, qc.num_qubits());
        EXPECT_NEAR(ca.probability(bits), cd.probability(bits), 0.05)
            << "seed " << seed << " bits " << bits;
      }
    }
  });
}

// --- three-engine vote on Clifford circuits ----------------------------------

TEST(Differential, ThreeEnginesAgreeOnCliffordCircuits) {
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const QuantumCircuit qc = random_clifford_circuit(seed);
      ASSERT_TRUE(sim::is_clifford_circuit(qc)) << "generator broke, seed "
                                                << seed;
      const int shots = 4000;
      sim::StatevectorSimulator array(seed);
      sim::StabilizerSimulator tableau(seed + 1);
      dd::DDSimulator dds(seed + 2);
      const auto ca = array.run(qc, shots).counts;
      const auto ct = tableau.run(qc, shots);
      const auto cd = dds.run(qc, shots).counts;
      for (std::uint64_t i = 0; i < (std::uint64_t{1} << qc.num_qubits());
           ++i) {
        const std::string bits = sim::format_bits(i, qc.num_qubits());
        EXPECT_NEAR(ca.probability(bits), ct.probability(bits), 0.05)
            << "stabilizer vs array, seed " << seed << " bits " << bits;
        EXPECT_NEAR(ca.probability(bits), cd.probability(bits), 0.05)
            << "dd vs array, seed " << seed << " bits " << bits;
      }
    }
  });
}

// --- dynamic Clifford circuits: packed vs byte vs array ----------------------

/// Clifford mix with mid-circuit measurement, reset and classically
/// conditioned Paulis — the dynamic-circuit surface of the tableau engines.
/// Conditioned seeds exercise the per-shot packed fallback; unconditioned
/// ones the tableau-once skeleton sampler.
QuantumCircuit random_dynamic_clifford_circuit(std::uint64_t seed) {
  const int n = 2 + static_cast<int>(seed % 3);  // 2..4 qubits
  const int gates = 16 + static_cast<int>((seed * 11) % 17);
  Rng rng(seed * 52361 + 9);
  QuantumCircuit qc(n, n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(10)) {
      case 0:
        qc.h(q);
        break;
      case 1:
        qc.s(q);
        break;
      case 2:
        qc.x(q);
        break;
      case 3:
        qc.cx(q, q2);
        break;
      case 4:
        qc.cz(q, q2);
        break;
      case 5:
        qc.measure(q, q);  // mid-circuit
        break;
      case 6:
        qc.reset(q);
        break;
      case 7:
        qc.x(q).c_if(0, rng.index(std::uint64_t{1} << n));
        break;
      case 8:
        qc.z(q).c_if(0, 0);  // true until some clbit reads 1
        break;
      default:
        qc.swap(q, q2);
    }
  }
  qc.measure_all();
  return qc;
}

TEST(Differential, DynamicCliffordCircuitsAgreeAcrossStabilizerPathsAndArray) {
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const QuantumCircuit qc = random_dynamic_clifford_circuit(seed);
      ASSERT_TRUE(sim::is_clifford_circuit(qc)) << "generator broke, seed "
                                                << seed;
      const int shots = 4000;
      // Packed vs byte is an exact contract: identical per-shot coin
      // streams make the histograms bitwise equal, not just statistically
      // close.
      sim::StabilizerSimulator tableau(seed + 1);
      const auto cp = tableau.run(qc, shots);
      const auto cb = testing::reference_stabilizer_run(qc, seed + 1, shots);
      EXPECT_EQ(cp.histogram, cb.histogram) << "packed vs byte, seed "
                                            << seed;
      // The array engine votes statistically on the same distribution.
      sim::StatevectorSimulator array(seed);
      const auto ca = array.run(qc, shots).counts;
      for (std::uint64_t i = 0; i < (std::uint64_t{1} << qc.num_qubits());
           ++i) {
        const std::string bits = sim::format_bits(i, qc.num_qubits());
        EXPECT_NEAR(ca.probability(bits), cp.probability(bits), 0.05)
            << "stabilizer vs array, seed " << seed << " bits " << bits;
      }
    }
  });
}

// --- transpilation preserves every circuit -----------------------------------

TEST(Differential, TranspiledCircuitsStayEquivalent) {
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed = 1; seed <= kNumCircuits; ++seed) {
      const QuantumCircuit logical = random_measured_circuit(seed);
      const bool small = logical.num_qubits() <= 5;
      const arch::Backend backend =
          small ? arch::qx4_backend() : arch::qx5_backend();
      const auto result = transpiler::transpile(logical, backend);
      ASSERT_TRUE(transpiler::satisfies_coupling(result.circuit,
                                                 backend.coupling_map()))
          << "seed " << seed;
      sim::StatevectorSimulator sim;
      const auto mapped = sim.statevector(result.circuit).amplitudes();
      const auto expected =
          map::embed_state(sim.statevector(logical).amplitudes(),
                           result.final_layout, backend.num_qubits());
      EXPECT_TRUE(states_equal_up_to_phase(mapped, expected, 1e-7))
          << "transpilation broke equivalence on seed " << seed;
    }
  });
}

// --- transpiled circuits re-enter the differential vote ----------------------

TEST(Differential, TranspiledCliffordCountsSurviveAcrossEngines) {
  // Clifford circuits stay Clifford-representable through routing (SWAP/CX
  // insertion), so all three engines must still agree after transpilation
  // once counts are read through the clbit wiring. Routing can interleave
  // SWAPs between the measurements, which forces the per-shot path — stick
  // to the 5-qubit QX4 so that path stays cheap.
  with_fusion_off_and_on([&] {
    for (std::uint64_t seed : {1u, 2u, 3u, 5u, 6u}) {
      const QuantumCircuit logical = random_clifford_circuit(seed);
      ASSERT_LE(logical.num_qubits(), 5);
      const auto result = transpiler::transpile(logical, arch::qx4_backend());
      const int shots = 4000;
      sim::StatevectorSimulator array(seed);
      const auto before = array.run(logical, shots).counts;
      sim::StatevectorSimulator array2(seed + 17);
      const auto after = array2.run(result.circuit, shots).counts;
      for (std::uint64_t i = 0;
           i < (std::uint64_t{1} << logical.num_qubits()); ++i) {
        const std::string bits = sim::format_bits(i, logical.num_qubits());
        EXPECT_NEAR(before.probability(bits), after.probability(bits), 0.05)
            << "seed " << seed << " bits " << bits;
      }
    }
  });
}

// --- noisy engines join the vote: trajectories vs exact density matrix ------

TEST(Differential, TrajectoryMatchesDensityMatrixFusionOffAndOn) {
  // The Monte-Carlo trajectory engine and the exact density-matrix engine
  // share nothing but the channel definitions, so agreement on random noisy
  // circuits localizes bugs to one of them. No readout error here, so the
  // exact outcome distribution is the evolved rho's diagonal read through
  // the identity measure-all wiring. Runs with fusion off AND on: the
  // noise-aware trajectory plan must not let a fused kernel cross a channel.
  const noise::NoiseModel model = noise::uniform_depolarizing(0.005, 0.02);
  with_fusion_off_and_on([&] {
    int tested = 0;
    for (std::uint64_t seed = 1; seed <= kNumCircuits && tested < 8; ++seed) {
      const QuantumCircuit qc = random_measured_circuit(seed);
      if (qc.num_qubits() > 4) continue;  // DM cost is 4^n
      ++tested;
      noise::DensityMatrixSimulator dms;
      const auto exact = dms.evolve(qc, model).probabilities();
      noise::TrajectorySimulator traj(seed * 31 + 5);
      const auto counts = traj.run(qc, model, 6000);
      for (std::uint64_t i = 0; i < exact.size(); ++i) {
        const std::string bits = sim::format_bits(i, qc.num_qubits());
        EXPECT_NEAR(counts.probability(bits), exact[i], 0.03)
            << "trajectory vs density matrix, seed " << seed << " bits "
            << bits;
      }
    }
    ASSERT_GE(tested, 4) << "generator stopped producing small circuits";
  });
}

// --- the execution service joins the vote ------------------------------------

TEST(Differential, ServicePathMatchesDirectExecuteAndArrayEngine) {
  // A sample of the standing cross-checks routed through
  // ExecutionService::submit: the async service (3 workers, concurrent
  // submission) must return counts bitwise equal to a direct
  // exec::execute with the same seed, and — executed noiselessly — those
  // counts must agree with the array engine's logical-circuit distribution,
  // so the whole transpile+dispatch path re-enters the engine-equivalence
  // oracle.
  const noise::NoiseModel noiseless;  // empty model: exact unitary sampling
  const int shots = 4000;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= kNumCircuits && seeds.size() < 6; ++seed)
    if (random_measured_circuit(seed).num_qubits() <= 5) seeds.push_back(seed);
  ASSERT_GE(seeds.size(), 4u);

  service::ServiceConfig config;
  config.workers = 3;
  service::ExecutionService svc(config);
  const arch::Backend backend = arch::qx4_backend();
  std::vector<service::JobHandle> handles;
  std::vector<exec::ExecuteOptions> opts_used;
  for (std::uint64_t seed : seeds) {
    exec::ExecuteOptions opts;
    opts.shots = shots;
    opts.seed = seed * 101 + 7;
    opts.noise_model = &noiseless;
    opts_used.push_back(opts);
    handles.push_back(svc.submit(random_measured_circuit(seed), backend, opts,
                                 "differential"));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    SCOPED_TRACE("seed " + std::to_string(seed));
    const service::JobResult r = handles[i].result();
    ASSERT_EQ(r.state, service::JobState::Done) << r.error;
    const QuantumCircuit logical = random_measured_circuit(seed);
    const auto direct = exec::execute(logical, backend, opts_used[i]);
    EXPECT_EQ(r.counts.histogram, direct.counts.histogram)
        << "service counts diverged from direct exec::execute";
    sim::StatevectorSimulator array(seed);
    const auto expected = array.run(logical, shots).counts;
    for (std::uint64_t b = 0; b < (std::uint64_t{1} << logical.num_qubits());
         ++b) {
      const std::string bits = sim::format_bits(b, logical.num_qubits());
      EXPECT_NEAR(r.counts.probability(bits), expected.probability(bits), 0.05)
          << "service vs array engine, bits " << bits;
    }
  }
}

TEST(Differential, QbinServicePathMatchesDirectExecute) {
  // The QBIN ingest fast path re-enters the same oracle: a circuit shipped
  // to the service as a pre-encoded binary payload must produce counts
  // bitwise equal to a direct exec::execute of the original circuit: the
  // decode is lossless, and a warm compile out of the transpile cache is
  // bitwise the cold one.
  const noise::NoiseModel noiseless;
  const int shots = 4000;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= kNumCircuits && seeds.size() < 6; ++seed)
    if (random_measured_circuit(seed).num_qubits() <= 5) seeds.push_back(seed);
  ASSERT_GE(seeds.size(), 4u);
  const arch::Backend backend = arch::qx4_backend();

  service::ServiceConfig config;
  config.workers = 3;
  service::ExecutionService svc(config);
  std::vector<service::JobHandle> handles;
  std::vector<exec::ExecuteOptions> opts_used;
  for (std::uint64_t seed : seeds) {
    exec::ExecuteOptions opts;
    opts.shots = shots;
    opts.seed = seed * 131 + 5;
    opts.noise_model = &noiseless;
    opts_used.push_back(opts);
    const qbin::Bytes payload = qbin::encode(random_measured_circuit(seed));
    handles.push_back(svc.submit(payload, backend, opts, "qbin"));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    const service::JobResult r = handles[i].result();
    ASSERT_EQ(r.state, service::JobState::Done) << r.error;
    const auto direct = exec::execute(random_measured_circuit(seeds[i]),
                                      backend, opts_used[i]);
    EXPECT_EQ(r.counts.histogram, direct.counts.histogram)
        << "QBIN service counts diverged from direct exec::execute";
  }
}

TEST(Differential, QbinAndCircuitSubmissionsBatchTogether) {
  // A decoded payload keys the transpile cache exactly like the circuit it
  // encodes, so a mixed stream of 1 circuit + 7 payload submissions of one
  // ansatz structure — different angles — pays one mapper run and compiles
  // the rest warm, with every job's counts still bitwise equal to its own
  // direct execution.
  const noise::NoiseModel noiseless;
  auto ansatz = [](double a, double b) {
    QuantumCircuit qc(3, 3);
    qc.ry(a, 0).ry(b, 1).cx(0, 1).ry(a + b, 2).cx(1, 2);
    qc.measure_all();
    return qc;
  };
  const arch::Backend backend = arch::qx4_backend();
  transpiler::TranspileCache::global().clear();
  const std::uint64_t mapper_runs_before = map::mapper_run_count();
  service::ServiceConfig config;
  config.workers = 1;
  service::ExecutionService svc(config);
  std::vector<service::JobHandle> handles;
  std::vector<QuantumCircuit> circuits;
  std::vector<exec::ExecuteOptions> opts_used;
  for (int i = 0; i < 8; ++i) {
    exec::ExecuteOptions opts;
    opts.shots = 1000;
    opts.seed = 900 + i;
    opts.noise_model = &noiseless;
    opts_used.push_back(opts);
    circuits.push_back(ansatz(0.2 + 0.1 * i, -0.4 + 0.05 * i));
    if (i == 0)
      handles.push_back(svc.submit(circuits.back(), backend, opts, "mixed"));
    else
      handles.push_back(
          svc.submit(qbin::encode(circuits.back()), backend, opts, "mixed"));
  }
  svc.drain();
  EXPECT_EQ(map::mapper_run_count(), mapper_runs_before + 1)
      << "same-structure circuit and payload submissions did not share a "
         "compile";
  for (std::size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const service::JobResult r = handles[i].result();
    ASSERT_EQ(r.state, service::JobState::Done) << r.error;
    const auto direct = exec::execute(circuits[i], backend, opts_used[i]);
    EXPECT_EQ(r.counts.histogram, direct.counts.histogram);
  }
  EXPECT_EQ(svc.stats().cache_hits, 7u);
}

// --- fusion on/off: fixed-seed counts must be bitwise identical --------------

TEST(Differential, FusionOnOffCountsIdenticalForFixedSeed) {
  // The fused plan reorders no operations and every kernel preserves the
  // engine's determinism contract, so a fixed-seed run must produce the
  // exact same histogram with fusion on and off — on the sampling-friendly
  // path (final measurement layer) for every seeded random circuit, and on
  // the per-shot path once a mid-circuit conditional forces re-execution.
  for (std::uint64_t seed = 1; seed <= kNumCircuits; ++seed) {
    const QuantumCircuit qc = random_measured_circuit(seed);
    sim::set_fusion_enabled(0);
    sim::StatevectorSimulator off(seed);
    const auto counts_off = off.run(qc, 1024).counts;
    sim::set_fusion_enabled(1);
    sim::StatevectorSimulator on(seed);
    const auto counts_on = on.run(qc, 1024).counts;
    EXPECT_EQ(counts_off.histogram, counts_on.histogram)
        << "fusion changed fixed-seed counts on seed " << seed;
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    QuantumCircuit qc = random_measured_circuit(seed);
    // Turn the final measurement layer into a mid-circuit one: condition an
    // extra layer on the first clbit, then re-measure everything.
    qc.x(0).c_if(0, 1);
    qc.h(1);
    qc.measure_all();
    sim::set_fusion_enabled(0);
    sim::StatevectorSimulator off(seed);
    const auto counts_off = off.run(qc, 512).counts;
    sim::set_fusion_enabled(1);
    sim::StatevectorSimulator on(seed);
    const auto counts_on = on.run(qc, 512).counts;
    EXPECT_EQ(counts_off.histogram, counts_on.histogram)
        << "fusion changed per-shot fixed-seed counts on seed " << seed;
  }
  sim::set_fusion_enabled(-1);
}

}  // namespace
}  // namespace qtc
