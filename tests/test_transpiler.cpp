#include "transpiler/decompose.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/optimize.hpp"
#include "transpiler/pass_manager.hpp"
#include "transpiler/transpile.hpp"
#include "transpiler/transpile_cache.hpp"

#include <gtest/gtest.h>

#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "exec/execute.hpp"
#include "noise/noise_model.hpp"
#include "qasm/parser.hpp"
#include "sim/simulator.hpp"

namespace qtc::transpiler {
namespace {

Matrix unitary_of(const QuantumCircuit& qc) {
  return sim::UnitarySimulator().unitary(qc);
}

void expect_equivalent(const QuantumCircuit& a, const QuantumCircuit& b) {
  EXPECT_TRUE(unitary_of(a).equal_up_to_phase(unitary_of(b), 1e-8));
}

// --- decomposition -----------------------------------------------------------

class DecompositionTest : public ::testing::TestWithParam<OpKind> {};

TEST_P(DecompositionTest, PreservesUnitaryAndReachesBasis) {
  const OpKind kind = GetParam();
  const int nq = op_num_qubits(kind);
  std::vector<double> params;
  Rng rng(3);
  for (int p = 0; p < op_num_params(kind); ++p)
    params.push_back(rng.uniform(-PI, PI));
  QuantumCircuit qc(nq);
  std::vector<Qubit> qubits;
  for (int q = 0; q < nq; ++q) qubits.push_back(q);
  qc.gate(kind, qubits, params);
  const QuantumCircuit low = DecomposeMultiQubit().run(qc);
  expect_equivalent(qc, low);
  for (const auto& op : low.ops())
    EXPECT_LE(op.qubits.size(), op.kind == OpKind::CX ? 2u : 1u)
        << op_name(op.kind);
}

INSTANTIATE_TEST_SUITE_P(
    MultiQubitGates, DecompositionTest,
    ::testing::Values(OpKind::CZ, OpKind::CY, OpKind::CH, OpKind::CRX,
                      OpKind::CRY, OpKind::CRZ, OpKind::CP, OpKind::CU,
                      OpKind::SWAP, OpKind::ISWAP, OpKind::RZZ, OpKind::RXX,
                      OpKind::CCX, OpKind::CSWAP),
    [](const auto& info) { return op_name(info.param); });

TEST(Decompose, ToffoliUsesCliffordTOnly) {
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  const QuantumCircuit low = DecomposeMultiQubit().run(qc);
  EXPECT_EQ(low.count(OpKind::CX), 6);
  for (const auto& op : low.ops()) {
    const bool ok = op.kind == OpKind::CX || op.kind == OpKind::H ||
                    op.kind == OpKind::T || op.kind == OpKind::Tdg;
    EXPECT_TRUE(ok) << op_name(op.kind);
  }
}

TEST(Decompose, ConditionPropagatesToAllPieces) {
  QuantumCircuit qc(2, 1);
  qc.measure(0, 0);
  qc.swap(0, 1).c_if(0, 1);
  const QuantumCircuit low = DecomposeMultiQubit().run(qc);
  int conditioned = 0;
  for (const auto& op : low.ops())
    if (op.conditioned()) ++conditioned;
  EXPECT_EQ(conditioned, 3);  // three CXs from the swap
}

TEST(Decompose, RewriteToUBasisProducesBasisGates) {
  QuantumCircuit qc(2);
  qc.h(0).t(1).sdg(0).rx(0.7, 1).cx(0, 1).z(1);
  const QuantumCircuit basis =
      RewriteToUBasis().run(DecomposeMultiQubit().run(qc));
  for (const auto& op : basis.ops()) {
    const bool ok = op.kind == OpKind::U || op.kind == OpKind::P ||
                    op.kind == OpKind::U2 || op.kind == OpKind::CX ||
                    op.kind == OpKind::I;
    EXPECT_TRUE(ok) << op_name(op.kind);
  }
  expect_equivalent(qc, basis);
}

TEST(Decompose, RewriteToUBasisRejectsUndcomposedGates) {
  QuantumCircuit qc(2);
  qc.swap(0, 1);
  EXPECT_THROW(RewriteToUBasis().run(qc), std::invalid_argument);
}

// --- cancellation / fusion ----------------------------------------------------

TEST(Cancel, AdjacentSelfInversePairsVanish) {
  QuantumCircuit qc(2);
  qc.h(0).h(0).x(1).x(1).cx(0, 1).cx(0, 1);
  const QuantumCircuit opt = GateCancellation().run(qc);
  EXPECT_EQ(opt.size(), 0u);
}

TEST(Cancel, TTdgPairVanishes) {
  QuantumCircuit qc(1);
  qc.t(0).tdg(0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 0u);
}

TEST(Cancel, InterveningGateBlocksCancellation) {
  QuantumCircuit qc(1);
  qc.h(0).t(0).h(0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 3u);
}

TEST(Cancel, SpectatorQubitDoesNotBlock) {
  QuantumCircuit qc(2);
  qc.h(0).x(1).h(0);
  const QuantumCircuit opt = GateCancellation().run(qc);
  EXPECT_EQ(opt.size(), 1u);
  EXPECT_EQ(opt.ops()[0].kind, OpKind::X);
}

TEST(Cancel, CxDirectionMattersForCancellation) {
  QuantumCircuit qc(2);
  qc.cx(0, 1).cx(1, 0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 2u);
}

TEST(Cancel, SwapIsOrientationInsensitive) {
  QuantumCircuit qc(2);
  qc.swap(0, 1).swap(1, 0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 0u);
}

TEST(Cancel, RotationsMerge) {
  QuantumCircuit qc(1);
  qc.rz(0.3, 0).rz(0.4, 0);
  const QuantumCircuit opt = GateCancellation().run(qc);
  ASSERT_EQ(opt.size(), 1u);
  EXPECT_NEAR(opt.ops()[0].params[0], 0.7, 1e-12);
}

TEST(Cancel, OppositeRotationsVanish) {
  QuantumCircuit qc(1);
  qc.rx(0.5, 0).rx(-0.5, 0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 0u);
}

TEST(Cancel, CascadeAfterInnerCancellation) {
  // h t tdg h -> h h -> empty (requires the fixed point loop).
  QuantumCircuit qc(1);
  qc.h(0).t(0).tdg(0).h(0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 0u);
}

TEST(Cancel, ConditionedOpsAreLeftAlone) {
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  qc.x(0).c_if(0, 1);
  qc.x(0).c_if(0, 1);
  EXPECT_EQ(GateCancellation().run(qc).size(), 3u);
}

TEST(Cancel, MeasurementBlocksCancellation) {
  QuantumCircuit qc(1, 1);
  qc.h(0);
  qc.measure(0, 0);
  qc.h(0);
  EXPECT_EQ(GateCancellation().run(qc).size(), 3u);
}

TEST(Fuse, RunOfOneQubitGatesBecomesSingleU) {
  QuantumCircuit qc(1);
  qc.h(0).t(0).h(0).s(0).rx(0.3, 0);
  const QuantumCircuit fused = FuseSingleQubitGates().run(qc);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused.ops()[0].kind, OpKind::U);
  expect_equivalent(qc, fused);
}

TEST(Fuse, IdentityRunDisappears) {
  QuantumCircuit qc(1);
  qc.h(0).h(0);
  EXPECT_EQ(FuseSingleQubitGates().run(qc).size(), 0u);
}

TEST(Fuse, SingleGateRunsAreKeptVerbatim) {
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1).t(1);
  const QuantumCircuit fused = FuseSingleQubitGates().run(qc);
  EXPECT_EQ(fused.count(OpKind::H), 1);
  EXPECT_EQ(fused.count(OpKind::T), 1);
}

TEST(Fuse, TwoQubitGateSplitsRuns) {
  QuantumCircuit qc(2);
  qc.h(0).t(0).cx(0, 1).h(0).s(0);
  const QuantumCircuit fused = FuseSingleQubitGates().run(qc);
  EXPECT_EQ(fused.count(OpKind::U), 2);
  EXPECT_EQ(fused.count(OpKind::CX), 1);
  expect_equivalent(qc, fused);
}

TEST(Fuse, PreservesRandomCircuits) {
  Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    QuantumCircuit qc(3);
    for (int g = 0; g < 30; ++g) {
      const int q = static_cast<int>(rng.index(3));
      switch (rng.index(5)) {
        case 0:
          qc.h(q);
          break;
        case 1:
          qc.rz(rng.uniform(-PI, PI), q);
          break;
        case 2:
          qc.sx(q);
          break;
        case 3:
          qc.t(q);
          break;
        default:
          qc.cx(q, (q + 1) % 3);
      }
    }
    expect_equivalent(qc, FuseSingleQubitGates().run(qc));
  }
}

// --- direction fixing ----------------------------------------------------------

TEST(Direction, NativeOrientationUntouched) {
  QuantumCircuit qc(5);
  qc.cx(3, 2);  // native on QX4
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  const QuantumCircuit fixed = FixCxDirections(qx4).run(qc);
  EXPECT_EQ(fixed.size(), 1u);
}

TEST(Direction, WrongWayCxGetsFourHadamards) {
  QuantumCircuit qc(5);
  qc.cx(2, 3);  // only 3 -> 2 is native on QX4
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  const QuantumCircuit fixed = FixCxDirections(qx4).run(qc);
  EXPECT_EQ(fixed.count(OpKind::H), 4);
  EXPECT_EQ(fixed.count(OpKind::CX), 1);
  EXPECT_EQ(fixed.ops()[2].qubits, (std::vector<Qubit>{3, 2}));
  expect_equivalent(qc, fixed);
  EXPECT_TRUE(satisfies_coupling(fixed, arch::ibm_qx4()));
}

TEST(Direction, UncoupledPairThrows) {
  QuantumCircuit qc(5);
  qc.cx(0, 4);
  const arch::CouplingMap qx4 = arch::ibm_qx4();
  EXPECT_THROW(FixCxDirections(qx4).run(qc),
               std::invalid_argument);
}

TEST(Direction, LegalityChecks) {
  QuantumCircuit ok(5);
  ok.h(0).cx(1, 0);
  EXPECT_TRUE(satisfies_coupling(ok, arch::ibm_qx4()));
  QuantumCircuit wrong_way(5);
  wrong_way.cx(0, 1);
  EXPECT_FALSE(satisfies_coupling(wrong_way, arch::ibm_qx4()));
  EXPECT_TRUE(satisfies_connectivity(wrong_way, arch::ibm_qx4()));
  QuantumCircuit distant(5);
  distant.cx(0, 4);
  EXPECT_FALSE(satisfies_connectivity(distant, arch::ibm_qx4()));
}

// --- pass manager ----------------------------------------------------------------

TEST(PassManager, RunsPassesInOrder) {
  PassManager pm;
  pm.append<DecomposeMultiQubit>();
  pm.append<GateCancellation>();
  QuantumCircuit qc(2);
  qc.swap(0, 1).swap(0, 1);
  EXPECT_EQ(pm.run(qc).size(), 0u);
  EXPECT_EQ(pm.pass_names().size(), 2u);
  EXPECT_EQ(pm.pass_names()[0], "decompose-multi-qubit");
}

// --- end-to-end transpile ------------------------------------------------------

TEST(Transpile, Fig1CircuitOnQx4IsLegalAndEquivalent) {
  QuantumCircuit qc(4);
  qc.h(2).cx(2, 3).cx(0, 1).h(1).cx(1, 2).t(0).cx(2, 0).cx(0, 1);
  for (const MapperKind kind :
       {MapperKind::Naive, MapperKind::Sabre, MapperKind::AStar}) {
    TranspileOptions opt;
    opt.mapper = kind;
    const TranspileResult result =
        transpile(qc, arch::qx4_backend(), opt);
    EXPECT_TRUE(satisfies_coupling(result.circuit, arch::ibm_qx4()));
    // Equivalence under the final layout permutation.
    sim::StatevectorSimulator sim;
    const auto mapped_sv = sim.statevector(result.circuit).amplitudes();
    const auto logical_sv = sim.statevector(qc).amplitudes();
    const auto expected =
        map::embed_state(logical_sv, result.final_layout, 5);
    EXPECT_TRUE(states_equal_up_to_phase(mapped_sv, expected, 1e-8));
  }
}

TEST(Transpile, UBasisOptionYieldsDeviceGatesOnly) {
  QuantumCircuit qc(3);
  qc.h(0).ccx(0, 1, 2).swap(1, 2);
  TranspileOptions opt;
  opt.to_u_basis = true;
  opt.optimization_level = 2;
  const TranspileResult result = transpile(qc, arch::qx4_backend(), opt);
  const arch::Backend backend = arch::qx4_backend();
  for (const auto& op : result.circuit.ops())
    EXPECT_TRUE(backend.is_basis_gate(op.kind)) << op_name(op.kind);
}

TEST(Transpile, OptimizationReducesGateCount) {
  QuantumCircuit qc(4);
  qc.h(2).cx(2, 3).cx(0, 1).h(1).cx(1, 2).t(0).cx(2, 0).cx(0, 1);
  TranspileOptions raw;
  raw.mapper = MapperKind::Naive;
  raw.optimization_level = 0;
  TranspileOptions optimized = raw;
  optimized.optimization_level = 2;
  const auto r0 = transpile(qc, arch::qx4_backend(), raw);
  const auto r2 = transpile(qc, arch::qx4_backend(), optimized);
  EXPECT_LE(r2.circuit.size(), r0.circuit.size());
}

// --- transpile cache -----------------------------------------------------------

/// A VQE-style ansatz: fixed structure, angle-dependent parameters, with a
/// distant CX so routing actually has work to do on QX4.
QuantumCircuit ansatz(double a, double b) {
  QuantumCircuit qc(5);
  qc.rx(a, 0).rz(b, 1).cx(0, 4).h(2).cx(1, 3).rx(a + b, 2).cx(0, 1);
  return qc;
}

TranspileOptions fixed_options() {
  TranspileOptions opt;
  opt.trials = 2;
  opt.seed = 42;  // pin the portfolio so direct and cached runs agree
  return opt;
}

TEST(TranspileCache, WarmExactHitRunsZeroMappers) {
  TranspileCache cache;
  const QuantumCircuit qc = ansatz(0.3, 0.7);
  const auto cold = cache.transpile(qc, arch::qx4_backend(), fixed_options());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.mapper_trials, 2);

  const std::uint64_t runs_before = map::mapper_run_count();
  const auto warm = cache.transpile(qc, arch::qx4_backend(), fixed_options());
  EXPECT_EQ(map::mapper_run_count(), runs_before);  // zero mapper runs
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.cache_exact);
  EXPECT_EQ(warm.mapper_trials, 0);
  EXPECT_EQ(warm.circuit, cold.circuit);
  EXPECT_EQ(warm.swaps_inserted, cold.swaps_inserted);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.mapper_runs_saved, 1u);
}

TEST(TranspileCache, StructuralHitRebindsParamsBitwiseEqualToDirect) {
  TranspileCache cache;
  cache.transpile(ansatz(0.3, 0.7), arch::qx4_backend(), fixed_options());

  // Same structure, new angles: routing replays, params re-bind, and the
  // result must be bitwise what a from-scratch transpile would produce.
  const QuantumCircuit next = ansatz(-1.1, 2.4);
  const std::uint64_t runs_before = map::mapper_run_count();
  const auto warm = cache.transpile(next, arch::qx4_backend(), fixed_options());
  EXPECT_EQ(map::mapper_run_count(), runs_before);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.cache_exact);
  EXPECT_EQ(cache.stats().structural_hits, 1u);

  const auto direct = transpile(next, arch::qx4_backend(), fixed_options());
  EXPECT_EQ(warm.circuit, direct.circuit);
  EXPECT_EQ(warm.initial_layout, direct.initial_layout);
  EXPECT_EQ(warm.final_layout, direct.final_layout);
  EXPECT_EQ(warm.swaps_inserted, direct.swaps_inserted);
}

TEST(TranspileCache, AngleDependentDecompositionFallsBackToCold) {
  // CRX lowers through the controlled-unitary ABC network, which elides
  // near-zero rotations — so CRX(0.7) and CRX(0.0) have the same *input*
  // structure but different lowered structures. The cache must detect the
  // divergence and run cold instead of replaying a wrong-shape template.
  auto crx_circuit = [](double angle) {
    QuantumCircuit qc(5);
    qc.h(0);
    qc.gate(OpKind::CRX, {0, 1}, {angle});
    qc.cx(1, 2);
    return qc;
  };
  TranspileCache cache;
  cache.transpile(crx_circuit(0.7), arch::qx4_backend(), fixed_options());
  const auto fallback =
      cache.transpile(crx_circuit(0.0), arch::qx4_backend(), fixed_options());
  EXPECT_FALSE(fallback.cache_hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto direct =
      transpile(crx_circuit(0.0), arch::qx4_backend(), fixed_options());
  EXPECT_EQ(fallback.circuit, direct.circuit);
}

/// h; crx(angle); cx; ry(phi) on QX4. CRX lowers through the ABC network,
/// which drops rotations below 1e-12: crx(0) and crx(1e-13) lower to the
/// same 2 CXs, crx(0.7) to 2 CXs and 4 rotations. `phi` never changes the
/// lowering's structure.
QuantumCircuit crx_then_ry(double angle, double phi) {
  QuantumCircuit qc(5);
  qc.h(0);
  qc.gate(OpKind::CRX, {0, 1}, {angle});
  qc.cx(1, 2).ry(phi, 2);
  return qc;
}

/// `got` is op for op what an uncached transpile of `qc` computes.
void expect_equals_cold(const TranspileResult& got, const QuantumCircuit& qc) {
  const TranspileResult cold = transpile(qc, arch::qx4_backend(),
                                         fixed_options());
  EXPECT_EQ(got.circuit, cold.circuit);
  EXPECT_EQ(got.initial_layout, cold.initial_layout);
  EXPECT_EQ(got.final_layout, cold.final_layout);
  EXPECT_EQ(got.swaps_inserted, cold.swaps_inserted);
}

TEST(TranspileCache, EachLoweringIsOneEntry) {
  // The key is the lowered circuit: crx(0) after crx(0.7) is one more cold
  // compile, and every later crx(0) is an exact hit on that entry.
  TranspileCache cache;
  std::vector<TranspileResult> results;
  const std::uint64_t runs_before = map::mapper_run_count();
  results.push_back(cache.transpile(crx_then_ry(0.7, 0.2), arch::qx4_backend(),
                                    fixed_options()));
  for (int i = 0; i < 5; ++i)
    results.push_back(cache.transpile(crx_then_ry(0.0, 0.2),
                                      arch::qx4_backend(), fixed_options()));
  EXPECT_EQ(map::mapper_run_count(), runs_before + 2);
  EXPECT_EQ(cache.size(), 2u);
  const TranspileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.exact_hits, 4u);
  EXPECT_FALSE(results[1].cache_hit);
  for (std::size_t i = 2; i < results.size(); ++i)
    EXPECT_TRUE(results[i].cache_exact);

  expect_equals_cold(results[0], crx_then_ry(0.7, 0.2));
  for (std::size_t i = 1; i < results.size(); ++i)
    expect_equals_cold(results[i], crx_then_ry(0.0, 0.2));
}

TEST(TranspileCache, TinyAngleReplaysTheZeroAngleEntry) {
  // crx(1e-13) lowers exactly as crx(0) does, so with a new `phi` it is a
  // structural hit on the zero-angle entry: no mapper run, no new entry.
  TranspileCache cache;
  cache.transpile(crx_then_ry(0.0, 0.2), arch::qx4_backend(), fixed_options());
  const std::uint64_t runs_before = map::mapper_run_count();
  const TranspileResult tiny = cache.transpile(
      crx_then_ry(1e-13, -0.9), arch::qx4_backend(), fixed_options());
  EXPECT_EQ(map::mapper_run_count(), runs_before);
  EXPECT_TRUE(tiny.cache_hit);
  EXPECT_FALSE(tiny.cache_exact);
  EXPECT_EQ(cache.stats().structural_hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
  expect_equals_cold(tiny, crx_then_ry(1e-13, -0.9));
}

TEST(TranspileCache, CzAndItsLoweringShareOneEntry) {
  // CZ lowers to H; CX; H, so the two spellings are one routing problem.
  QuantumCircuit cz(5);
  cz.rx(0.4, 0).cz(0, 3).cx(3, 1);
  QuantumCircuit hcxh(5);
  hcxh.rx(0.4, 0).h(3).cx(0, 3).h(3).cx(3, 1);
  TranspileCache cache;
  const TranspileResult first =
      cache.transpile(cz, arch::qx4_backend(), fixed_options());
  const std::uint64_t runs_before = map::mapper_run_count();
  const TranspileResult second =
      cache.transpile(hcxh, arch::qx4_backend(), fixed_options());
  EXPECT_EQ(map::mapper_run_count(), runs_before);
  EXPECT_TRUE(second.cache_exact);
  EXPECT_EQ(cache.size(), 1u);
  expect_equals_cold(first, cz);
  expect_equals_cold(second, hcxh);
}

TEST(TranspileCache, DifferentCouplingOrOptionsDoNotCollide) {
  TranspileCache cache;
  const QuantumCircuit qc = ansatz(0.1, 0.2);
  cache.transpile(qc, arch::qx4_backend(), fixed_options());
  TranspileOptions other = fixed_options();
  other.optimization_level = 2;
  const auto r = cache.transpile(qc, arch::qx4_backend(), other);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(TranspileCache, EvictionKeepsTheCacheBounded) {
  TranspileCache cache(/*capacity=*/2);
  for (int n = 2; n <= 5; ++n) {
    QuantumCircuit qc(n);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    cache.transpile(qc, arch::qx4_backend(), fixed_options());
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(TranspileCache, ExecuteRoutesThroughTheGlobalCache) {
  TranspileCache::global().clear();
  exec::ExecuteOptions opts;
  opts.shots = 16;
  opts.transpile_options = fixed_options();

  const auto cold = exec::execute(ansatz(0.5, 0.5), arch::qx4_backend(), opts);
  EXPECT_FALSE(cold.transpile_cache_hit);
  EXPECT_EQ(cold.mapper_trials, 2);

  const std::uint64_t runs_before = map::mapper_run_count();
  const auto warm = exec::execute(ansatz(1.5, -0.5), arch::qx4_backend(), opts);
  EXPECT_EQ(map::mapper_run_count(), runs_before);  // hybrid-loop hot path
  EXPECT_TRUE(warm.transpile_cache_hit);
  EXPECT_EQ(warm.mapper_trials, 0);

  TranspileCache::global().clear();
}

// --- classical registers --------------------------------------------------------

/// `if (b == 1)` on the second of two 1-bit cregs: every pass must keep the
/// condition pointing at `b`. A pass that merged the cregs into one `c`
/// rejects the condition as out of range.
QuantumCircuit cond_on_second_creg(double theta) {
  return qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg a[1];
creg b[1];
rz()" + std::to_string(theta) + R"() q[0];
x q[0];
measure q[0] -> b[0];
if(b==1) x q[1];
cx q[1],q[2];
measure q[1] -> a[0];
)");
}

/// `if (a == 2)` on a 2-bit creg while `b` already holds 1: the condition
/// fires on `a` alone (result 111). Read over a merged 3-bit `c` it
/// compares 6 with 2 and silently skips the X (result 110).
QuantumCircuit cond_on_first_creg(double theta) {
  return qasm::parse(R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg a[2];
creg b[1];
rz()" + std::to_string(theta) + R"() q[2];
x q[1];
x q[2];
measure q[2] -> b[0];
measure q[0] -> a[0];
measure q[1] -> a[1];
if(a==2) x q[0];
cx q[2],q[0];
cx q[2],q[0];
measure q[0] -> a[0];
)");
}

/// The compiled circuit keeps the logical cregs; its qubits are physical,
/// so they sit in one device-wide register `q`.
void expect_registers_survive(const QuantumCircuit& logical,
                              const QuantumCircuit& compiled) {
  EXPECT_EQ(compiled.cregs(), logical.cregs());
  EXPECT_EQ(compiled.qregs(), QuantumCircuit(compiled.num_qubits()).qregs());
  EXPECT_EQ(qasm::parse(qasm::emit(compiled)), compiled);
}

class RegisterTest : public ::testing::TestWithParam<int> {};

TEST_P(RegisterTest, TranspileKeepsClassicalRegistersAndCounts) {
  const noise::NoiseModel noiseless;
  TranspileOptions topt = fixed_options();
  topt.optimization_level = GetParam();
  topt.to_u_basis = GetParam() == 2;
  const arch::Backend backends[] = {arch::qx4_backend(),
                                    arch::heavy_hex_backend(3)};
  for (const arch::Backend& backend : backends)
    for (auto* make : {&cond_on_first_creg, &cond_on_second_creg}) {
      SCOPED_TRACE(backend.coupling_map().num_qubits());
      const QuantumCircuit logical = make(0.25);
      const sim::Counts want =
          sim::StatevectorSimulator(7).run(logical, 64).counts;
      ASSERT_EQ(want.histogram.size(), 1u);

      // Cold, then a replay of the cached routing at another angle.
      const TranspileResult cold = transpile(logical, backend, topt);
      expect_registers_survive(logical, cold.circuit);
      TranspileCache cache;
      cache.transpile(make(0.5), backend, topt);
      const TranspileResult warm = cache.transpile(logical, backend, topt);
      EXPECT_TRUE(warm.cache_hit);
      EXPECT_EQ(warm.circuit, cold.circuit);

      exec::ExecuteOptions eopt;
      eopt.shots = 64;
      eopt.seed = 7;
      eopt.noise_model = &noiseless;
      eopt.transpile_options = topt;
      for (bool cached : {false, true}) {
        eopt.use_transpile_cache = cached;
        const exec::ExecuteResult run = exec::execute(logical, backend, eopt);
        expect_registers_survive(logical, run.compiled);
        EXPECT_EQ(run.counts.histogram, want.histogram);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(OptimizationLevels, RegisterTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace qtc::transpiler
