// Unit tests for the gate-fusion execution pipeline: planner run boundaries
// (measure/reset/barrier/conditional), the fused-run qubit cap, structure
// classification (diagonal / permutation / controlled), the specialized
// statevector kernels against the generic apply_matrix reference, the
// UnitarySimulator fusion-on/off pinning, and the thread/fusion invariance
// of fixed-seed counts. Runs under the `parallel` CTest label so TSan
// race-checks the fused kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "sim/fusion.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc::sim {
namespace {

using Kind = FusedOp::Kind;

/// Restores the fusion env/default behavior on scope exit so tests cannot
/// leak a programmatic override into each other.
struct FusionGuard {
  ~FusionGuard() {
    set_fusion_enabled(-1);
    set_fusion_max_qubits(0);
    simd::set_simd_enabled(-1);
  }
};

/// Universal random mix over n qubits (no measurements).
QuantumCircuit random_gates(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n, n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(8)) {
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
        qc.u(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI),
             q);
        break;
      case 4:
        qc.cz(q, q2);
        break;
      case 5:
        qc.swap(q, q2);
        break;
      case 6:
        qc.crx(rng.uniform(-PI, PI), q, q2);
        break;
      default:
        qc.cx(q, q2);
    }
  }
  return qc;
}

int max_fused_width(const FusedCircuit& plan) {
  int w = 0;
  for (const auto& f : plan.ops)
    if (f.kind != Kind::Op) w = std::max(w, static_cast<int>(f.qubits.size()));
  return w;
}

// --- planner ----------------------------------------------------------------

TEST(FusionPlanner, MergesAdjacentRunIntoOneSweep) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.t(0).rz(0.3, 0).cz(0, 1).s(1);
  const FusedCircuit plan = fuse_circuit(qc);
  EXPECT_EQ(plan.source_unitary_gates, 4);
  EXPECT_EQ(plan.state_sweeps, 1);
  EXPECT_EQ(plan.fused_runs, 1);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].source_gates, 4);
}

TEST(FusionPlanner, CostModelRejectsUnprofitableDenseMerge) {
  FusionGuard guard;
  set_fusion_enabled(1);
  // H makes the fused 2-qubit matrix dense, and a dense 4x4 sweep costs more
  // than the three cheap sweeps it would replace — so the planner must back
  // off and re-partition: the same-qubit H·T still collapses into one 2x2,
  // the CX keeps its dedicated kernel, and the RZ stays a lone 1q gate.
  QuantumCircuit qc(2);
  qc.h(0).t(0).cx(0, 1).rz(0.3, 1);
  const FusedCircuit plan = fuse_circuit(qc);
  EXPECT_EQ(plan.source_unitary_gates, 4);
  ASSERT_EQ(plan.ops.size(), 3u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Gate1Q);
  EXPECT_EQ(plan.ops[0].source_gates, 2);
  EXPECT_EQ(plan.ops[1].kind, Kind::GateCX);
  EXPECT_EQ(plan.ops[2].kind, Kind::Gate1Q);
  EXPECT_EQ(plan.state_sweeps, 3);
  EXPECT_EQ(plan.fused_runs, 1);
}

TEST(FusionPlanner, RespectsQubitCap) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(6);
  for (int rep = 0; rep < 3; ++rep)
    for (int q = 0; q + 1 < 6; ++q) qc.cz(q, q + 1).rz(0.1 * (q + 1), q);
  const FusedCircuit plan = fuse_circuit(qc);
  EXPECT_LE(max_fused_width(plan), 3);
  EXPECT_LT(plan.state_sweeps, plan.source_unitary_gates);

  set_fusion_max_qubits(2);
  const FusedCircuit narrow = fuse_circuit(qc);
  EXPECT_LE(max_fused_width(narrow), 2);
  EXPECT_GE(narrow.state_sweeps, plan.state_sweeps);
}

TEST(FusionPlanner, MaxQubitsKnobIsClamped) {
  FusionGuard guard;
  set_fusion_max_qubits(99);
  EXPECT_EQ(fusion_config().max_qubits, kMaxFusionQubits);
  set_fusion_max_qubits(0);  // restore env/default
  EXPECT_EQ(fusion_config().max_qubits, 3);
}

TEST(FusionPlanner, BreaksRunsAtMeasureResetAndConditional) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2, 2);
  qc.h(0).t(0);
  qc.measure(0, 0);
  qc.h(0).t(0);
  qc.reset(0);
  qc.h(0).t(0);
  qc.x(1).c_if(0, 1);
  qc.h(0).t(0);
  const FusedCircuit plan = fuse_circuit(qc);
  // 4 fused runs separated by measure / reset / conditioned-X passthroughs.
  ASSERT_EQ(plan.ops.size(), 7u);
  EXPECT_EQ(plan.ops[0].source_gates, 2);
  EXPECT_EQ(plan.ops[1].kind, Kind::Op);
  EXPECT_EQ(plan.ops[1].op.kind, OpKind::Measure);
  EXPECT_EQ(plan.ops[3].kind, Kind::Op);
  EXPECT_EQ(plan.ops[3].op.kind, OpKind::Reset);
  EXPECT_EQ(plan.ops[5].kind, Kind::Op);
  EXPECT_TRUE(plan.ops[5].op.conditioned());
  EXPECT_EQ(plan.state_sweeps, 4);
  EXPECT_EQ(plan.fused_runs, 4);
}

TEST(FusionPlanner, BarrierCutsARunButIsDropped) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(1);
  qc.h(0).t(0);
  qc.barrier();
  qc.h(0).t(0);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 2u);
  EXPECT_NE(plan.ops[0].kind, Kind::Op);
  EXPECT_NE(plan.ops[1].kind, Kind::Op);
  EXPECT_EQ(plan.state_sweeps, 2);
}

TEST(FusionPlanner, DisabledPlanIsPurePassthrough) {
  FusionGuard guard;
  set_fusion_enabled(0);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).rz(0.5, 2).measure_all();
  const FusedCircuit plan = fuse_circuit(qc);
  for (const auto& f : plan.ops) EXPECT_EQ(f.kind, Kind::Op);
  EXPECT_EQ(plan.state_sweeps, plan.source_unitary_gates);
  EXPECT_EQ(plan.fused_runs, 0);
}

// --- cost model -------------------------------------------------------------

TEST(FusionCost, TableFollowsSimdEngineUnlessForced) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  FusionConfig cfg = fusion_config();
  cfg.cost_model = 0;
  EXPECT_FALSE(fuse_circuit(qc, cfg).vector_costs);
  cfg.cost_model = 1;
  EXPECT_TRUE(fuse_circuit(qc, cfg).vector_costs);
  // The default config is auto: it tracks the engine state.
  EXPECT_EQ(fusion_config().cost_model, -1);
  simd::set_simd_enabled(0);
  EXPECT_FALSE(fuse_circuit(qc).vector_costs);
  simd::set_simd_enabled(1);
  EXPECT_EQ(fuse_circuit(qc).vector_costs, simd::vector_available());
}

TEST(FusionCost, VectorTableRejectsAMergeTheScalarTableAccepts) {
  FusionGuard guard;
  set_fusion_enabled(1);
  // Five generic 1q rotations and two CXs over a 3-qubit union. Scalar
  // ledger: the members cost 5*1.0 + 2*0.35 = 5.7 sweeps and the dense
  // 3-qubit kernel 5.6 — a (narrow) win, merge accepted. Vector ledger: the
  // members compress to 5*1.0 + 2*0.55 = 6.1 relative 1q units while the
  // gather-bound dense 3q kernel costs 11.0 — a clear loss, so the planner
  // must re-partition at two qubits instead. Same circuit, same kernels
  // available; only the calibration decides.
  QuantumCircuit qc(3);
  qc.u(0.3, 0.7, -0.4, 0).u(1.1, -0.2, 0.5, 1);
  qc.cx(0, 1);
  qc.u(0.9, 0.3, 1.3, 2);
  qc.cx(1, 2);
  qc.u(-0.6, 1.4, 0.2, 0).u(0.8, -1.0, 0.6, 1);

  FusionConfig cfg = fusion_config();
  cfg.cost_model = 0;
  const FusedCircuit scalar = fuse_circuit(qc, cfg);
  ASSERT_EQ(scalar.ops.size(), 1u);
  EXPECT_EQ(scalar.ops[0].kind, Kind::Matrix);
  EXPECT_EQ(scalar.ops[0].source_gates, 7);
  EXPECT_NEAR(scalar.unfused_cost, 5.7, 1e-12);
  EXPECT_NEAR(scalar.planned_cost, 5.6, 1e-12);

  cfg.cost_model = 1;
  const FusedCircuit vec = fuse_circuit(qc, cfg);
  EXPECT_GT(vec.ops.size(), 1u);
  EXPECT_LE(max_fused_width(vec), 2) << "re-partition runs at cap k-1";
  EXPECT_NEAR(vec.unfused_cost, 6.1, 1e-12);
  EXPECT_LE(vec.planned_cost, vec.unfused_cost);
}

TEST(FusionCost, PlannedCostNeverExceedsUnfusedCost) {
  FusionGuard guard;
  set_fusion_enabled(1);
  FusionConfig cfg = fusion_config();
  for (int model = 0; model <= 1; ++model) {
    cfg.cost_model = model;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const int n = 2 + static_cast<int>(seed % 5);
      const FusedCircuit plan = fuse_circuit(random_gates(n, 40, seed), cfg);
      EXPECT_EQ(plan.vector_costs, model == 1);
      EXPECT_GT(plan.unfused_cost, 0.0);
      EXPECT_LE(plan.planned_cost, plan.unfused_cost + 1e-9)
          << "model=" << model << " seed=" << seed;
    }
  }
}

// --- classification ---------------------------------------------------------

TEST(FusionPlanner, PhaseRunClassifiesAsDiagonal) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.rz(0.3, 0).rz(-1.1, 1).cz(0, 1).cp(0.7, 0, 1).t(0).s(1);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Diagonal);
  EXPECT_EQ(plan.diagonal_ops, 1);
  EXPECT_EQ(plan.ops[0].diag.size(), 4u);
}

TEST(FusionPlanner, XLikeRunClassifiesAsPhaseFreePermutation) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.x(0).cx(0, 1).swap(0, 1).x(1);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Permutation);
  EXPECT_TRUE(plan.ops[0].phases.empty()) << "pure remap needs no arithmetic";
  EXPECT_EQ(plan.permutation_ops, 1);
}

TEST(FusionPlanner, YRunClassifiesAsPermutationWithPhases) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.y(0).x(1).cy(1, 0);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Permutation);
  EXPECT_FALSE(plan.ops[0].phases.empty());
}

TEST(FusionPlanner, ControlledRotationRunClassifiesAsControlled) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(2);
  qc.crx(0.7, 0, 1).crx(0.4, 0, 1);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Controlled);
  EXPECT_EQ(plan.ops[0].num_controls, 1);
  EXPECT_EQ(plan.ops[0].qubits[0], 0) << "control must lead the qubit list";
  EXPECT_EQ(plan.controlled_ops, 1);
}

TEST(FusionPlanner, LoneToffoliIsAPermutation) {
  FusionGuard guard;
  set_fusion_enabled(1);
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  const FusedCircuit plan = fuse_circuit(qc);
  ASSERT_EQ(plan.ops.size(), 1u);
  EXPECT_EQ(plan.ops[0].kind, Kind::Permutation);
  EXPECT_TRUE(plan.ops[0].phases.empty());
}

// --- matrix classification helpers (core) -----------------------------------

TEST(MatrixClassify, PermutationFormRoundTrips) {
  // CX: |00>->|00>, |01>->|11>, |10>->|10>, |11>->|01> (q0 = control).
  const Matrix cx = op_matrix(OpKind::CX);
  const auto form = as_permutation_form(cx);
  ASSERT_TRUE(form.has_value());
  EXPECT_TRUE(form->phase_free);
  EXPECT_EQ(form->row_of[1], 3u);
  EXPECT_EQ(form->row_of[3], 1u);
  EXPECT_FALSE(as_permutation_form(op_matrix(OpKind::H)).has_value());
}

TEST(MatrixClassify, ControlBitsAndResidual) {
  const Matrix crx = op_matrix(OpKind::CRX, {0.8});
  const auto bits = matrix_control_bits(crx);
  ASSERT_EQ(bits.size(), 1u);
  EXPECT_EQ(bits[0], 0);  // control is the least significant gate-local bit
  const Matrix residual = matrix_controlled_residual(crx, bits);
  EXPECT_TRUE(residual.approx_equal(op_matrix(OpKind::RX, {0.8}), 1e-12));
  EXPECT_TRUE(matrix_control_bits(op_matrix(OpKind::H)).empty());
}

// --- specialized kernels vs the generic reference ---------------------------

Statevector random_state(int n, std::uint64_t seed) {
  Statevector sv(n);
  sv.apply_circuit(random_gates(n, 4 * n, seed).unitary_part());
  return sv;
}

TEST(FusionKernels, DiagonalMatchesApplyMatrix) {
  Rng rng(11);
  const std::vector<int> qs = {1, 4, 2};
  Matrix dm(8, 8);
  std::vector<cplx> diag(8);
  for (int j = 0; j < 8; ++j) {
    const double phi = rng.uniform(-PI, PI);
    diag[j] = cplx{std::cos(phi), std::sin(phi)};
    dm(j, j) = diag[j];
  }
  Statevector a = random_state(6, 5);
  Statevector b = a;
  a.apply_matrix(dm, qs);
  b.apply_diagonal(diag, qs);
  EXPECT_LT(max_abs_diff(a.amplitudes(), b.amplitudes()), 1e-12);
}

TEST(FusionKernels, PermutationMatchesApplyMatrix) {
  const std::vector<int> qs = {3, 0};
  // Gate-local cycle 0->1->2->3->0 with phases i, 1, -1, 1.
  const std::vector<std::uint32_t> row_of = {1, 2, 3, 0};
  const std::vector<cplx> phases = {{0, 1}, {1, 0}, {-1, 0}, {1, 0}};
  Matrix pm(4, 4);
  for (int c = 0; c < 4; ++c) pm(row_of[c], c) = phases[c];
  Statevector a = random_state(5, 6);
  Statevector b = a;
  Statevector c = a;
  a.apply_matrix(pm, qs);
  b.apply_permutation(row_of, phases, qs);
  EXPECT_LT(max_abs_diff(a.amplitudes(), b.amplitudes()), 1e-12);
  // Phase-free remap path.
  Matrix swap_m = op_matrix(OpKind::SWAP);
  const auto form = as_permutation_form(swap_m);
  ASSERT_TRUE(form.has_value() && form->phase_free);
  Statevector d = c;
  c.apply_matrix(swap_m, qs);
  d.apply_permutation(form->row_of, {}, qs);
  EXPECT_LT(max_abs_diff(c.amplitudes(), d.amplitudes()), 1e-12);
}

TEST(FusionKernels, ControlledMatchesApplyMatrix) {
  const Matrix u = u3_matrix(1.2, 0.4, -0.9);
  // Full 8x8 doubly controlled-U with controls on gate-local bits 0 and 1.
  Matrix full = Matrix::identity(8);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) full(3 + 4 * r, 3 + 4 * c) = u(r, c);
  Statevector a = random_state(6, 7);
  Statevector b = a;
  a.apply_matrix(full, {0, 2, 5});
  // Braced lists would prefer the packed (qubits, num_controls) overload —
  // {5} converts to int — so spell the vectors out.
  b.apply_controlled_matrix(u, std::vector<int>{0, 2}, std::vector<int>{5});
  EXPECT_LT(max_abs_diff(a.amplitudes(), b.amplitudes()), 1e-12);
}

// --- end-to-end equivalence and determinism ----------------------------------

TEST(Fusion, StatevectorMatchesUnfusedOnRandomCircuits) {
  FusionGuard guard;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int n = 2 + static_cast<int>(seed % 6);
    const QuantumCircuit qc = random_gates(n, 30, seed);
    StatevectorSimulator sim;
    set_fusion_enabled(0);
    const auto off = sim.statevector(qc).amplitudes();
    set_fusion_enabled(1);
    const auto on = sim.statevector(qc).amplitudes();
    EXPECT_LT(max_abs_diff(off, on), 1e-10) << "seed " << seed;
  }
}

TEST(Fusion, WiderCapStillMatches) {
  FusionGuard guard;
  set_fusion_enabled(1);
  for (int cap = 1; cap <= kMaxFusionQubits; ++cap) {
    set_fusion_max_qubits(cap);
    const QuantumCircuit qc = random_gates(7, 40, 99);
    StatevectorSimulator sim;
    const auto on = sim.statevector(qc).amplitudes();
    set_fusion_enabled(0);
    const auto off = sim.statevector(qc).amplitudes();
    set_fusion_enabled(1);
    EXPECT_LT(max_abs_diff(off, on), 1e-10) << "cap " << cap;
  }
}

/// Satellite pinning test: UnitarySimulator builds its matrix through the
/// fused plan; fusion on/off must give the same unitary.
TEST(Fusion, UnitarySimulatorIdenticalOnOff) {
  FusionGuard guard;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int n = 2 + static_cast<int>(seed % 4);
    const QuantumCircuit qc = random_gates(n, 25, seed).unitary_part();
    UnitarySimulator us;
    set_fusion_enabled(0);
    const Matrix off = us.unitary(qc);
    set_fusion_enabled(1);
    const Matrix on = us.unitary(qc);
    EXPECT_LT(off.max_abs_diff(on), 1e-11) << "seed " << seed;
  }
}

TEST(Fusion, FixedSeedCountsIdenticalOnOffAndAcrossThreads) {
  FusionGuard guard;
  // Sampling-friendly circuit and a per-shot circuit (mid-circuit measure +
  // conditioned gate), both with a fixed seed: counts must be identical with
  // fusion on/off and at 1 vs 4 threads.
  QuantumCircuit sampling = random_gates(6, 40, 21);
  sampling.measure_all();
  QuantumCircuit per_shot(3, 3);
  per_shot.h(0).t(1).cx(0, 1);
  per_shot.measure(0, 0);
  per_shot.x(2).c_if(0, 1);
  per_shot.h(1).rz(0.4, 2).cx(1, 2);
  per_shot.measure(1, 1);
  per_shot.measure(2, 2);
  for (const auto& qc : {sampling, per_shot}) {
    std::map<std::string, int> reference;
    bool have_reference = false;
    for (int fusion = 0; fusion <= 1; ++fusion) {
      set_fusion_enabled(fusion);
      for (int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        StatevectorSimulator sim(4242);
        const auto counts = sim.run(qc, 2000).counts;
        if (!have_reference) {
          reference = counts.histogram;
          have_reference = true;
        } else {
          EXPECT_EQ(counts.histogram, reference)
              << "fusion=" << fusion << " threads=" << threads;
        }
      }
    }
  }
  parallel::set_num_threads(0);
}

}  // namespace
}  // namespace qtc::sim
