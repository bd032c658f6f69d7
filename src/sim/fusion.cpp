#include "sim/fusion.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/gates.hpp"
#include "core/knobs.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

namespace qtc::sim {

namespace {

int clamp_max_qubits(int k) {
  return std::min(std::max(k, 1), kMaxFusionQubits);
}

/// Resolve the table a plan is judged with: the config's forced table, else
/// the SIMD engine state — when the vector kernels will run the sweeps,
/// their cost ratios are the ones that matter.
bool use_vector_costs(const FusionConfig& cfg) {
  if (cfg.cost_model >= 0) return cfg.cost_model != 0;
  return simd::simd_enabled() && simd::vector_available();
}

/// Entries of a fused product that should be zero accumulate rounding noise
/// of order 1e-16 per factor; anything below this is structural zero.
constexpr double kClassifyTol = 1e-14;

/// Expand gate matrix `g` over the gate-local bit positions `pos` of a
/// k-qubit space (identity on the other bits). pos[i] is where bit i of g's
/// index lands.
Matrix embed_matrix(const Matrix& g, const std::vector<int>& pos, int k) {
  const std::size_t dim = std::size_t{1} << k;
  std::uint64_t used = 0;
  for (int p : pos) used |= std::uint64_t{1} << p;
  std::vector<int> free_pos;
  for (int b = 0; b < k; ++b)
    if (!((used >> b) & 1)) free_pos.push_back(b);
  auto scatter = [](std::size_t j, const std::vector<int>& ps) {
    std::size_t v = 0;
    for (std::size_t i = 0; i < ps.size(); ++i)
      if ((j >> i) & 1) v |= std::size_t{1} << ps[i];
    return v;
  };
  const std::size_t gdim = g.rows();
  const std::size_t fdim = std::size_t{1} << free_pos.size();
  Matrix out(dim, dim);
  for (std::size_t f = 0; f < fdim; ++f) {
    const std::size_t base = scatter(f, free_pos);
    for (std::size_t r = 0; r < gdim; ++r)
      for (std::size_t c = 0; c < gdim; ++c)
        out(base | scatter(r, pos), base | scatter(c, pos)) = g(r, c);
  }
  return out;
}

/// Classify a matrix over `qubits` into the cheapest matching kernel shape.
FusedOp classify_matrix(Matrix m, std::vector<int> qubits) {
  FusedOp f;
  f.qubits = std::move(qubits);
  if (m.is_diagonal(kClassifyTol)) {
    f.kind = FusedOp::Kind::Diagonal;
    f.diag = m.diagonal();
  } else if (auto p = as_permutation_form(m, kClassifyTol)) {
    f.kind = FusedOp::Kind::Permutation;
    f.perm = std::move(p->row_of);
    if (!p->phase_free) f.phases = std::move(p->phase);
  } else {
    const std::vector<int> cbits = matrix_control_bits(m, kClassifyTol);
    if (!cbits.empty()) {
      // Reorder the qubit list controls-first; the residual acts on the
      // remaining bits in ascending gate-local significance, matching the
      // order they keep in `f.qubits`.
      f.kind = FusedOp::Kind::Controlled;
      f.matrix = matrix_controlled_residual(m, cbits);
      f.num_controls = static_cast<int>(cbits.size());
      std::vector<int> reordered;
      for (int b : cbits) reordered.push_back(f.qubits[b]);
      for (int b = 0; b < static_cast<int>(f.qubits.size()); ++b)
        if (std::find(cbits.begin(), cbits.end(), b) == cbits.end())
          reordered.push_back(f.qubits[b]);
      f.qubits = std::move(reordered);
    } else if (f.qubits.size() == 1) {
      f.kind = FusedOp::Kind::Gate1Q;  // dense 2x2: keep the pair-loop path
      f.matrix = std::move(m);
    } else {
      f.kind = FusedOp::Kind::Matrix;
      f.matrix = std::move(m);
    }
  }
  return f;
}

/// Estimated wall-clock of one kernel sweep, in units of a 1-qubit pair-loop
/// sweep *of the same engine*. Index [0] is the scalar table, calibrated
/// against a 20-qubit single-thread microbenchmark of the kernels in
/// statevector.cpp: CX moves half the pairs with no arithmetic (~0.3);
/// diagonal is one multiply per amplitude with a hoisted lookup; permutation
/// gathers/scatters without arithmetic (~0.75); a dense k-qubit matrix costs
/// 2^k multiply-adds per amplitude plus gather overhead, and grows roughly
/// geometrically. Index [1] is the vector-kernel table: the SIMD 1q sweep is
/// ~3x faster than scalar while CX (~1.9x), diagonal (~1.6x) and the generic
/// dense gather (~1.5x) compress less, so relative to the (now cheaper) unit
/// everything else got more expensive — except the lane-interleaved dense
/// 2q/4q kernels (~3.3x / ~2.3x), which hold closer to their scalar ratios.
constexpr double kCostCX[2] = {0.35, 0.55};
constexpr double kCostDiagonal[2] = {0.9, 1.7};
constexpr double kCostPermutation[2] = {0.8, 1.2};
constexpr double kCostDense[2][kMaxFusionQubits + 1] = {
    {1.0, 1.0, 4.0, 5.6, 10.0, 18.0, 34.0},
    {1.0, 1.0, 3.6, 11.0, 13.0, 34.0, 64.0}};
/// The controlled kernel keeps scalar group indexing around its residual
/// (~1.4x end-to-end under SIMD), so its vector cost is the scalar cost
/// rescaled to the vector 1q unit: (0.25 + dense/2^c) * 3.0 / 1.4.
constexpr double kCostControlledBase[2] = {0.25, 0.54};
constexpr double kCostControlledResidualScale[2] = {1.0, 2.14};

double kernel_cost(const FusedOp& f, bool vec) {
  switch (f.kind) {
    case FusedOp::Kind::Gate1Q:
      return 1.0;
    case FusedOp::Kind::GateCX:
      return kCostCX[vec];
    case FusedOp::Kind::Diagonal:
      return kCostDiagonal[vec];
    case FusedOp::Kind::Permutation:
      return kCostPermutation[vec];
    case FusedOp::Kind::Controlled: {
      const int nt = static_cast<int>(f.qubits.size()) - f.num_controls;
      return kCostControlledBase[vec] +
             kCostControlledResidualScale[vec] * kCostDense[0][nt] /
                 static_cast<double>(1 << f.num_controls);
    }
    case FusedOp::Kind::Matrix:
      return kCostDense[vec][f.qubits.size()];
    case FusedOp::Kind::Op:
      return 1.0;  // passthrough; never costed
  }
  return 1.0;
}

/// Compile one un-merged gate. 1-qubit gates and CX keep their dedicated
/// fast paths (bitwise identical to unfused execution); other lone gates
/// still get their matrix precomputed at plan time — and classified, so e.g.
/// a lone CZ runs through the diagonal kernel — instead of rebuilding it via
/// op_matrix on every shot.
FusedOp make_single(const Operation& op) {
  if (op.qubits.size() == 1) {
    FusedOp f;
    f.kind = FusedOp::Kind::Gate1Q;
    f.qubits.assign(op.qubits.begin(), op.qubits.end());
    f.matrix = op_matrix(op.kind, op.params);
    return f;
  }
  if (op.kind == OpKind::CX) {
    FusedOp f;
    f.kind = FusedOp::Kind::GateCX;
    f.qubits.assign(op.qubits.begin(), op.qubits.end());
    return f;
  }
  return classify_matrix(op_matrix(op.kind, op.params),
                         std::vector<int>(op.qubits.begin(), op.qubits.end()));
}

void push_op(FusedOp f, int nsrc, FusedCircuit& plan) {
  switch (f.kind) {
    case FusedOp::Kind::Diagonal:
      ++plan.diagonal_ops;
      break;
    case FusedOp::Kind::Permutation:
      ++plan.permutation_ops;
      break;
    case FusedOp::Kind::Controlled:
      ++plan.controlled_ops;
      break;
    default:
      break;
  }
  plan.planned_cost += kernel_cost(f, plan.vector_costs);
  f.source_gates = nsrc;
  ++plan.state_sweeps;
  if (nsrc >= 2) ++plan.fused_runs;
  plan.ops.push_back(std::move(f));
}

/// Emit one gate un-merged, charging both cost ledgers its own kernel cost
/// (an un-merged gate's planned and unfused costs coincide by definition).
void push_single(const Operation& op, FusedCircuit& plan) {
  FusedOp f = make_single(op);
  plan.unfused_cost += kernel_cost(f, plan.vector_costs);
  push_op(std::move(f), 1, plan);
}

/// Compile a run of adjacent unconditioned unitary gates: build the fused
/// matrix over the run's qubit union, classify it, and accept the merge only
/// if the resulting kernel is estimated cheaper than sweeping the member
/// gates one by one. A rejected run is re-partitioned greedily at one qubit
/// narrower and each sub-run recurses — so e.g. an unprofitable 3-qubit
/// dense run still collapses its same-qubit 1-qubit stretches into single
/// 2x2 gates, and streams the rest out unfused.
void emit_run(const Operation* const* ops, int count, FusedCircuit& plan) {
  if (count == 1) {
    push_single(*ops[0], plan);
    return;
  }
  std::vector<int> qubits;
  for (int i = 0; i < count; ++i)
    for (int q : ops[i]->qubits)
      if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
        qubits.push_back(q);
  std::sort(qubits.begin(), qubits.end());
  const int k = static_cast<int>(qubits.size());
  Matrix fused = Matrix::identity(std::size_t{1} << k);
  for (int i = 0; i < count; ++i) {
    const Operation& op = *ops[i];
    std::vector<int> pos(op.qubits.size());
    for (std::size_t j = 0; j < op.qubits.size(); ++j)
      pos[j] = static_cast<int>(
          std::lower_bound(qubits.begin(), qubits.end(), op.qubits[j]) -
          qubits.begin());
    fused = embed_matrix(op_matrix(op.kind, op.params), pos, k) * fused;
  }
  FusedOp candidate = classify_matrix(std::move(fused), std::move(qubits));
  double unfused_cost = 0;
  for (int i = 0; i < count; ++i)
    unfused_cost += kernel_cost(make_single(*ops[i]), plan.vector_costs);
  if (kernel_cost(candidate, plan.vector_costs) <= unfused_cost) {
    plan.unfused_cost += unfused_cost;
    push_op(std::move(candidate), count, plan);
    return;
  }
  // Unprofitable at width k: re-partition with cap k-1 (terminates — at cap
  // 1 every sub-run is a same-qubit 1q stretch, which always merges).
  const int cap = k - 1;
  std::vector<int> uq;
  int start = 0;
  for (int i = 0; i < count; ++i) {
    const Operation& op = *ops[i];
    if (static_cast<int>(op.qubits.size()) > cap) {
      if (i > start) emit_run(ops + start, i - start, plan);
      push_single(op, plan);
      start = i + 1;
      uq.clear();
      continue;
    }
    std::size_t extra = 0;
    for (int q : op.qubits)
      if (std::find(uq.begin(), uq.end(), q) == uq.end()) ++extra;
    if (i > start && uq.size() + extra > static_cast<std::size_t>(cap)) {
      emit_run(ops + start, i - start, plan);
      start = i;
      uq.clear();
    }
    for (int q : op.qubits)
      if (std::find(uq.begin(), uq.end(), q) == uq.end()) uq.push_back(q);
  }
  if (count > start) emit_run(ops + start, count - start, plan);
}

/// A run of adjacent unconditioned unitary gates being merged.
struct Run {
  std::vector<const Operation*> ops;
  std::vector<int> qubits;  // union, insertion order
};

void flush(Run& run, FusedCircuit& plan) {
  if (run.ops.empty()) return;
  emit_run(run.ops.data(), static_cast<int>(run.ops.size()), plan);
  run.ops.clear();
  run.qubits.clear();
}

}  // namespace

FusionConfig fusion_config() {
  FusionConfig cfg;
  cfg.enabled = knobs::flag(knobs::Knob::Fusion);
  cfg.max_qubits = static_cast<int>(knobs::get(knobs::Knob::FusionMaxQubits));
  return cfg;
}

void set_fusion_enabled(int enabled) {
  if (enabled < 0)
    knobs::clear(knobs::Knob::Fusion);
  else
    knobs::set(knobs::Knob::Fusion, enabled);
}

void set_fusion_max_qubits(int max_qubits) {
  if (max_qubits <= 0)
    knobs::clear(knobs::Knob::FusionMaxQubits);
  else
    knobs::set(knobs::Knob::FusionMaxQubits, max_qubits);
}

FusedCircuit fuse_circuit(const QuantumCircuit& circuit) {
  return fuse_circuit(circuit, fusion_config());
}

FusedCircuit fuse_circuit(const QuantumCircuit& circuit,
                          const FusionConfig& config) {
  FusedCircuit plan;
  plan.num_qubits = circuit.num_qubits();
  plan.vector_costs = use_vector_costs(config);
  const int max_qubits = clamp_max_qubits(config.max_qubits);
  Run run;
  for (const Operation& op : circuit.ops()) {
    const bool fusable = op_is_unitary(op.kind) && !op.conditioned();
    if (fusable) ++plan.source_unitary_gates;
    if (!fusable || !config.enabled) {
      // Run boundary: measure/reset/conditioned pass through to the shot
      // loop; plain barriers only cut the run. With fusion off, every op
      // passes through so execution reproduces the unfused path bit for bit.
      flush(run, plan);
      if (op.kind == OpKind::Barrier && !op.conditioned()) continue;
      FusedOp f;
      f.kind = FusedOp::Kind::Op;
      f.op = op;
      if (fusable) {
        f.source_gates = 1;
        ++plan.state_sweeps;
      }
      plan.ops.push_back(std::move(f));
      continue;
    }
    if (static_cast<int>(op.qubits.size()) > max_qubits) {
      // Wider than any run can grow: emit alone.
      flush(run, plan);
      push_single(op, plan);
      continue;
    }
    // Greedy merge: extend the current run while the qubit union stays
    // within the cap, else seal it and start a new run at this gate.
    std::size_t extra = 0;
    for (int q : op.qubits)
      if (std::find(run.qubits.begin(), run.qubits.end(), q) ==
          run.qubits.end())
        ++extra;
    if (!run.ops.empty() && run.qubits.size() + extra >
                                static_cast<std::size_t>(max_qubits))
      flush(run, plan);
    for (int q : op.qubits)
      if (std::find(run.qubits.begin(), run.qubits.end(), q) ==
          run.qubits.end())
        run.qubits.push_back(q);
    run.ops.push_back(&op);
  }
  flush(run, plan);
  return plan;
}

void apply_fused_op(Statevector& sv, const FusedOp& f) {
  switch (f.kind) {
    case FusedOp::Kind::Op:
      throw std::logic_error(
          "apply_fused_op: passthrough ops belong to the shot loop");
    case FusedOp::Kind::Gate1Q:
      sv.apply_1q(f.matrix(0, 0), f.matrix(0, 1), f.matrix(1, 0),
                  f.matrix(1, 1), f.qubits[0]);
      break;
    case FusedOp::Kind::GateCX:
      sv.apply_cx(f.qubits[0], f.qubits[1]);
      break;
    case FusedOp::Kind::Matrix:
      sv.apply_matrix(f.matrix, f.qubits);
      break;
    case FusedOp::Kind::Diagonal:
      sv.apply_diagonal(f.diag, f.qubits);
      break;
    case FusedOp::Kind::Permutation:
      sv.apply_permutation(f.perm, f.phases, f.qubits);
      break;
    case FusedOp::Kind::Controlled:
      sv.apply_controlled_matrix(f.matrix, f.qubits, f.num_controls);
      break;
  }
}

}  // namespace qtc::sim
