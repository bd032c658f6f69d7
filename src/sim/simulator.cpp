#include "sim/simulator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "sim/fusion.hpp"

namespace qtc::sim {

std::uint64_t creg_value(const Register& reg, const std::vector<int>& clbits) {
  std::uint64_t value = 0;
  for (int i = 0; i < reg.size; ++i)
    if (clbits[reg.offset + i]) value |= std::uint64_t{1} << i;
  return value;
}

namespace {

/// Stochastically apply one Kraus operator: candidate states K_k|psi> are
/// selected with probability ||K_k psi||^2 and renormalized. `candidate` is
/// the chunk's scratch, so the per-gate hot loop reuses one allocation
/// across all the chunk's shots.
void sample_kraus(Statevector& sv, const std::vector<Matrix>& kraus,
                  std::span<const int> qubits, Rng& rng,
                  Statevector& candidate) {
  const double r = rng.uniform();
  const std::size_t nops = kraus.size();
  double acc = 0;
  for (std::size_t k = 0; k + 1 < nops; ++k) {
    candidate = sv;  // copy-assign reuses the scratch buffer's capacity
    candidate.apply_matrix(kraus[k], qubits);
    const double p = candidate.norm() * candidate.norm();
    acc += p;
    if (r < acc) {
      candidate.normalize();
      std::swap(sv, candidate);
      return;
    }
  }
  // Fall through to the last operator (also the only one for a 1-op
  // channel): apply in place, no candidate copy needed.
  sv.apply_matrix(kraus[nops - 1], qubits);
  sv.normalize();
}

/// Apply the unitary steps of `ops`: measurements, resets and barriers are
/// skipped, and a conditioned gate throws (it needs run()).
void apply_unitaries(Statevector& sv, const std::vector<FusedOp>& ops) {
  for (const auto& f : ops) {
    if (f.kind != FusedOp::Kind::Op) {
      apply_fused_op(sv, f);
    } else if (op_is_unitary(f.op.kind)) {
      if (f.op.conditioned())
        throw std::invalid_argument(
            "statevector: circuit with conditionals needs run()");
      sv.apply(f.op);
    }
  }
}

/// One shot of `plan` from |0...0>: the only per-shot statevector replay.
/// `sv`, `candidate` and `clbits` are the chunk's scratch.
std::string replay_one_shot(const ShotPlan& plan, Rng& rng, Statevector& sv,
                            Statevector& candidate, std::vector<int>& clbits) {
  std::fill(sv.amplitudes().begin(), sv.amplitudes().end(), cplx{0, 0});
  sv.amplitudes()[0] = 1;
  std::fill(clbits.begin(), clbits.end(), 0);
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const FusedOp& f = plan.ops[i];
    if (f.kind != FusedOp::Kind::Op) {
      apply_fused_op(sv, f);
      continue;
    }
    const Operation& op = f.op;
    if (op.conditioned()) {
      const Register& reg = (*plan.cregs)[op.cond_reg];
      if (creg_value(reg, clbits) != op.cond_val) continue;
    }
    switch (op.kind) {
      case OpKind::Measure: {
        const int q = op.qubits[0];
        const int value = sv.measure(q, rng);
        clbits[op.clbits[0]] = apply_readout(
            plan.readout.empty() ? nullptr : plan.readout[q], value, rng);
        break;
      }
      case OpKind::Reset:
        sv.reset(op.qubits[0], rng);
        break;
      case OpKind::Barrier:
        break;
      default:
        sv.apply(op);
        if (!plan.kraus.empty() && plan.kraus[i])
          sample_kraus(sv, *plan.kraus[i], op.qubits, rng, candidate);
    }
  }
  return bits_key(clbits);
}

/// Run `shots` replays of `plan` under the sample_shots contract.
Counts replay_shots(const ShotPlan& plan, std::uint64_t seed, int shots) {
  return sample_shots(seed, shots, [&] {
    Statevector sv(plan.num_qubits);
    if (!plan.positions.empty())
      sv.set_register_layout(plan.positions, plan.register_width);
    return [&, sv = std::move(sv), candidate = Statevector(0),
            clbits = std::vector<int>(plan.num_clbits)](
               std::uint64_t, Rng& rng) mutable {
      return replay_one_shot(plan, rng, sv, candidate, clbits);
    };
  });
}

/// Relabel `plan` onto the qubits its ops act on, in increasing order:
/// compact qubit i is circuit qubit plan.positions[i]. Barrier passthroughs
/// lose their (unused) operands instead of widening the state.
void compact_plan(ShotPlan& plan, int circuit_qubits) {
  const auto operands = [](FusedOp& f) -> std::span<int> {
    if (f.kind == FusedOp::Kind::Op) return f.op.qubits;
    return f.qubits;
  };
  std::vector<bool> touched(static_cast<std::size_t>(circuit_qubits), false);
  for (FusedOp& f : plan.ops) {
    if (f.kind == FusedOp::Kind::Op && f.op.kind == OpKind::Barrier)
      f.op.qubits.clear();
    for (int q : operands(f)) touched[q] = true;
  }
  std::vector<int> compact_of(static_cast<std::size_t>(circuit_qubits), -1);
  plan.positions.clear();
  for (int q = 0; q < circuit_qubits; ++q)
    if (touched[q]) {
      compact_of[q] = static_cast<int>(plan.positions.size());
      plan.positions.push_back(q);
    }
  for (FusedOp& f : plan.ops)
    for (int& q : operands(f)) q = compact_of[q];
  if (!plan.readout.empty()) {
    std::vector<const ReadoutError*> readout;
    for (int q : plan.positions) readout.push_back(plan.readout[q]);
    plan.readout = std::move(readout);
  }
  plan.num_qubits = static_cast<int>(plan.positions.size());
  plan.register_width = circuit_qubits;
}

/// Simulate the compacted, channel-free `plan` once and draw every shot of
/// `layer` (circuit clbit -> circuit qubit) from its final state.
Counts sample_once(const ShotPlan& plan, FinalLayer layer, std::uint64_t seed,
                   int shots) {
  Statevector sv(plan.num_qubits);
  apply_unitaries(sv, plan.ops);
  // Binary search per shot in the precomputed cumulative distribution
  // instead of an O(2^n) scan.
  const std::vector<double> cdf = sv.cumulative_probabilities();
  for (int& q : layer.clbit_qubit)
    if (q >= 0)
      q = static_cast<int>(std::lower_bound(plan.positions.begin(),
                                            plan.positions.end(), q) -
                           plan.positions.begin());
  return sample_final_layer(
      layer, seed, shots,
      [&](Rng& rng) { return sample_cdf(cdf, rng.uniform()); },
      [&](int q, int bit, Rng& rng) {
        return plan.readout.empty() ? bit
                                    : apply_readout(plan.readout[q], bit, rng);
      });
}

}  // namespace

Counts run_shot_plan(const QuantumCircuit& circuit, ShotPlan plan,
                     std::uint64_t seed, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  compact_plan(plan, circuit.num_qubits());
  if (plan.num_qubits > kMaxStatevectorQubits)
    throw std::invalid_argument(
        "run: circuit touches " + std::to_string(plan.num_qubits) +
        " qubits; the statevector engine holds at most " +
        std::to_string(kMaxStatevectorQubits));
  plan.num_clbits = circuit.num_clbits();
  plan.cregs = &circuit.cregs();
  if (std::none_of(plan.kraus.begin(), plan.kraus.end(),
                   [](const auto* k) { return k != nullptr; }))
    if (FinalLayer layer = final_layer(circuit); layer.ok())
      return sample_once(plan, std::move(layer), seed, shots);
  return replay_shots(plan, seed, shots);
}

RunResult StatevectorSimulator::run(const QuantumCircuit& circuit, int shots) {
  ShotPlan plan;
  plan.ops = fuse_circuit(circuit).ops;
  return {run_shot_plan(circuit, std::move(plan), seed_, shots)};
}

Statevector StatevectorSimulator::statevector(const QuantumCircuit& circuit) {
  Statevector sv(circuit.num_qubits());
  apply_unitaries(sv, fuse_circuit(circuit).ops);
  return sv;
}

Matrix UnitarySimulator::unitary(const QuantumCircuit& circuit) const {
  const int n = circuit.num_qubits();
  if (n > 14)
    throw std::invalid_argument("unitary: too many qubits for dense matrix");
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (!op_is_unitary(op.kind) || op.conditioned())
      throw std::invalid_argument(
          "unitary: circuit contains non-unitary or conditioned ops");
  }
  const std::size_t dim = std::size_t{1} << n;
  // One fused plan shared by all 2^n columns (only unitary kernels survive
  // the validation above, except Kind::Op passthroughs when fusion is off).
  const FusedCircuit plan = fuse_circuit(circuit);
  // Columns of U are the images of the basis states; each column evolves
  // independently, so the column loop is the parallel axis (gate kernels run
  // serially inside it).
  Matrix u(dim, dim);
  parallel::parallel_for(
      0, dim,
      [&](std::uint64_t j0, std::uint64_t j1) {
        for (std::uint64_t j = j0; j < j1; ++j) {
          std::vector<cplx> e(dim, cplx{0, 0});
          e[j] = 1;
          Statevector col(std::move(e));
          apply_unitaries(col, plan.ops);
          for (std::size_t i = 0; i < dim; ++i) u(i, j) = col.amplitude(i);
        }
      },
      /*serial_cutoff=*/2);
  return u;
}

}  // namespace qtc::sim
