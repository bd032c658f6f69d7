#include "sim/simulator.hpp"

#include <algorithm>
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
                  const std::vector<int>& qubits, Rng& rng,
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

/// Apply the unitary steps of `plan`: measurements, resets and barriers are
/// skipped, and a conditioned gate throws (it needs run()).
void apply_unitaries(Statevector& sv, const FusedCircuit& plan) {
  for (const auto& f : plan.ops) {
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

}  // namespace

Counts replay_shots(const ShotPlan& plan, std::uint64_t seed, int shots,
                    std::vector<cplx>* last_state) {
  const auto last = static_cast<std::uint64_t>(shots) - 1;
  return sample_shots(seed, shots, [&] {
    Statevector sv(plan.num_qubits);
    if (!plan.positions.empty())
      sv.set_register_layout(plan.positions, plan.register_width);
    return [&, sv = std::move(sv), candidate = Statevector(0),
            clbits = std::vector<int>(plan.num_clbits)](
               std::uint64_t s, Rng& rng) mutable {
      std::string key = replay_one_shot(plan, rng, sv, candidate, clbits);
      if (last_state && s == last)
        last_state->assign(sv.amplitudes().begin(), sv.amplitudes().end());
      return key;
    };
  });
}

bool StatevectorSimulator::sampling_friendly(
    const QuantumCircuit& circuit) const {
  bool seen_measure = false;
  for (const auto& op : circuit.ops()) {
    if (op.conditioned() || op.kind == OpKind::Reset) return false;
    if (op.kind == OpKind::Measure) {
      seen_measure = true;
      continue;
    }
    if (op.kind == OpKind::Barrier) continue;
    if (seen_measure) return false;  // gate after a measurement
  }
  return true;
}

RunResult StatevectorSimulator::run(const QuantumCircuit& circuit, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  RunResult result;
  const int ncl = circuit.num_clbits();

  if (!circuit.has_measurements()) {
    Statevector sv = statevector(circuit);
    result.statevector.assign(sv.amplitudes().begin(), sv.amplitudes().end());
    result.counts.shots = shots;
    return result;
  }

  // Compile the fused execution plan once; both paths below (single pass or
  // thousands of per-shot replays) reuse it, amortizing the planning cost.
  FusedCircuit plan = fuse_circuit(circuit);

  if (sampling_friendly(circuit)) {
    // Simulate the unitary prefix once, then sample the measurement layer
    // from the precomputed cumulative distribution (binary search per shot
    // instead of an O(2^n) scan).
    Statevector sv(circuit.num_qubits());
    apply_unitaries(sv, plan);
    std::vector<std::pair<int, int>> qubit_to_clbit;  // (qubit, clbit)
    for (const auto& op : circuit.ops())
      if (op.kind == OpKind::Measure)
        qubit_to_clbit.emplace_back(op.qubits[0], op.clbits[0]);
    result.statevector.assign(sv.amplitudes().begin(), sv.amplitudes().end());
    const std::vector<double> cdf = sv.cumulative_probabilities();
    for (int s = 0; s < shots; ++s) {
      const std::uint64_t basis = sample_cdf(cdf, rng_.uniform());
      result.counts.record(measured_key(basis, qubit_to_clbit, ncl));
    }
    return result;
  }

  // General path: replay the compiled plan once per shot.
  ShotPlan replay;
  replay.ops = std::move(plan.ops);
  replay.num_qubits = circuit.num_qubits();
  replay.num_clbits = ncl;
  replay.cregs = &circuit.cregs();
  result.counts = replay_shots(replay, seed_, shots, &result.statevector);
  return result;
}

Statevector StatevectorSimulator::statevector(const QuantumCircuit& circuit) {
  Statevector sv(circuit.num_qubits());
  apply_unitaries(sv, fuse_circuit(circuit));
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
          apply_unitaries(col, plan);
          for (std::size_t i = 0; i < dim; ++i) u(i, j) = col.amplitude(i);
        }
      },
      /*serial_cutoff=*/2);
  return u;
}

}  // namespace qtc::sim
