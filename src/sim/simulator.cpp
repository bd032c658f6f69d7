#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "sim/fusion.hpp"

namespace qtc::sim {

std::uint64_t creg_value(const Register& reg, const std::vector<int>& clbits) {
  std::uint64_t value = 0;
  for (int i = 0; i < reg.size; ++i)
    if (clbits[reg.offset + i]) value |= std::uint64_t{1} << i;
  return value;
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
  const FusedCircuit plan = fuse_circuit(circuit);

  if (sampling_friendly(circuit)) {
    // Simulate the unitary prefix once, then sample the measurement layer
    // from the precomputed cumulative distribution (binary search per shot
    // instead of an O(2^n) scan).
    Statevector sv(circuit.num_qubits());
    std::vector<std::pair<int, int>> qubit_to_clbit;  // (qubit, clbit)
    for (const auto& f : plan.ops) {
      if (f.kind != FusedOp::Kind::Op) {
        apply_fused_op(sv, f);
      } else if (f.op.kind == OpKind::Measure) {
        qubit_to_clbit.emplace_back(f.op.qubits[0], f.op.clbits[0]);
      } else {
        sv.apply(f.op);  // passthrough unitary (fusion disabled)
      }
    }
    result.statevector.assign(sv.amplitudes().begin(), sv.amplitudes().end());
    const std::vector<double> cdf = sv.cumulative_probabilities();
    for (int s = 0; s < shots; ++s) {
      const std::uint64_t basis = sample_cdf(cdf, rng_.uniform());
      result.counts.record(measured_key(basis, qubit_to_clbit, ncl));
    }
    return result;
  }

  // General path: re-execute the compiled plan for every shot. Shots are
  // independent given their seed-derived RNG streams, so they run in
  // parallel; outcomes are recorded in shot order afterwards, making the
  // Counts identical for a fixed seed whatever the thread count.
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  std::vector<cplx> last_state;
  parallel::parallel_for(
      0, static_cast<std::uint64_t>(shots),
      [&](std::uint64_t s0, std::uint64_t s1) {
        for (std::uint64_t s = s0; s < s1; ++s) {
          Rng rng(derive_stream_seed(seed_, s));
          Statevector sv(circuit.num_qubits());
          std::vector<int> clbits(ncl, 0);
          for (const auto& f : plan.ops) {
            if (f.kind != FusedOp::Kind::Op) {
              apply_fused_op(sv, f);
              continue;
            }
            const Operation& op = f.op;
            if (op.conditioned()) {
              const Register& reg = circuit.cregs()[op.cond_reg];
              if (creg_value(reg, clbits) != op.cond_val) continue;
            }
            switch (op.kind) {
              case OpKind::Measure:
                clbits[op.clbits[0]] = sv.measure(op.qubits[0], rng);
                break;
              case OpKind::Reset:
                sv.reset(op.qubits[0], rng);
                break;
              case OpKind::Barrier:
                break;
              default:
                sv.apply(op);
            }
          }
          outcomes[s] = bits_key(clbits);
          if (s + 1 == static_cast<std::uint64_t>(shots))
            last_state.assign(sv.amplitudes().begin(),
                              sv.amplitudes().end());
        }
      },
      /*serial_cutoff=*/2);
  for (const std::string& o : outcomes) result.counts.record(o);
  result.statevector = std::move(last_state);
  return result;
}

Statevector StatevectorSimulator::statevector(const QuantumCircuit& circuit) {
  Statevector sv(circuit.num_qubits());
  const FusedCircuit plan = fuse_circuit(circuit);
  for (const auto& f : plan.ops) {
    if (f.kind != FusedOp::Kind::Op) {
      apply_fused_op(sv, f);
      continue;
    }
    if (!op_is_unitary(f.op.kind)) continue;  // measure/reset ignored
    if (f.op.conditioned())
      throw std::invalid_argument(
          "statevector: circuit with conditionals needs run()");
    sv.apply(f.op);
  }
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
          for (const auto& f : plan.ops) {
            if (f.kind != FusedOp::Kind::Op)
              apply_fused_op(col, f);
            else
              col.apply(f.op);
          }
          for (std::size_t i = 0; i < dim; ++i) u(i, j) = col.amplitude(i);
        }
      },
      /*serial_cutoff=*/2);
  return u;
}

}  // namespace qtc::sim
