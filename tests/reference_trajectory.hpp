#pragma once
// Test-only oracle for the trajectory engine: the full-width shot loop that
// noise::TrajectorySimulator::run used before it learned to simulate only
// the qubits a circuit touches. Every shot allocates all 2^n amplitudes of
// the circuit's register and applies the compiled plan with the circuit's
// own qubit labels, so the library engine must reproduce its fixed-seed
// counts bit for bit. Same plan, same per-shot RNG streams, same
// Kraus-sampling order, same shot-parallel loop.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/circuit.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "sim/fusion.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc::testing {

inline void reference_sample_kraus(sim::Statevector& sv,
                                   const noise::KrausChannel& channel,
                                   const std::vector<int>& qubits, Rng& rng,
                                   sim::Statevector& candidate) {
  const double r = rng.uniform();
  const std::size_t nops = channel.ops.size();
  double acc = 0;
  for (std::size_t k = 0; k + 1 < nops; ++k) {
    candidate = sv;
    candidate.apply_matrix(channel.ops[k], qubits);
    const double p = candidate.norm() * candidate.norm();
    acc += p;
    if (r < acc) {
      candidate.normalize();
      std::swap(sv, candidate);
      return;
    }
  }
  sv.apply_matrix(channel.ops[nops - 1], qubits);
  sv.normalize();
}

/// Full-width reference run: `circuit.num_qubits()` qubits per shot.
inline sim::Counts reference_trajectory_run(const QuantumCircuit& circuit,
                                            const noise::NoiseModel& noise,
                                            int shots, std::uint64_t seed) {
  const noise::TrajectoryPlan plan =
      noise::compile_trajectory_plan(circuit, noise);
  const int ncl = plan.num_clbits;
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  const auto body = [&](std::uint64_t s0, std::uint64_t s1) {
    sim::Statevector kraus_scratch(plan.num_qubits);
    for (std::uint64_t s = s0; s < s1; ++s) {
      Rng rng(derive_stream_seed(seed, s));
      sim::Statevector sv(plan.num_qubits);
      std::vector<int> clbits(ncl, 0);
      for (const noise::TrajectoryPlan::Step& step : plan.steps) {
        const sim::FusedOp& f = step.fused;
        if (f.kind != sim::FusedOp::Kind::Op) {
          sim::apply_fused_op(sv, f);
          continue;
        }
        const Operation& op = f.op;
        if (op.conditioned()) {
          const Register& reg = circuit.cregs()[op.cond_reg];
          if (sim::creg_value(reg, clbits) != op.cond_val) continue;
        }
        switch (op.kind) {
          case OpKind::Measure: {
            const int value = sv.measure(op.qubits[0], rng);
            clbits[op.clbits[0]] =
                noise.apply_readout(op.qubits[0], value, rng);
            break;
          }
          case OpKind::Reset:
            sv.reset(op.qubits[0], rng);
            break;
          case OpKind::Barrier:
            break;
          default:
            sv.apply(op);
            if (step.channel)
              reference_sample_kraus(sv, *step.channel, op.qubits, rng,
                                     kraus_scratch);
        }
      }
      outcomes[s] = sim::bits_key(clbits);
    }
  };
  parallel::parallel_for(0, static_cast<std::uint64_t>(shots), body,
                         /*serial_cutoff=*/2);
  sim::Counts counts;
  for (const std::string& o : outcomes) counts.record(o);
  return counts;
}

}  // namespace qtc::testing
