#include "noise/trajectory.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/knobs.hpp"
#include "core/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc::noise {

namespace {

/// Stochastically apply one Kraus operator: candidate states K_k|psi> are
/// selected with probability ||K_k psi||^2 and renormalized. `candidate` is
/// caller-owned scratch so the per-gate hot loop reuses one allocation
/// across the whole trajectory.
void sample_kraus(sim::Statevector& sv, const KrausChannel& channel,
                  const std::vector<int>& qubits, Rng& rng,
                  sim::Statevector& candidate) {
  const double r = rng.uniform();
  const std::size_t nops = channel.ops.size();
  double acc = 0;
  for (std::size_t k = 0; k + 1 < nops; ++k) {
    candidate = sv;  // copy-assign reuses the scratch buffer's capacity
    candidate.apply_matrix(channel.ops[k], qubits);
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
  sv.apply_matrix(channel.ops[nops - 1], qubits);
  sv.normalize();
}

/// Fuse `segment` (a stretch of unconditioned noiseless unitary gates and
/// barriers) and splice the resulting kernels into the plan.
void flush_segment(QuantumCircuit& segment, const sim::FusionConfig& config,
                   TrajectoryPlan& plan) {
  if (segment.ops().empty()) return;
  sim::FusedCircuit fused = sim::fuse_circuit(segment, config);
  if (!fused.ops.empty()) ++plan.fused_segments;
  plan.state_sweeps += fused.state_sweeps;
  for (auto& f : fused.ops)
    plan.steps.push_back(TrajectoryPlan::Step{std::move(f), nullptr});
  segment.ops().clear();
}

/// Relabel `plan` onto the qubits its steps act on and return them in
/// increasing order: compact qubit i is circuit qubit active[i]. Barrier
/// passthroughs lose their (unused) operands instead of widening the state.
std::vector<int> compact_plan(TrajectoryPlan& plan) {
  const auto operands = [](TrajectoryPlan::Step& step) -> std::vector<int>& {
    return step.fused.kind == sim::FusedOp::Kind::Op ? step.fused.op.qubits
                                                     : step.fused.qubits;
  };
  std::vector<bool> touched(static_cast<std::size_t>(plan.num_qubits), false);
  for (TrajectoryPlan::Step& step : plan.steps) {
    if (step.fused.kind == sim::FusedOp::Kind::Op &&
        step.fused.op.kind == OpKind::Barrier)
      step.fused.op.qubits.clear();
    for (int q : operands(step)) touched[q] = true;
  }
  std::vector<int> active;
  std::vector<int> compact_of(static_cast<std::size_t>(plan.num_qubits), -1);
  for (int q = 0; q < plan.num_qubits; ++q)
    if (touched[q]) {
      compact_of[q] = static_cast<int>(active.size());
      active.push_back(q);
    }
  for (TrajectoryPlan::Step& step : plan.steps)
    for (int& q : operands(step)) q = compact_of[q];
  return active;
}

}  // namespace

bool trajectory_parallel() { return knobs::flag(knobs::Knob::TrajParallel); }

void set_trajectory_parallel(int enabled) {
  if (enabled < 0)
    knobs::clear(knobs::Knob::TrajParallel);
  else
    knobs::set(knobs::Knob::TrajParallel, enabled);
}

TrajectoryPlan compile_trajectory_plan(const QuantumCircuit& circuit,
                                       const NoiseModel& noise) {
  const sim::FusionConfig config = sim::fusion_config();
  TrajectoryPlan plan;
  plan.num_qubits = circuit.num_qubits();
  plan.num_clbits = circuit.num_clbits();
  QuantumCircuit segment(circuit.num_qubits());
  for (const Operation& op : circuit.ops()) {
    if (op_is_unitary(op.kind)) ++plan.source_unitary_gates;
    if (op.kind == OpKind::Barrier && !op.conditioned()) {
      // Barriers only cut fused runs; the planner drops them.
      segment.ops().push_back(op);
      continue;
    }
    const KrausChannel* channel =
        op_is_unitary(op.kind) ? noise.find_error(op) : nullptr;
    if (op_is_unitary(op.kind) && !op.conditioned() && !channel) {
      segment.ops().push_back(op);  // noiseless: eligible for fusion
      continue;
    }
    // Plan boundary: noisy, conditioned or non-unitary. The channel must
    // fire after this exact gate, so it cannot merge into a fused kernel.
    flush_segment(segment, config, plan);
    if (channel) {
      ++plan.noisy_gates;
      ++plan.state_sweeps;
    } else if (op_is_unitary(op.kind)) {
      ++plan.state_sweeps;  // conditioned noiseless gate
    }
    TrajectoryPlan::Step step;
    step.fused.kind = sim::FusedOp::Kind::Op;
    step.fused.op = op;
    step.channel = channel;
    plan.steps.push_back(std::move(step));
  }
  flush_segment(segment, config, plan);
  return plan;
}

sim::Counts TrajectorySimulator::run(const QuantumCircuit& circuit,
                                     const NoiseModel& noise, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  TrajectoryPlan plan = compile_trajectory_plan(circuit, noise);
  // Simulate only the qubits the plan touches; the state sits at their
  // circuit positions so reductions match the full-width register bit for
  // bit (DESIGN.md, "Trajectory compaction").
  const std::vector<int> active = compact_plan(plan);
  const int width = static_cast<int>(active.size());
  if (width > sim::kMaxStatevectorQubits)
    throw std::invalid_argument(
        "trajectory: circuit touches " + std::to_string(width) +
        " qubits; the statevector engine holds at most " +
        std::to_string(sim::kMaxStatevectorQubits));
  const int ncl = plan.num_clbits;

  // Trajectories are independent given their seed-derived RNG streams, so
  // they run in parallel; outcomes are recorded in shot order afterwards,
  // making the Counts identical for a fixed seed whatever the thread count.
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  const auto body = [&](std::uint64_t s0, std::uint64_t s1) {
    sim::Statevector kraus_scratch(width);
    for (std::uint64_t s = s0; s < s1; ++s) {
      Rng rng(derive_stream_seed(seed_, s));
      sim::Statevector sv(width);
      sv.set_register_layout(active, plan.num_qubits);
      std::vector<int> clbits(ncl, 0);
      for (const TrajectoryPlan::Step& step : plan.steps) {
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
                noise.apply_readout(active[op.qubits[0]], value, rng);
            break;
          }
          case OpKind::Reset:
            sv.reset(op.qubits[0], rng);
            break;
          case OpKind::Barrier:
            break;
          default: {
            sv.apply(op);
            if (step.channel)
              sample_kraus(sv, *step.channel, op.qubits, rng, kraus_scratch);
          }
        }
      }
      outcomes[s] = sim::bits_key(clbits);
    }
  };
  if (trajectory_parallel())
    parallel::parallel_for(0, static_cast<std::uint64_t>(shots), body,
                           /*serial_cutoff=*/2);
  else
    body(0, static_cast<std::uint64_t>(shots));

  sim::Counts counts;
  for (const std::string& o : outcomes) counts.record(o);
  return counts;
}

}  // namespace qtc::noise
