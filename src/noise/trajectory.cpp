#include "noise/trajectory.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc::noise {

namespace {

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
  std::vector<int> active = compact_plan(plan);
  const int width = static_cast<int>(active.size());
  if (width > sim::kMaxStatevectorQubits)
    throw std::invalid_argument(
        "trajectory: circuit touches " + std::to_string(width) +
        " qubits; the statevector engine holds at most " +
        std::to_string(sim::kMaxStatevectorQubits));

  sim::ShotPlan replay;
  for (TrajectoryPlan::Step& step : plan.steps) {
    replay.ops.push_back(std::move(step.fused));
    replay.kraus.push_back(step.channel ? &step.channel->ops : nullptr);
  }
  for (int q : active) replay.readout.push_back(noise.readout_error(q));
  replay.num_qubits = width;
  replay.num_clbits = plan.num_clbits;
  replay.positions = std::move(active);
  replay.register_width = plan.num_qubits;
  replay.cregs = &circuit.cregs();
  return sim::replay_shots(replay, seed_, shots);
}

}  // namespace qtc::noise
