#include "noise/trajectory.hpp"

#include <utility>

#include "sim/simulator.hpp"

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
  TrajectoryPlan plan = compile_trajectory_plan(circuit, noise);
  sim::ShotPlan shot_plan;
  for (TrajectoryPlan::Step& step : plan.steps) {
    shot_plan.ops.push_back(std::move(step.fused));
    shot_plan.kraus.push_back(step.channel ? &step.channel->ops : nullptr);
  }
  for (int q = 0; q < circuit.num_qubits(); ++q)
    shot_plan.readout.push_back(noise.readout_error(q));
  return sim::run_shot_plan(circuit, std::move(shot_plan), seed_, shots);
}

}  // namespace qtc::noise
