#pragma once
// Traced replica of exec::execute: the same sequence of public calls
// (transpile through the global cache, noise model, engine choice, engine
// run) with a span around each stage. It exists only for traced runs, which
// check that its counts equal exec::execute's bitwise for the same inputs.

#include <cstdint>

#include "exec/execute.hpp"
#include "trace.hpp"

namespace perfbench {

/// Trajectory-plan facts of the last traced job that ran the trajectory
/// engine (zero when another engine ran).
struct PlanStats {
  int state_sweeps = 0;
  int noisy_gates = 0;
};

/// exec::execute with spans "exec" (root), "transpiler", "noise.model",
/// "sim.dispatch", "sim.stabilizer", "dd.run", "noise.plan" and "noise.run".
/// The trajectory plan is compiled once more outside TrajectorySimulator::run
/// so that "noise.plan" can be timed; "noise.run" therefore contains a second
/// plan compile, and sampling time is noise.run minus noise.plan.
qtc::exec::ExecuteResult traced_execute(const qtc::QuantumCircuit& circuit,
                                        const qtc::arch::Backend& backend,
                                        const qtc::exec::ExecuteOptions& options,
                                        Tracer& tracer, std::uint64_t job,
                                        PlanStats& plan_stats);

}  // namespace perfbench
