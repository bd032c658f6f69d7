#pragma once
// Gate-fusion execution pipeline: compile a circuit's gate stream into a
// shorter plan of fused kernels before touching the 2^n amplitude array.
// Adjacent unitary gates whose qubit union stays within a small cap are
// greedily merged into one k-qubit matrix, which is then classified by
// structure (diagonal / generalized permutation / block-controlled / dense)
// and dispatched to the matching specialized Statevector kernel. A pass over
// the state is the memory-bound unit of cost at scale, so turning a
// pass-per-gate loop into a few dense sweeps is the same lever production
// simulators (Aer, the MQT stack) pull. The plan is compiled once per
// circuit and replayed across every shot of the per-shot execution loop, so
// planning cost is amortized over thousands of shots.
//
// Knobs (mirroring QTC_NUM_THREADS):
//   QTC_FUSION            on by default; "0"/"off"/"false"/"no" disables
//   QTC_FUSION_MAX_QUBITS qubit cap of a fused run, default 3, clamped to
//                         [1, 6]
// set_fusion_enabled / set_fusion_max_qubits override the environment
// programmatically (tests and benchmarks compare on/off in one process).
//
// Cost model: merge profitability is judged against the kernels that will
// actually run. The vector kernels (sim/simd.*) compress the cheap sweeps
// (1q pair-loop ~3x, CX ~1.9x, diagonal ~1.6x) much more than the
// gather-heavy dense ones, so relative to a 1q sweep a dense merge is
// *more* expensive under SIMD and some merges that pay off in scalar mode
// lose. Two calibrated tables are kept and the planner picks by the active
// engine; FusionConfig::cost_model forces one for a single fuse_circuit
// call.

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/matrix.hpp"

namespace qtc::sim {

class Statevector;

/// Hard upper bound on fused-run width: 2^6 matrices keep the kernel scratch
/// on the stack and the planner's matrix products negligible.
inline constexpr int kMaxFusionQubits = 6;

struct FusionConfig {
  bool enabled = true;
  int max_qubits = 3;
  /// Kernel cost table the planner judges merges with: -1 auto-selects from
  /// the SIMD engine state (vector kernels active -> vector-calibrated
  /// table), 0 forces the scalar table, 1 forces the vector table.
  int cost_model = -1;
};

/// Effective configuration: programmatic overrides win over the QTC_FUSION /
/// QTC_FUSION_MAX_QUBITS environment variables, which win over the
/// defaults. cost_model stays -1 (auto).
FusionConfig fusion_config();
/// Force fusion on (1) / off (0); -1 restores the env/default behavior.
void set_fusion_enabled(int enabled);
/// Force the fused-run qubit cap (clamped to [1, 6]); 0 restores env/default.
void set_fusion_max_qubits(int max_qubits);

/// One step of a compiled plan: either a passthrough IR operation (measure,
/// reset, anything classically conditioned — the executor's shot loop owns
/// those) or a fused kernel dispatched straight to a Statevector method.
struct FusedOp {
  enum class Kind {
    Op,           // passthrough Operation (also every op when fusion is off)
    Gate1Q,       // un-merged 1-qubit gate, matrix precomputed at plan time
    GateCX,       // un-merged CX (keeps the swap fast path)
    Matrix,       // dense fused matrix via the generic gather/scatter kernel
    Diagonal,     // phase-only: one multiply per amplitude, no gather
    Permutation,  // X-like: index remap (plus per-entry phase when needed)
    Controlled,   // identity except where all control qubits read 1
  };
  Kind kind = Kind::Op;
  Operation op;             // Kind::Op only
  std::vector<int> qubits;  // gate qubits; qubits[0] = least significant bit
  Matrix matrix;            // Gate1Q (2x2), Matrix, Controlled residual
  std::vector<cplx> diag;   // Diagonal
  std::vector<std::uint32_t> perm;  // Permutation: row of column j's entry
  std::vector<cplx> phases;         // Permutation entries; empty when all 1
  int num_controls = 0;     // Controlled: count of leading control `qubits`
  int source_gates = 0;     // original unitary gates covered (0 for Kind::Op
                            // boundaries like measure/reset)
};

/// A compiled execution plan plus its planning statistics. `state_sweeps` is
/// the number of full passes over the amplitude array the unitary part of
/// the plan performs — without fusion that equals `source_unitary_gates`
/// (one sweep per gate), and the reduction is the benchmark's
/// container-independent artifact. Controlled kernels count as one sweep
/// although they touch only the control-active fraction of the state.
struct FusedCircuit {
  std::vector<FusedOp> ops;
  int num_qubits = 0;
  int source_unitary_gates = 0;
  int state_sweeps = 0;
  int fused_runs = 0;  // ops merging >= 2 source gates
  int diagonal_ops = 0;
  int permutation_ops = 0;
  int controlled_ops = 0;
  /// Cost table the plan was judged with (resolved from the config/engine).
  bool vector_costs = false;
  /// Model-estimated cost of the emitted kernels vs. sweeping the covered
  /// source gates one by one, in units of one 1-qubit sweep. The planner
  /// only accepts merges it predicts to win, so planned_cost <= unfused_cost
  /// always holds. Passthrough Kind::Op boundaries are not costed.
  double planned_cost = 0;
  double unfused_cost = 0;
};

/// Compile `circuit` into a fused plan. Measure, reset, barrier and any
/// classically conditioned operation end the current run (a conditioned
/// gate's effect is only known at execution time); barriers are dropped from
/// the plan, the other boundaries pass through as Kind::Op. With fusion
/// disabled every operation passes through unchanged, reproducing the
/// unfused execution bit for bit.
FusedCircuit fuse_circuit(const QuantumCircuit& circuit,
                          const FusionConfig& config);
FusedCircuit fuse_circuit(const QuantumCircuit& circuit);

/// Dispatch one fused kernel. Throws on Kind::Op — the caller's shot loop
/// executes passthrough operations (they may measure, reset, or depend on
/// classical state).
void apply_fused_op(Statevector& sv, const FusedOp& f);

}  // namespace qtc::sim
