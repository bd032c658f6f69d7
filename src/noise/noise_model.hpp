#pragma once
// Noise models: which channel fires after which gate, plus classical
// readout errors — the Terra "infrastructure for specifying and modeling
// physical noise processes" of the paper's Sec. III.

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "core/rng.hpp"
#include "noise/channel.hpp"

namespace qtc::noise {

/// Asymmetric readout error for one qubit.
struct ReadoutError {
  double p0_given_1 = 0;  // probability of reading 0 when the state is 1
  double p1_given_0 = 0;  // probability of reading 1 when the state is 0
};

/// Channels are immutable values shared by every model (and model copy)
/// that attaches them: copying a NoiseModel copies its lookup tables and
/// bumps reference counts, never Kraus matrices.
using SharedChannel = std::shared_ptr<const KrausChannel>;

class NoiseModel {
 public:
  /// Attach a channel to every occurrence of the given gate kind,
  /// independent of which qubits it acts on. Channel arity must match the
  /// gate arity (1q channel on 1q gates, 2q channel on 2q gates).
  void add_all_qubit_error(SharedChannel channel, OpKind kind);
  /// Attach a channel to a gate kind on one specific qubit tuple.
  void add_qubit_error(SharedChannel channel, OpKind kind,
                       const std::vector<int>& qubits);
  /// Value overloads: the model keeps one private copy of `channel`.
  void add_all_qubit_error(const KrausChannel& channel, OpKind kind);
  void add_qubit_error(const KrausChannel& channel, OpKind kind,
                       const std::vector<int>& qubits);
  /// Classical readout error on one qubit.
  void set_readout_error(int qubit, ReadoutError error);

  /// Channel that fires after this operation, or nullptr when it is
  /// noiseless. Specific-qubit errors take precedence over all-qubit errors.
  /// Valid while this model (or any copy sharing the channel) lives.
  const KrausChannel* find_error(const Operation& op) const;
  /// Copying variant of find_error (empty optional = noiseless).
  std::optional<KrausChannel> error_for(const Operation& op) const;
  const ReadoutError* readout_error(int qubit) const;
  bool has_noise() const {
    return !all_qubit_.empty() || !per_qubit_.empty() || !readout_.empty();
  }

  /// Sample a readout flip for a measured bit value.
  int apply_readout(int qubit, int value, Rng& rng) const;

 private:
  std::map<OpKind, SharedChannel> all_qubit_;
  std::map<std::pair<OpKind, std::vector<int>>, SharedChannel> per_qubit_;
  std::map<int, ReadoutError> readout_;
};

/// Build a noise model from backend calibration data:
///   * 1q gates (U, U2, P, H, X, T, S, RZ, RX, RY, SX, SXdg) on qubit q:
///     depolarizing(single_qubit_error[q]) composed with thermal relaxation
///     (t1_us[q], t2_us[q]) over gate_time_1q_us — one channel per qubit,
///     shared by all twelve kinds;
///   * CX and ECR on every coupling-map edge, in both operand orders:
///     depolarizing2(cx_error[e]) composed with both operands relaxing over
///     the edge's duration (cx_duration_us[e], else gate_time_cx_us) — one
///     channel per orientation, shared by both kinds;
///   * symmetric readout error readout_error[q] on every qubit.
/// The last model built is memoized (one entry; a miss replaces it), keyed
/// on the qubit count, the edge list and the full calibration, compared
/// exactly on lookup. A hit returns a copy that shares the cached model's
/// immutable channels. Thread-safe. Mutating the returned copy never
/// affects later results.
NoiseModel from_backend(const arch::Backend& backend);

/// Uniform test model: depolarizing p1 on all 1q gates, p2 on CX, readout r.
NoiseModel uniform_depolarizing(double p1, double p2, double readout = 0.0);

}  // namespace qtc::noise
