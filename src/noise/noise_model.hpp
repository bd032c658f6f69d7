#pragma once
// Noise models: which channel fires after which gate, plus classical
// readout errors — the Terra "infrastructure for specifying and modeling
// physical noise processes" of the paper's Sec. III.

#include <map>
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

class NoiseModel {
 public:
  /// Attach a channel to every occurrence of the given gate kind,
  /// independent of which qubits it acts on. Channel arity must match the
  /// gate arity (1q channel on 1q gates, 2q channel on 2q gates).
  void add_all_qubit_error(const KrausChannel& channel, OpKind kind);
  /// Attach a channel to a gate kind on one specific qubit tuple.
  void add_qubit_error(const KrausChannel& channel, OpKind kind,
                       const std::vector<int>& qubits);
  /// Classical readout error on one qubit.
  void set_readout_error(int qubit, ReadoutError error);

  /// Channel that fires after this operation, or nullptr when it is
  /// noiseless. Specific-qubit errors take precedence over all-qubit errors.
  /// Points into the model: valid until the model changes or dies.
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
  std::map<OpKind, KrausChannel> all_qubit_;
  std::map<std::pair<OpKind, std::vector<int>>, KrausChannel> per_qubit_;
  std::map<int, ReadoutError> readout_;
};

/// Build a noise model from backend calibration data: depolarizing error on
/// 1q gates and CX (per-edge strength), symmetric readout errors.
NoiseModel from_backend(const arch::Backend& backend);

/// Uniform test model: depolarizing p1 on all 1q gates, p2 on CX, readout r.
NoiseModel uniform_depolarizing(double p1, double p2, double readout = 0.0);

}  // namespace qtc::noise
