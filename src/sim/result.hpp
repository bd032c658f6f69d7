#pragma once
// Execution results: measurement counts keyed by classical bitstrings, the
// C++ analogue of job.result().get_counts() in the paper's Sec. IV, and the
// two samplers every engine fills them through: the seeded per-shot loop,
// and final-layer sampling, which draws every shot from one final state.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"

namespace qtc::sim {

/// Histogram of classical register readouts over many shots. Keys are
/// bitstrings with the highest clbit leftmost (Qiskit convention).
struct Counts {
  std::map<std::string, int> histogram;
  int shots = 0;

  void record(const std::string& bits) {
    ++histogram[bits];
    ++shots;
  }
  /// Empirical probability of a bitstring (0 if never seen).
  double probability(const std::string& bits) const {
    auto it = histogram.find(bits);
    return it == histogram.end() || shots == 0
               ? 0.0
               : static_cast<double>(it->second) / shots;
  }
  int count(const std::string& bits) const {
    auto it = histogram.find(bits);
    return it == histogram.end() ? 0 : it->second;
  }
  /// Most frequent outcome ("" when empty).
  std::string most_frequent() const {
    std::string best;
    int best_count = -1;
    for (const auto& [bits, c] : histogram)
      if (c > best_count) {
        best = bits;
        best_count = c;
      }
    return best;
  }
  /// Render as an ASCII histogram (plot_histogram stand-in).
  std::string to_string(int bar_width = 40) const;
};

/// Counts key of a clbit array (highest clbit leftmost). Built character by
/// character, so registers wider than 64 clbits never alias through an
/// integer intermediate.
std::string bits_key(const std::vector<int>& clbits);

/// The seeded per-shot loop: shot s draws from its own RNG stream, seeded
/// from (seed, s) alone (core/rng.hpp), shots run in chunks on the
/// core/parallel.hpp pool, and outcomes are recorded in shot order, so
/// counts are the same at any thread count, on a repeated call, and shot by
/// shot whatever the total. `make_shot()` runs once per chunk and returns
/// the chunk's `shot(s, rng) -> key`, which owns the chunk's scratch.
template <typename MakeShot>
Counts sample_shots(std::uint64_t seed, int shots, const MakeShot& make_shot) {
  std::vector<std::string> outcomes(static_cast<std::size_t>(shots));
  parallel::parallel_for(
      0, static_cast<std::uint64_t>(shots),
      [&](std::uint64_t s0, std::uint64_t s1) {
        auto shot = make_shot();
        for (std::uint64_t s = s0; s < s1; ++s) {
          Rng rng(derive_stream_seed(seed, s));
          outcomes[s] = shot(s, rng);
        }
      },
      /*serial_cutoff=*/2);
  Counts counts;
  for (const std::string& o : outcomes) counts.record(o);
  return counts;
}

/// The measure-last rule, one wire at a time: once a wire is measured, no
/// gate, reset or second measurement acts on it (barriers act on no wire).
/// profile_circuit and final_layer both apply it.
class MeasureLast {
 public:
  explicit MeasureLast(int num_qubits)
      : measured_(static_cast<std::size_t>(num_qubits), 0) {}
  /// The wire `op` acts on after that wire was measured, or -1.
  int visit(const Operation& op) {
    if (op.kind == OpKind::Barrier) return -1;
    for (Qubit q : op.qubits)
      if (measured_[static_cast<std::size_t>(q)]) return q;
    if (op.kind == OpKind::Measure)
      measured_[static_cast<std::size_t>(op.qubits[0])] = 1;
    return -1;
  }

 private:
  std::vector<char> measured_;
};

/// A circuit has a final measurement layer when every wire keeps the
/// measure-last rule and no op is a reset or classically conditioned: its
/// measurements then commute to the end, so every shot can be drawn from
/// the one state its gates prepare.
struct FinalLayer {
  std::string violation;  // why there is no final layer; empty: there is
  /// The qubit whose measurement writes clbit c last; -1: none (reads 0).
  std::vector<int> clbit_qubit;

  bool ok() const { return violation.empty(); }
  /// Throw std::invalid_argument, prefixed with `api`, unless ok().
  void require(const char* api) const;
};

FinalLayer final_layer(const QuantumCircuit& circuit);

/// Ideal readout: the recorded bit is the sampled one.
struct IdealReadout {
  int operator()(int /*qubit*/, int bit, Rng&) const { return bit; }
};

/// Final-layer sampling: the shots of one call draw, in shot order, from one
/// Rng(seed) local to the call, so a repeated call repeats at any thread
/// count. `draw(rng)` samples a basis state of the final state and
/// `read(q, bit, rng)` returns the bit recorded for qubit q. A layer that
/// writes no clbit yields empty counts of `shots` shots.
template <typename Draw, typename Read = IdealReadout>
Counts sample_final_layer(const FinalLayer& layer, std::uint64_t seed,
                          int shots, const Draw& draw, const Read& read = {}) {
  Counts counts;
  const std::vector<int>& qubits = layer.clbit_qubit;
  if (std::all_of(qubits.begin(), qubits.end(), [](int q) { return q < 0; })) {
    counts.shots = shots;
    return counts;
  }
  const int ncl = static_cast<int>(qubits.size());
  std::string key(qubits.size(), '0');
  Rng rng(seed);
  for (int s = 0; s < shots; ++s) {
    const std::uint64_t basis = draw(rng);
    for (int c = 0; c < ncl; ++c) {
      const int q = qubits[c];
      const bool one =
          q >= 0 && read(q, static_cast<int>((basis >> q) & 1), rng);
      key[ncl - 1 - c] = one ? '1' : '0';
    }
    counts.record(key);
  }
  return counts;
}

}  // namespace qtc::sim
