#pragma once
// Execution results: measurement counts keyed by classical bitstrings, the
// C++ analogue of job.result().get_counts() in the paper's Sec. IV.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

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

/// Counts key of a sampled basis state read out through (qubit, clbit)
/// measurement pairs; a clbit reads 1 if any qubit measured into it does.
std::string measured_key(
    std::uint64_t basis,
    const std::vector<std::pair<int, int>>& qubit_to_clbit, int num_clbits);

}  // namespace qtc::sim
