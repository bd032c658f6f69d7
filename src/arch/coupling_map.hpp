#pragma once
// Hardware coupling constraints (the paper's Fig. 2): which directed
// physical-qubit pairs admit a CNOT, plus all-pairs distances used by the
// routing heuristics.

#include <string>
#include <vector>

#include "core/types.hpp"

namespace qtc::arch {

/// A directed coupling graph over physical qubits 0..n-1. An edge (a, b)
/// means "CNOT with control a and target b is directly executable"
/// (the paper's CNOT-constraints).
class CouplingMap {
 public:
  CouplingMap() = default;
  CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
              std::string name = "custom");

  int num_qubits() const { return n_; }
  const std::string& name() const { return name_; }
  const std::vector<std::pair<int, int>>& edges() const { return edges_; }

  /// Directed edge test: CNOT control a -> target b natively allowed.
  bool has_edge(int a, int b) const;
  /// Undirected adjacency: a CNOT between a and b is possible in at least one
  /// direction (possibly needing H-conjugation to flip it).
  bool connected(int a, int b) const;
  /// Index into edges() of the directed edge a -> b, or -1 if that exact
  /// orientation is absent. O(1): backed by a dense table built once at
  /// construction, so per-edge calibration lookups never scan the edge list.
  int edge_index(int a, int b) const;

  /// Undirected shortest-path distance (SWAP count between a and b is
  /// distance(a, b) - 1). Unreachable pairs report num_qubits(). Inline:
  /// the router calls it in its innermost scoring loop.
  int distance(int a, int b) const {
    if (a < 0 || a >= n_ || b < 0 || b >= n_) throw_out_of_range();
    return dist_[static_cast<std::size_t>(a) * n_ + b];
  }
  /// Neighbors in the undirected sense.
  const std::vector<int>& neighbors(int q) const {
    if (q < 0 || q >= n_) throw_out_of_range();
    return neighbors_[q];
  }
  /// One undirected shortest path from a to b (inclusive of endpoints).
  std::vector<int> shortest_path(int a, int b) const;
  /// True if the undirected graph is connected.
  bool is_connected() const;

  std::string to_string() const;

 private:
  void build_tables();
  [[noreturn]] static void throw_out_of_range();

  int n_ = 0;
  std::string name_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::vector<bool>> directed_;
  std::vector<int> dist_;  // n*n row-major undirected hop counts
  std::vector<std::vector<int>> neighbors_;
  std::vector<std::vector<int>> edge_index_;  // [a][b] -> edges() index or -1
};

// --- IBM QX devices from the paper (Sec. II-B) and common topologies --------

/// IBM QX2: 5 qubits (the 2017 launch device).
CouplingMap ibm_qx2();
/// IBM QX4: 5 qubits, the paper's Fig. 2 layout.
CouplingMap ibm_qx4();
/// IBM QX3: 16 qubits (June 2017).
CouplingMap ibm_qx3();
/// IBM QX5: 16 qubits (revised QX3).
CouplingMap ibm_qx5();
/// Linear chain of n qubits, edges low -> high.
CouplingMap linear(int n);
/// Ring of n qubits.
CouplingMap ring(int n);
/// rows x cols grid.
CouplingMap grid(int rows, int cols);
/// Fully connected, both directions.
CouplingMap fully_connected(int n);

/// IBM heavy-hex lattice for an odd code distance d >= 3 (the topology of
/// the Falcon/Eagle/Osprey/Condor generations): degree-<=3 rows of qubits
/// joined by two-qubit "connector" bridges. Qubit count follows the
/// published closed form n(d) = (5 d^2 + 2 d - 5) / 2:
///   d = 3 -> 23    (heavy-hex unit patch)
///   d = 5 -> 65    (Hummingbird)
///   d = 7 -> 127   (Eagle, e.g. ibm_washington: 144 coupler edges)
///   d = 13 -> 433  (Osprey)
///   d = 21 -> 1121 (Condor)
/// Edges are directed (calibrated orientation alternates deterministically)
/// so per-direction calibration is meaningful at scale.
CouplingMap heavy_hex(int distance);

}  // namespace qtc::arch
