#include "arch/coupling_map.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace qtc::arch {

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edges,
                         std::string name)
    : n_(num_qubits), name_(std::move(name)), edges_(std::move(edges)) {
  if (n_ <= 0) throw std::invalid_argument("coupling map: no qubits");
  for (auto [a, b] : edges_) {
    if (a < 0 || a >= n_ || b < 0 || b >= n_)
      throw std::out_of_range("coupling map: edge endpoint out of range");
    if (a == b) throw std::invalid_argument("coupling map: self loop");
  }
  build_tables();
}

void CouplingMap::build_tables() {
  directed_.assign(n_, std::vector<bool>(n_, false));
  neighbors_.assign(n_, {});
  // Direction-exact pair -> edge-list index. Calibration vectors are indexed
  // by edges(), and on a directed map the two orientations carry distinct
  // calibration, so the table must not conflate (a, b) with (b, a). Duplicate
  // directed edges keep the first index (matching the old linear scan).
  edge_index_.assign(n_, std::vector<int>(n_, -1));
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    auto [a, b] = edges_[i];
    directed_[a][b] = true;
    if (edge_index_[a][b] < 0) edge_index_[a][b] = static_cast<int>(i);
  }
  for (int a = 0; a < n_; ++a)
    for (int b = 0; b < n_; ++b)
      if (a != b && (directed_[a][b] || directed_[b][a])) {
        if (std::find(neighbors_[a].begin(), neighbors_[a].end(), b) ==
            neighbors_[a].end())
          neighbors_[a].push_back(b);
      }
  // All-pairs undirected shortest paths via BFS from every node.
  dist_.assign(static_cast<std::size_t>(n_) * n_, n_);
  for (int s = 0; s < n_; ++s) {
    int* row = dist_.data() + static_cast<std::size_t>(s) * n_;
    row[s] = 0;
    std::queue<int> q;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : neighbors_[u])
        if (row[v] > row[u] + 1) {
          row[v] = row[u] + 1;
          q.push(v);
        }
    }
  }
}

bool CouplingMap::has_edge(int a, int b) const {
  return a >= 0 && a < n_ && b >= 0 && b < n_ && directed_[a][b];
}

bool CouplingMap::connected(int a, int b) const {
  return has_edge(a, b) || has_edge(b, a);
}

int CouplingMap::edge_index(int a, int b) const {
  if (a < 0 || a >= n_ || b < 0 || b >= n_)
    throw std::out_of_range("coupling map: qubit out of range");
  return edge_index_[a][b];
}

void CouplingMap::throw_out_of_range() {
  throw std::out_of_range("coupling map: qubit out of range");
}

std::vector<int> CouplingMap::shortest_path(int a, int b) const {
  if (distance(a, b) >= n_ && a != b) return {};
  std::vector<int> parent(n_, -1);
  std::queue<int> q;
  std::vector<bool> seen(n_, false);
  q.push(a);
  seen[a] = true;
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    if (u == b) break;
    for (int v : neighbors_[u])
      if (!seen[v]) {
        seen[v] = true;
        parent[v] = u;
        q.push(v);
      }
  }
  std::vector<int> path;
  for (int v = b; v != -1; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  if (path.front() != a) return {};
  return path;
}

bool CouplingMap::is_connected() const {
  // Undirected: connected iff qubit 0 reaches every other qubit.
  for (int j = 1; j < n_; ++j)
    if (dist_[j] >= n_) return false;
  return true;
}

std::string CouplingMap::to_string() const {
  std::ostringstream os;
  os << name_ << " (" << n_ << " qubits): ";
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (i) os << ", ";
    os << "Q" << edges_[i].first << "->Q" << edges_[i].second;
  }
  return os.str();
}

CouplingMap ibm_qx2() {
  return CouplingMap(
      5, {{0, 1}, {0, 2}, {1, 2}, {3, 2}, {3, 4}, {4, 2}}, "ibmqx2");
}

CouplingMap ibm_qx4() {
  // Fig. 2 of the paper: arrows point from control to target.
  return CouplingMap(
      5, {{1, 0}, {2, 0}, {2, 1}, {3, 2}, {3, 4}, {2, 4}}, "ibmqx4");
}

CouplingMap ibm_qx3() {
  return CouplingMap(16,
                     {{0, 1},
                      {1, 2},
                      {2, 3},
                      {3, 14},
                      {4, 3},
                      {4, 5},
                      {6, 7},
                      {6, 11},
                      {7, 10},
                      {8, 7},
                      {9, 8},
                      {9, 10},
                      {11, 10},
                      {12, 5},
                      {12, 11},
                      {12, 13},
                      {13, 4},
                      {13, 14},
                      {15, 0},
                      {15, 2},
                      {15, 14}},
                     "ibmqx3");
}

CouplingMap ibm_qx5() {
  return CouplingMap(16,
                     {{1, 0},
                      {1, 2},
                      {2, 3},
                      {3, 4},
                      {3, 14},
                      {5, 4},
                      {6, 5},
                      {6, 7},
                      {6, 11},
                      {7, 10},
                      {8, 7},
                      {9, 8},
                      {9, 10},
                      {11, 10},
                      {12, 5},
                      {12, 11},
                      {12, 13},
                      {13, 4},
                      {13, 14},
                      {15, 0},
                      {15, 2},
                      {15, 14}},
                     "ibmqx5");
}

CouplingMap linear(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return CouplingMap(n, std::move(edges), "linear" + std::to_string(n));
}

CouplingMap ring(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return CouplingMap(n, std::move(edges), "ring" + std::to_string(n));
}

CouplingMap grid(int rows, int cols) {
  std::vector<std::pair<int, int>> edges;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  return CouplingMap(rows * cols, std::move(edges),
                     "grid" + std::to_string(rows) + "x" + std::to_string(cols));
}

CouplingMap heavy_hex(int distance) {
  // Heavy-hex lattice for code distance d (odd, >= 3). Geometry: d long rows
  // of qubits, w = 2d + 1 columns wide, with single "connector" qubits
  // bridging vertically adjacent rows. Each bridge carries nc = (d + 1) / 2
  // connectors; consecutive bridges alternate between even column classes
  // {0, 4, 8, ...} and {2, 6, 10, ...}, which is what caps the row-qubit
  // degree at 3 (in-row left + right + at most one connector, since the
  // bridge above and the bridge below use disjoint column sets). The first
  // row drops its last column and the last row its first, yielding the
  // published qubit counts n(d) = (5 d^2 + 2 d - 5) / 2: 23 / 65 / 127 /
  // 433 / 1121 for d = 3 / 5 / 7 / 13 / 21.
  if (distance < 3 || distance % 2 == 0)
    throw std::invalid_argument("heavy_hex: distance must be odd and >= 3");
  const int d = distance;
  const int w = 2 * d + 1;      // columns per full row
  const int nc = (d + 1) / 2;   // connectors per bridge
  auto col_begin = [&](int r) { return r == d - 1 ? 1 : 0; };
  auto col_end = [&](int r) { return r == 0 ? w - 1 : w; };  // exclusive
  auto bridge_col = [&](int r, int j) { return (r % 2 == 0 ? 0 : 2) + 4 * j; };

  // Number qubits the way IBM does: row 0, bridge 0, row 1, bridge 1, ...
  std::vector<std::vector<int>> row(d, std::vector<int>(w, -1));
  std::vector<std::vector<int>> conn(d - 1, std::vector<int>(nc, -1));
  int next = 0;
  for (int r = 0; r < d; ++r) {
    for (int c = col_begin(r); c < col_end(r); ++c) row[r][c] = next++;
    if (r + 1 < d)
      for (int j = 0; j < nc; ++j) conn[r][j] = next++;
  }

  std::vector<std::pair<int, int>> edges;
  for (int r = 0; r < d; ++r) {
    // In-row edges; the calibrated direction alternates with (r + c) parity
    // so directed lookups are exercised in both orientations.
    for (int c = col_begin(r); c + 1 < col_end(r); ++c) {
      const int a = row[r][c], b = row[r][c + 1];
      if ((r + c) % 2 == 0)
        edges.emplace_back(a, b);
      else
        edges.emplace_back(b, a);
    }
    // Bridge below row r: row qubit -- connector -- row qubit. Even bridges
    // point downward, odd bridges upward.
    if (r + 1 < d)
      for (int j = 0; j < nc; ++j) {
        const int c = bridge_col(r, j);
        const int top = row[r][c], mid = conn[r][j], bot = row[r + 1][c];
        if (r % 2 == 0) {
          edges.emplace_back(top, mid);
          edges.emplace_back(mid, bot);
        } else {
          edges.emplace_back(bot, mid);
          edges.emplace_back(mid, top);
        }
      }
  }
  return CouplingMap(next, std::move(edges),
                     "heavyhex" + std::to_string(d));
}

CouplingMap fully_connected(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) edges.emplace_back(i, j);
  return CouplingMap(n, std::move(edges), "full" + std::to_string(n));
}

}  // namespace qtc::arch
