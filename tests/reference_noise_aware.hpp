#pragma once
// Test-only oracle for map::noise_aware_layout: the placement as it was
// before the hill climb scored candidates by their delta. Every candidate
// swap re-sums the whole O(nl^2) objective over a dense weight matrix, so a
// round costs O(np^2 nl^2) but is easy to check by eye. The library must
// return the same layout, l2p and p2l entry for entry.

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "core/gates.hpp"
#include "map/mapping.hpp"

namespace qtc::testing {

inline map::Layout reference_noise_aware_layout(const QuantumCircuit& circuit,
                                                const arch::Backend& backend) {
  using map::Layout;
  const int nl = circuit.num_qubits();
  const int np = backend.num_qubits();
  if (nl > np)
    throw std::invalid_argument("noise_aware_layout: circuit too large");
  const auto& coupling = backend.coupling_map();
  const auto& cal = backend.calibration();

  // Logical interaction weights.
  std::vector<std::vector<double>> weight(nl, std::vector<double>(nl, 0));
  std::vector<double> total(nl, 0);
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind)) continue;
    if (op.qubits.size() != 2) continue;
    const int a = op.qubits[0], b = op.qubits[1];
    weight[a][b] += 1;
    weight[b][a] += 1;
    total[a] += 1;
    total[b] += 1;
  }

  std::vector<int> order(nl);
  for (int l = 0; l < nl; ++l) order[l] = l;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return total[a] > total[b]; });

  Layout layout;
  layout.l2p.assign(nl, -1);
  layout.p2l.assign(np, -1);

  auto edge_quality = [&](int p, int q) {
    if (!coupling.connected(p, q)) return 0.0;
    return 1.0 - backend.cx_error(p, q);
  };
  auto site_quality = [&](int p) {
    double best = 0;
    for (int nb : coupling.neighbors(p))
      best = std::max(best, edge_quality(p, nb));
    return best + (1.0 - cal.readout_error[p]) * 0.01;
  };

  auto objective = [&](const Layout& candidate) {
    double score = 0;
    for (int l = 0; l < nl; ++l) {
      for (int m = l + 1; m < nl; ++m) {
        if (weight[l][m] == 0) continue;
        const int pl = candidate.l2p[l], pm = candidate.l2p[m];
        if (coupling.connected(pl, pm))
          score += weight[l][m] * edge_quality(pl, pm);
        else
          score -= 0.3 * weight[l][m] * (coupling.distance(pl, pm) - 1);
      }
      score += 0.01 * (1.0 - cal.readout_error[candidate.l2p[l]]);
    }
    return score;
  };
  auto hill_climb = [&](Layout candidate) {
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 50) {
      improved = false;
      double current = objective(candidate);
      for (int p1 = 0; p1 < np; ++p1) {
        for (int p2 = p1 + 1; p2 < np; ++p2) {
          if (candidate.p2l[p1] == -1 && candidate.p2l[p2] == -1) continue;
          candidate.swap_physical(p1, p2);
          const double trial = objective(candidate);
          if (trial > current + 1e-12) {
            current = trial;
            improved = true;
          } else {
            candidate.swap_physical(p1, p2);  // undo
          }
        }
      }
    }
    return candidate;
  };

  for (int l : order) {
    int best_p = -1;
    double best_score = -1e18;
    for (int p = 0; p < np; ++p) {
      if (layout.p2l[p] != -1) continue;
      double score = 0;
      bool has_placed_neighbor = false;
      for (int m = 0; m < nl; ++m) {
        if (weight[l][m] == 0 || layout.l2p[m] == -1) continue;
        has_placed_neighbor = true;
        const int pm = layout.l2p[m];
        score += weight[l][m] * edge_quality(p, pm);
        score -= 0.05 * weight[l][m] * coupling.distance(p, pm);
      }
      if (!has_placed_neighbor) score = site_quality(p);
      if (score > best_score) {
        best_score = score;
        best_p = p;
      }
    }
    layout.l2p[l] = best_p;
    layout.p2l[best_p] = l;
  }

  const Layout greedy = hill_climb(layout);
  const Layout trivial = hill_climb(Layout::trivial(nl, np));
  return objective(greedy) >= objective(trivial) ? greedy : trivial;
}

}  // namespace qtc::testing
