#include "map/noise_aware.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>

#include "arch/device_memo.hpp"

namespace qtc::map {

Layout noise_aware_layout(const QuantumCircuit& circuit,
                          const arch::Backend& backend) {
  const int nl = circuit.num_qubits();
  const int np = backend.num_qubits();
  if (nl > np)
    throw std::invalid_argument("noise_aware_layout: circuit too large");
  const auto& coupling = backend.coupling_map();
  const auto& cal = backend.calibration();

  // Logical interaction weights as per-qubit partner lists. Runs of equal
  // sorted (lo, hi) pairs are appended to both ends in sorted order, so
  // every list is ordered by partner index and a walk over it visits the
  // pairs in the same order as a dense l < m double loop.
  struct Partner {
    int m;
    double w;
  };
  std::vector<std::vector<Partner>> partners(nl);
  std::vector<double> total(nl, 0);
  std::vector<std::pair<int, int>> pairs;
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || !op_is_unitary(op.kind)) continue;
    if (op.qubits.size() != 2) continue;
    const int a = op.qubits[0], b = op.qubits[1];
    total[a] += 1;
    total[b] += 1;
    if (a != b) pairs.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(pairs.begin(), pairs.end());
  double weight_sum = 0;
  int num_pairs = 0;
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j] == pairs[i]) ++j;
    const auto [lo, hi] = pairs[i];
    const double w = static_cast<double>(j - i);
    partners[lo].push_back({hi, w});
    partners[hi].push_back({lo, w});
    weight_sum += w;
    ++num_pairs;
    i = j;
  }

  std::vector<int> order(nl);
  for (int l = 0; l < nl; ++l) order[l] = l;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return total[a] > total[b]; });

  Layout layout;
  layout.l2p.assign(nl, -1);
  layout.p2l.assign(np, -1);

  // 1 - cx_error per directed coupler, laid out like the neighbor lists:
  // quality[first[p] + k] scores (p, neighbors(p)[k]) in that orientation.
  // O(E) per call; coupling is tested by the inline distance(p, q) == 1.
  std::vector<int> first(np + 1, 0);
  for (int p = 0; p < np; ++p)
    first[p + 1] = first[p] + static_cast<int>(coupling.neighbors(p).size());
  std::vector<double> quality(first[np]);
  for (int p = 0; p < np; ++p) {
    const auto& nbrs = coupling.neighbors(p);
    for (std::size_t k = 0; k < nbrs.size(); ++k)
      quality[first[p] + k] = 1.0 - backend.cx_error(p, nbrs[k]);
  }
  // 1 - error of the coupled pair (p, q), in that orientation.
  auto coupled_quality = [&](int p, int q) {
    const auto& nbrs = coupling.neighbors(p);
    return quality[first[p] +
                   (std::find(nbrs.begin(), nbrs.end(), q) - nbrs.begin())];
  };
  // Quality of a physical qubit in isolation: its best incident edges.
  auto site_quality = [&](int p) {
    double best = 0;
    for (int k = first[p]; k < first[p + 1]; ++k)
      best = std::max(best, quality[k]);
    return best + (1.0 - cal.readout_error[p]) * 0.01;
  };

  // Figure of merit for a complete layout: reward coupled low-error pairs,
  // penalize distance for uncoupled partners, mildly reward good readout.
  // A pair term is scored in the orientation (l2p[lo], l2p[hi]) because
  // cx_error can differ by direction.
  auto pair_term = [&](double w, int plo, int phi) {
    const int d = coupling.distance(plo, phi);
    if (d == 1) return w * coupled_quality(plo, phi);
    return -(0.3 * w * (d - 1));
  };
  auto readout_term = [&](int p) {
    return 0.01 * (1.0 - cal.readout_error[p]);
  };
  auto objective = [&](const Layout& candidate) {
    double score = 0;
    for (int l = 0; l < nl; ++l) {
      for (const Partner& pm : partners[l])
        if (pm.m > l)
          score += pair_term(pm.w, candidate.l2p[l], candidate.l2p[pm.m]);
      score += readout_term(candidate.l2p[l]);
    }
    return score;
  };

  // Change in the objective, in exact arithmetic over the same terms, if
  // the occupants of p1 and p2 were exchanged: only the terms that touch a
  // moved logical qubit change.
  auto swap_delta = [&](const Layout& c, int p1, int p2) {
    const int a = c.p2l[p1], b = c.p2l[p2];
    double delta = 0, w_ab = 0;
    auto moved = [&](int l, int from, int to, int other) {
      for (const Partner& pm : partners[l]) {
        if (pm.m == other) {
          w_ab = pm.w;
          continue;
        }
        const int q = c.l2p[pm.m];
        delta += l < pm.m ? pair_term(pm.w, to, q) - pair_term(pm.w, from, q)
                          : pair_term(pm.w, q, to) - pair_term(pm.w, q, from);
      }
      delta += readout_term(to) - readout_term(from);
    };
    if (a >= 0) moved(a, p1, p2, b);
    if (b >= 0) moved(b, p2, p1, a);
    if (w_ab != 0) {
      // The moved pair itself: (p1, p2) becomes (p2, p1) in (a, b) order.
      delta += a < b ? pair_term(w_ab, p2, p1) - pair_term(w_ab, p1, p2)
                     : pair_term(w_ab, p1, p2) - pair_term(w_ab, p2, p1);
    }
    return delta;
  };

  // A candidate whose delta is below -margin cannot pass the full
  // evaluation's `trial > current + 1e-12` test, so it is skipped. The
  // margin bounds the rounding error of the comparison: objective() adds
  // n = #pairs + nl terms, so each of the two full sums is within
  // n*u*S of its exact value (u = eps/2, S = the sum of |term| over one
  // layout); swap_delta rounds each of at most n touched-term differences
  // once and adds them up, within (n + 1)*u*2S. Together (2n + 1)*eps*S,
  // taken four times over. S is bounded per pair by its weight times the
  // largest |1 - cx_error| or 0.3 * np (an unreachable pair reports
  // distance np), and per qubit by 0.01 * max|1 - readout_error|.
  double quality_mag = 0, readout_mag = 0;
  for (double e : cal.cx_error)
    quality_mag = std::max(quality_mag, std::abs(1.0 - e));
  for (double r : cal.readout_error)
    readout_mag = std::max(readout_mag, std::abs(1.0 - r));
  const double term_sum_bound =
      weight_sum * std::max(quality_mag, 0.3 * np) + 0.01 * readout_mag * nl;
  const double n_terms = num_pairs + nl;
  const double margin = 4.0 * (2.0 * n_terms + 1.0) *
                        std::numeric_limits<double>::epsilon() *
                        term_sum_bound;

  // Local search: keep swapping physical assignments while it helps. Only
  // candidates the delta cannot rule out pay for a full evaluation, and
  // those are decided exactly as a full rescan would decide them.
  auto hill_climb = [&](Layout candidate) {
    bool improved = true;
    int rounds = 0;
    while (improved && rounds++ < 50) {
      improved = false;
      double current = objective(candidate);
      for (int p1 = 0; p1 < np; ++p1) {
        for (int p2 = p1 + 1; p2 < np; ++p2) {
          if (candidate.p2l[p1] == -1 && candidate.p2l[p2] == -1) continue;
          if (swap_delta(candidate, p1, p2) < -margin) continue;
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

  // Greedy construction by interaction weight.
  for (int l : order) {
    int best_p = -1;
    double best_score = -1e18;
    for (int p = 0; p < np; ++p) {
      if (layout.p2l[p] != -1) continue;
      double score = 0;
      bool has_placed_neighbor = false;
      for (const Partner& pm : partners[l]) {
        if (layout.l2p[pm.m] == -1) continue;
        has_placed_neighbor = true;
        const int q = layout.l2p[pm.m];
        const int d = coupling.distance(p, q);
        score += pm.w * (d == 1 ? coupled_quality(p, q) : 0.0);
        // Mild pull towards partners even when not directly coupled.
        score -= 0.05 * pm.w * d;
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

  // Polish both the greedy and the trivial seed; keep the better.
  const Layout greedy = hill_climb(layout);
  const Layout trivial = hill_climb(Layout::trivial(nl, np));
  return objective(greedy) >= objective(trivial) ? greedy : trivial;
}

QuantumCircuit apply_layout(const QuantumCircuit& circuit,
                            const Layout& layout, int num_physical) {
  return circuit.remapped(layout.l2p, num_physical);
}

double estimated_success(const QuantumCircuit& physical_circuit,
                         const arch::Backend& backend) {
  const auto& cal = backend.calibration();
  const auto& coupling = backend.coupling_map();
  // Pessimistic stand-in for pairs with no calibrated coupler: the device's
  // worst 2q error (computed lazily, once).
  double worst_cx = -1.0;
  auto worst = [&] {
    if (worst_cx < 0) {
      worst_cx = 0.0;
      for (double e : cal.cx_error) worst_cx = std::max(worst_cx, e);
    }
    return worst_cx;
  };
  double success = 1.0;
  for (const auto& op : physical_circuit.ops()) {
    switch (op.kind) {
      case OpKind::Barrier:
      case OpKind::I:
      case OpKind::Reset:
        break;
      case OpKind::Measure:
        success *= 1.0 - cal.readout_error[op.qubits[0]];
        break;
      default:
        if (op.qubits.size() == 1) {
          success *= 1.0 - cal.single_qubit_error[op.qubits[0]];
        } else if (op.qubits.size() == 2) {
          success *= 1.0 - backend.cx_error(op.qubits[0], op.qubits[1]);
        } else {
          // 3+ qubits: score every constituent pair (a Toffoli is at least
          // as error-prone as its pairwise interactions).
          for (std::size_t i = 0; i < op.qubits.size(); ++i)
            for (std::size_t j = i + 1; j < op.qubits.size(); ++j) {
              const int a = op.qubits[i], b = op.qubits[j];
              success *= 1.0 - (coupling.connected(a, b)
                                    ? backend.cx_error(a, b)
                                    : worst());
            }
        }
    }
  }
  return success;
}

FidelityModel make_fidelity_model(const arch::Backend& backend) {
  const auto& coupling = backend.coupling_map();
  const auto& cal = backend.calibration();
  const auto& edges = coupling.edges();
  const int n = coupling.num_qubits();
  if (cal.cx_error.size() < edges.size())
    throw std::invalid_argument(
        "fidelity model: calibration does not cover every edge");

  FidelityModel m;
  m.num_physical = n;

  // Raw per-edge ingredients: log-infidelity and duration.
  std::vector<double> infid(edges.size()), dur(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    infid[e] = -std::log1p(-std::min(cal.cx_error[e], 0.999));
    dur[e] = e < cal.cx_duration_us.size() ? cal.cx_duration_us[e]
                                           : cal.gate_time_cx_us;
  }
  auto median = [](std::vector<double> v) {
    if (v.empty()) return 1.0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return std::max(v[v.size() / 2], 1e-12);
  };
  const double med_infid = median(infid), med_dur = median(dur);
  m.edge_cost.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e)
    m.edge_cost[e] = 0.75 * infid[e] / med_infid + 0.25 * dur[e] / med_dur;

  // All-pairs Dijkstra over the undirected graph, each coupler priced at its
  // cheaper orientation. 1121 qubits: ~n * E log n, well under a second.
  double max_cost = 0;
  for (double c : m.edge_cost) max_cost = std::max(max_cost, c);
  const double unreachable = static_cast<double>(n) * (max_cost + 1.0);
  m.dist.assign(static_cast<std::size_t>(n) * n, unreachable);
  std::vector<double> d(n);
  using Item = std::pair<double, int>;
  for (int s = 0; s < n; ++s) {
    std::fill(d.begin(), d.end(), unreachable);
    d[s] = 0;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.emplace(0.0, s);
    while (!heap.empty()) {
      const auto [du, u] = heap.top();
      heap.pop();
      if (du > d[u]) continue;
      for (int v : coupling.neighbors(u)) {
        const double w = m.pair_cost(coupling, u, v);
        if (du + w < d[v]) {
          d[v] = du + w;
          heap.emplace(d[v], v);
        }
      }
    }
    std::copy(d.begin(), d.end(),
              m.dist.begin() + static_cast<std::size_t>(s) * n);
  }
  return m;
}

std::shared_ptr<const FidelityModel> shared_fidelity_model(
    const arch::Backend& backend) {
  static arch::DeviceMemo<FidelityModel> memo;
  return memo.get(backend, make_fidelity_model);
}

}  // namespace qtc::map
