#pragma once
// Test-only oracle for map::SabreMapper: the routing pass and trial driver
// as they were before route_pass kept its front-layer state across SWAPs.
// Every stall step rebuilds the gate records, re-runs the lookahead-window
// BFS, rescans the whole front and sorts the candidate swaps, so it is slow
// but easy to check by eye. The library must return the same MappingResult
// (events, layouts, source_index) for every circuit, fidelity on and off.
// Trials run serially here; the library fans them out on the pool.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "core/gates.hpp"
#include "core/rng.hpp"
#include "map/mapping.hpp"
#include "map/noise_aware.hpp"
#include "map/router_detail.hpp"

namespace qtc::testing {

namespace sabre_oracle {

using map::FidelityModel;
using map::Layout;
using map::MappingResult;
using map::noise_aware_layout;
using map::shared_fidelity_model;
namespace detail = map::detail;

/// Dependency DAG over operations: op B depends on A when they share a
/// qubit or clbit and A precedes B.
struct OpDag {
  std::vector<std::vector<int>> successors;
  std::vector<int> indegree;

  OpDag(const std::vector<Operation>& ops, int num_qubits, int num_clbits) {
    successors.resize(ops.size());
    indegree.assign(ops.size(), 0);
    std::vector<int> last_q(num_qubits, -1);
    std::vector<int> last_c(num_clbits, -1);
    std::vector<int> preds;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      preds.clear();
      for (Qubit q : ops[i].qubits) {
        if (last_q[q] >= 0) preds.push_back(last_q[q]);
        last_q[q] = static_cast<int>(i);
      }
      for (Clbit c : ops[i].clbits) {
        if (last_c[c] >= 0) preds.push_back(last_c[c]);
        last_c[c] = static_cast<int>(i);
      }
      if (ops[i].conditioned())
        for (int c = 0; c < num_clbits; ++c)
          if (last_c[c] >= 0 && last_c[c] != static_cast<int>(i))
            preds.push_back(last_c[c]);
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      for (int p : preds) {
        successors[p].push_back(static_cast<int>(i));
        ++indegree[i];
      }
    }
  }
};

/// One routing decision: a SWAP on physical pair (a, b), or — when b < 0 —
/// the retirement of op index a. Replaying the event list through a
/// RoutingContext reconstructs the routed circuit.
struct Event {
  int a;
  int b;
};

struct RouteResult {
  std::vector<Event> events;
  Layout layout;  // final layout after routing
  int swaps = 0;
};

/// One SABRE routing pass over `ops` starting from `layout`. Pure function
/// of its arguments (no RNG): used forward to route and backward (on the
/// reversed op list) to refine the initial layout.
///
/// With `fid` null the scoring distances are the coupling map's integer hop
/// counts carried in doubles — every sum/delta below is integral and exact,
/// so the swap decisions are bitwise those of the historical integer
/// implementation. With `fid` set, distances come from the calibration-
/// weighted model and each candidate swap additionally pays its own edge's
/// execution cost (a SWAP is three native 2q gates on that coupler).
inline RouteResult route_pass(const std::vector<Operation>& ops,
                              const OpDag& dag,
                              const arch::CouplingMap& coupling,
                              Layout layout, int lookahead, double weight,
                              const FidelityModel* fid) {
  const int nphys = coupling.num_qubits();
  RouteResult out;
  std::vector<int> indegree = dag.indegree;
  std::vector<int> front;  // ready ops, kept sorted ascending
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (indegree[i] == 0) front.push_back(static_cast<int>(i));

  std::vector<double> decay(nphys, 1.0);
  int stall = 0;
  const int stall_limit = 4 * nphys * nphys + 16;

  // Scoring distance (weighted when fidelity-aware); executability always
  // uses the integer adjacency test, never the weighted model.
  auto score_dist = [&](int a, int b) {
    return fid ? fid->at(a, b) : static_cast<double>(coupling.distance(a, b));
  };
  auto executable = [&](int i) {
    return !detail::is_two_qubit_gate(ops[i]) ||
           coupling.distance(layout.l2p[ops[i].qubits[0]],
                             layout.l2p[ops[i].qubits[1]]) == 1;
  };
  auto do_swap = [&](int p1, int p2) {
    out.events.push_back({p1, p2});
    layout.swap_physical(p1, p2);
    ++out.swaps;
  };

  // Scratch reused across stall steps (cleared via touch lists, not
  // reallocation).
  std::vector<char> seen(ops.size(), 0);
  std::vector<int> seen_list, frontier, next, window, ready;
  std::vector<std::pair<int, int>> cands;
  // Blocked-front and lookahead-window gates with their current physical
  // endpoints and distance, indexed by the per-endpoint touch lists.
  struct GateRec {
    int pa, pb;
    double d;
    bool in_window;
  };
  std::vector<GateRec> recs;
  std::vector<std::vector<int>> touch(nphys);
  std::vector<int> touched;

  while (!front.empty()) {
    // Retire everything currently executable (in program order).
    ready.clear();
    for (int i : front)
      if (executable(i)) ready.push_back(i);
    if (!ready.empty()) {
      for (int i : ready) {
        front.erase(std::lower_bound(front.begin(), front.end(), i));
        out.events.push_back({i, -1});
        for (int succ : dag.successors[i])
          if (--indegree[succ] == 0)
            front.insert(std::upper_bound(front.begin(), front.end(), succ),
                         succ);
      }
      std::fill(decay.begin(), decay.end(), 1.0);
      stall = 0;
      continue;
    }
    ++stall;
    if (stall > stall_limit) {
      // Safety valve: force-route the oldest blocked gate along a shortest
      // path (the naive step) to guarantee progress.
      const Operation& op = ops[front[0]];
      const auto path = coupling.shortest_path(layout.l2p[op.qubits[0]],
                                               layout.l2p[op.qubits[1]]);
      for (std::size_t i = 0; i + 2 < path.size(); ++i)
        do_swap(path[i], path[i + 1]);
      stall = 0;
      continue;
    }

    // Blocked front gates (nothing was ready, so every front op is a
    // two-qubit gate on uncoupled endpoints) and the candidate swaps on
    // edges touching them.
    recs.clear();
    for (int p : touched) touch[p].clear();
    touched.clear();
    cands.clear();
    auto add_rec = [&](int op_idx, bool in_window) {
      const Operation& g = ops[op_idx];
      GateRec r;
      r.pa = layout.l2p[g.qubits[0]];
      r.pb = layout.l2p[g.qubits[1]];
      r.d = score_dist(r.pa, r.pb);
      r.in_window = in_window;
      const int id = static_cast<int>(recs.size());
      recs.push_back(r);
      for (int p : {r.pa, r.pb}) {
        if (touch[p].empty()) touched.push_back(p);
        touch[p].push_back(id);
      }
    };
    int front_gates = 0;
    double front_base = 0;
    for (int i : front) {
      if (!detail::is_two_qubit_gate(ops[i])) continue;
      add_rec(i, false);
      ++front_gates;
      front_base += recs.back().d;
      for (int p : {recs.back().pa, recs.back().pb})
        for (int nb : coupling.neighbors(p))
          cands.emplace_back(std::min(p, nb), std::max(p, nb));
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

    // The lookahead window: the next few two-qubit gates reachable from the
    // front, breadth-first through the DAG, capped at exactly `lookahead`
    // (expansion stops mid-level once the window is full).
    window.clear();
    seen_list.clear();
    frontier = front;
    for (int i : frontier) {
      seen[i] = 1;
      seen_list.push_back(i);
    }
    bool full = static_cast<int>(window.size()) >= lookahead;
    while (!frontier.empty() && !full) {
      next.clear();
      for (int i : frontier) {
        for (int succ : dag.successors[i]) {
          if (seen[succ]) continue;
          seen[succ] = 1;
          seen_list.push_back(succ);
          next.push_back(succ);
          if (detail::is_two_qubit_gate(ops[succ])) {
            window.push_back(succ);
            if (static_cast<int>(window.size()) >= lookahead) {
              full = true;
              break;
            }
          }
        }
        if (full) break;
      }
      frontier.swap(next);
    }
    for (int i : seen_list) seen[i] = 0;
    double ahead_base = 0;
    for (int i : window) {
      add_rec(i, true);
      ahead_base += recs.back().d;
    }

    // Score each candidate by the distance delta of the gates touching its
    // two endpoints (integer-exact vs re-summing front + window).
    double best_score = 0;
    int best = -1;
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const auto [p1, p2] = cands[ci];
      double dfront = 0, dahead = 0;
      auto apply = [&](int id, bool skip_p1_touchers) {
        const GateRec& r = recs[id];
        if (skip_p1_touchers && (r.pa == p1 || r.pb == p1)) return;
        const int na = r.pa == p1 ? p2 : r.pa == p2 ? p1 : r.pa;
        const int nb = r.pb == p1 ? p2 : r.pb == p2 ? p1 : r.pb;
        const double delta = score_dist(na, nb) - r.d;
        if (r.in_window)
          dahead += delta;
        else
          dfront += delta;
      };
      for (int id : touch[p1]) apply(id, false);
      for (int id : touch[p2]) apply(id, true);  // dedup gates touching both
      double score = (front_base + dfront) / std::max(front_gates, 1);
      if (!window.empty())
        score += weight * (ahead_base + dahead) /
                 static_cast<double>(window.size());
      // Fidelity-aware: the swap itself executes three native 2q gates on
      // this coupler — bias toward good edges, scaled to stay commensurate
      // with the per-gate-normalized distance terms above.
      if (fid) score += 0.3 * fid->pair_cost(coupling, p1, p2);
      score *= std::max(decay[p1], decay[p2]);
      if (best < 0 || score < best_score) {
        best_score = score;
        best = static_cast<int>(ci);
      }
    }
    do_swap(cands[best].first, cands[best].second);
    decay[cands[best].first] += 0.01;
    decay[cands[best].second] += 0.01;
  }
  out.layout = std::move(layout);
  return out;
}

/// Random initial placement for trial t > 0: a Fisher-Yates permutation of
/// the physical qubits drawn from the trial's derived RNG stream.
inline Layout random_layout(int num_logical, int num_physical, Rng& rng) {
  std::vector<int> perm(num_physical);
  for (int i = 0; i < num_physical; ++i) perm[i] = i;
  for (int i = num_physical - 1; i > 0; --i)
    std::swap(perm[i], perm[static_cast<int>(rng.index(i + 1))]);
  Layout layout;
  layout.l2p.assign(num_logical, -1);
  layout.p2l.assign(num_physical, -1);
  for (int l = 0; l < num_logical; ++l) {
    layout.l2p[l] = perm[l];
    layout.p2l[perm[l]] = l;
  }
  return layout;
}

inline MappingResult run(const QuantumCircuit& circuit,
                         const arch::CouplingMap& coupling, int lookahead_,
                         double lookahead_weight_, int trials_,
                         std::uint64_t seed_, const arch::Backend* backend_,
                         bool fidelity_) {
  detail::validate(circuit, coupling);
  const int trials = trials_;
  const std::uint64_t seed = seed_;

  // Fidelity-aware mode: the device's weighted cost model, built once per
  // device and shared read-only by every trial and every run.
  const bool fid_on = fidelity_ && backend_ != nullptr;
  std::shared_ptr<const FidelityModel> model;
  if (fid_on) model = shared_fidelity_model(*backend_);
  const FidelityModel* fid = model.get();

  const auto& ops = circuit.ops();
  const OpDag dag(ops, circuit.num_qubits(), circuit.num_clbits());
  const std::vector<Operation> rev_ops(ops.rbegin(), ops.rend());
  const OpDag rev_dag(rev_ops, circuit.num_qubits(), circuit.num_clbits());

  // Estimated log-success of a routed circuit: sum of log(1 - err) over its
  // 2q gates, a SWAP costing three native gates on its coupler. Higher is
  // better; exact doubles, so the winner scan is deterministic.
  auto log_success = [&](const MappingResult& r) {
    double s = 0;
    for (const auto& op : r.circuit.ops()) {
      if (!op_is_unitary(op.kind) || op.qubits.size() != 2) continue;
      const double err = std::min(
          backend_->cx_error(op.qubits[0], op.qubits[1]), 0.999);
      s += (op.kind == OpKind::SWAP ? 3.0 : 1.0) * std::log1p(-err);
    }
    return s;
  };

  struct Trial {
    MappingResult result;
    int depth = 0;
    double score = 0;  // log-success, fidelity mode only
  };
  std::vector<Trial> outcomes(trials);
  auto run_trial = [&](int t) {
    Layout l0 = Layout::trivial(circuit.num_qubits(), coupling.num_qubits());
    if (t > 0) {
      if (fid_on && t == 1) {
        // Noise-adaptive placement competes with the random seeds.
        l0 = noise_aware_layout(circuit, *backend_);
      } else {
        Rng rng(derive_stream_seed(seed, static_cast<std::uint64_t>(t)));
        l0 = random_layout(circuit.num_qubits(), coupling.num_qubits(), rng);
      }
    }
    // Bidirectional refinement: the forward pass's final layout seeds a
    // backward pass over the reversed circuit, whose final layout is the
    // refined initial placement for the emitting forward pass.
    RouteResult fwd = route_pass(ops, dag, coupling, std::move(l0),
                                 lookahead_, lookahead_weight_, fid);
    RouteResult bwd = route_pass(rev_ops, rev_dag, coupling,
                                 std::move(fwd.layout), lookahead_,
                                 lookahead_weight_, fid);
    const Layout initial = bwd.layout;
    RouteResult final_pass = route_pass(ops, dag, coupling,
                                        std::move(bwd.layout), lookahead_,
                                        lookahead_weight_, fid);
    detail::RoutingContext ctx(circuit, coupling, initial);
    for (const Event& e : final_pass.events) {
      if (e.b < 0)
        ctx.emit_remapped(ops[e.a], e.a);
      else
        ctx.emit_swap(e.a, e.b);
    }
    Trial trial;
    trial.result = std::move(ctx).finish(initial);
    trial.depth = trial.result.circuit.depth();
    if (fid_on) trial.score = log_success(trial.result);
    return trial;
  };

  // Serial: each trial is a pure function of (circuit, coupling, seed, t),
  // so the library's parallel fan-out cannot change any result.
  for (int t = 0; t < trials; ++t) outcomes[t] = run_trial(t);

  // Winner scan in index order so it is independent of execution order.
  // Legacy: best by (swap count, depth, trial index). Fidelity mode: best
  // estimated log-success (strict >, so ties keep the earlier trial).
  int best = 0;
  for (int t = 1; t < trials; ++t) {
    const Trial& cand = outcomes[t];
    const Trial& cur = outcomes[best];
    if (fid_on) {
      if (cand.score > cur.score) best = t;
    } else if (cand.result.swaps_inserted < cur.result.swaps_inserted ||
               (cand.result.swaps_inserted == cur.result.swaps_inserted &&
                cand.depth < cur.depth)) {
      best = t;
    }
  }
  MappingResult result = std::move(outcomes[best].result);
  result.trials_run = trials;
  result.best_trial = best;
  return result;
}

}  // namespace sabre_oracle

/// SabreMapper(lookahead, lookahead_weight, trials, seed)
///     .with_fidelity(backend, fidelity).run(circuit, coupling)
/// with the trial count and seed given explicitly (no environment lookup).
inline map::MappingResult reference_sabre_run(
    const QuantumCircuit& circuit, const arch::CouplingMap& coupling,
    int lookahead, double lookahead_weight, int trials, std::uint64_t seed,
    const arch::Backend* backend = nullptr, bool fidelity = false) {
  return sabre_oracle::run(circuit, coupling, lookahead, lookahead_weight,
                           trials, seed, backend, fidelity);
}

}  // namespace qtc::testing
