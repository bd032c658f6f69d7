// Bidirectional multi-seed SABRE (Li/Ding/Xie [18]). Each layout trial
// refines its initial placement with a forward/backward/forward routing
// pass; trials fan out on the fork-join pool and the best result by
// (swap count, depth, trial index) wins, bitwise independent of the thread
// count because every trial is a pure function of (circuit, coupling,
// trial seed) and the selection scans trial slots in index order.
//
// The routing pass keeps its front-derived state for a whole front epoch:
// the span between two changes of the front layer (a retirement or the
// stall safety valve). At the start of an epoch it builds one record per
// blocked front gate, then one per lookahead-window gate (breadth-first from
// the front, which depends only on the DAG), and a per-physical-qubit touch
// list of record ids. Within the epoch:
//   - the records and window are a fixed set in a fixed order; a SWAP on
//     (p1, p2) recomputes only the records in touch[p1] and touch[p2] from
//     the layout and exchanges those two lists, so every list stays in
//     ascending record order and every delta sum runs in the same order as
//     a rebuild would;
//   - only front gates on p1 or p2 can have become executable, so the ready
//     check tests just those (a retirement still rescans the whole front);
//   - the front and window distance sums are re-summed in record order at
//     every step rather than kept as running totals, so fidelity-mode
//     doubles round exactly as a rebuild would;
//   - each undirected coupler has one slot (CouplerSlots, built once per
//     run and shared read-only by the trials) holding its candidate's
//     (dfront, dahead) delta sums and the step that computed them. A SWAP
//     on (b1, b2) marks b1, b2 and both endpoints of every record it
//     refreshes dirty; a slot computed this epoch after the last dirty mark
//     on both endpoints is reused, because its sums read only the touch
//     lists and records of those two qubits, which have not changed, and
//     would be re-added in the same order to the same double.
// Each candidate SWAP (an edge touching a front endpoint, enumerated once
// via endpoint marks) is scored by the distance delta of the gates touching
// its two endpoints, and the minimum by (score, p1, p2) wins: the first
// minimum of a scan over sorted candidates. The score itself (base sums,
// the two divisions, the edge term, the decay) is evaluated for every
// candidate at every step. Routing decisions are therefore bitwise those of
// a rebuild-every-step pass, which tests/reference_sabre.hpp keeps as the
// oracle. In the calibration-blind mode the distances are integral-valued
// doubles, so the incremental score is exactly the re-summed one;
// with_fidelity() swaps in calibration-weighted distances plus a
// per-candidate edge-execution cost, precomputed once per slot.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "map/mapping.hpp"
#include "map/noise_aware.hpp"
#include "map/router_detail.hpp"

namespace qtc::map {

namespace {

/// Dependency DAG over operations: op B depends on A when they share a
/// qubit or clbit and A precedes B. `two_qubit[i]` caches
/// detail::is_two_qubit_gate(ops[i]) for the routing loop.
struct OpDag {
  std::vector<std::vector<int>> successors;
  std::vector<int> indegree;
  std::vector<char> two_qubit;

  OpDag(const std::vector<Operation>& ops, int num_qubits, int num_clbits) {
    successors.resize(ops.size());
    indegree.assign(ops.size(), 0);
    two_qubit.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
      two_qubit[i] = detail::is_two_qubit_gate(ops[i]);
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

/// One slot per undirected coupler, reached from either end through the
/// coupling map's neighbor lists: the coupler (p, neighbors(p)[k]) has slot
/// `at(p, k)`. Built once per run and read by every trial's passes.
struct CouplerSlots {
  std::vector<int> first;  // per physical qubit: offset of its neighbor list
  std::vector<int> slot;   // per neighbor-list entry: its coupler's slot
  // Per slot, fidelity mode: the SWAP's own cost 0.3 * pair_cost(lo, hi).
  std::vector<double> edge_term;

  CouplerSlots(const arch::CouplingMap& coupling, const FidelityModel* fid) {
    const int n = coupling.num_qubits();
    first.assign(n + 1, 0);
    for (int p = 0; p < n; ++p)
      first[p + 1] =
          first[p] + static_cast<int>(coupling.neighbors(p).size());
    slot.resize(first[n]);
    // A coupler gets its slot at its lower end; the higher end, visited
    // later, finds it in the lower end's list.
    for (int p = 0; p < n; ++p) {
      const auto& nbrs = coupling.neighbors(p);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const int q = nbrs[k];
        if (q < p) {
          const auto& back = coupling.neighbors(q);
          slot[first[p] + k] = at(
              q, std::find(back.begin(), back.end(), p) - back.begin());
          continue;
        }
        slot[first[p] + k] = static_cast<int>(edge_term.size());
        edge_term.push_back(fid ? 0.3 * fid->pair_cost(coupling, p, q) : 0.0);
      }
    }
  }
  int at(int p, std::size_t k) const {
    return slot[first[p] + static_cast<int>(k)];
  }
};

struct RouteResult {
  std::vector<Event> events;
  Layout layout;  // final layout after routing
  int swaps = 0;
};

/// One SABRE routing pass over `ops` starting from `layout`. Pure function
/// of its arguments (no RNG): used forward to route and backward (on the
/// reversed op list) to refine the initial layout. `slots` is the run's
/// read-only coupler table; the per-slot sums live in the pass.
///
/// With `fid` null the scoring distances are the coupling map's integer hop
/// counts carried in doubles — every sum/delta below is integral and exact,
/// so the swap decisions are bitwise those of the historical integer
/// implementation. With `fid` set, distances come from the calibration-
/// weighted model and each candidate swap additionally pays its own edge's
/// execution cost (a SWAP is three native 2q gates on that coupler).
RouteResult route_pass(const std::vector<Operation>& ops, const OpDag& dag,
                       const arch::CouplingMap& coupling,
                       const CouplerSlots& slots, Layout layout,
                       int lookahead, double weight,
                       const FidelityModel* fid) {
  const int nphys = coupling.num_qubits();
  RouteResult out;
  std::vector<int> indegree = dag.indegree;
  std::vector<int> front;  // ready ops, kept sorted ascending
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (indegree[i] == 0) front.push_back(static_cast<int>(i));

  std::vector<double> decay(nphys, 1.0);
  std::vector<int> bumped;  // qubits whose decay left 1.0 since a retirement
  int stall = 0;
  const int stall_limit = 4 * nphys * nphys + 16;

  // Scoring distance (weighted when fidelity-aware); executability always
  // uses the integer adjacency test, never the weighted model.
  auto score_dist = [&](int a, int b) {
    return fid ? fid->at(a, b) : static_cast<double>(coupling.distance(a, b));
  };
  auto executable = [&](int i) {
    return !dag.two_qubit[i] ||
           coupling.distance(layout.l2p[ops[i].qubits[0]],
                             layout.l2p[ops[i].qubits[1]]) == 1;
  };
  auto do_swap = [&](int p1, int p2) {
    out.events.push_back({p1, p2});
    layout.swap_physical(p1, p2);
    ++out.swaps;
  };

  // Epoch state: blocked-front records [0, front_gates), then the lookahead
  // window's, each with its gate's current physical endpoints and distance,
  // and per-physical-qubit lists of the records touching it (ascending ids).
  struct GateRec {
    int op;
    int pa, pb;
    double d;
  };
  std::vector<GateRec> recs;
  std::vector<std::vector<int>> touch(nphys);
  int front_gates = 0;
  auto refresh = [&](GateRec& r) {
    const Operation& g = ops[r.op];
    r.pa = layout.l2p[g.qubits[0]];
    r.pb = layout.l2p[g.qubits[1]];
    r.d = score_dist(r.pa, r.pb);
  };
  auto add_rec = [&](int op_idx) {
    GateRec r{op_idx, 0, 0, 0};
    refresh(r);
    const int id = static_cast<int>(recs.size());
    recs.push_back(r);
    touch[r.pa].push_back(id);
    touch[r.pb].push_back(id);
  };

  // Per-slot candidate delta sums, valid while the step that computed them
  // is in the current epoch and after the last dirty mark on both endpoints.
  struct SlotSums {
    double dfront, dahead;
    int step;
  };
  std::vector<SlotSums> sums(slots.edge_term.size(), SlotSums{0, 0, -1});
  std::vector<int> dirty(nphys, -1);  // step of the last SWAP that moved p
  int step = 0, epoch_start = 0;

  // Scratch reused across epochs and steps; `seen` is cleared through
  // `seen_list` and `front_end` right after use.
  std::vector<char> seen(ops.size(), 0);
  std::vector<char> front_end(nphys, 0);
  std::vector<int> seen_list, frontier, next, ready;

  // Rebuild the epoch state from the current front and layout. Nothing was
  // ready, so every front op is a two-qubit gate on uncoupled endpoints.
  auto rebuild = [&] {
    for (const GateRec& r : recs) {
      touch[r.pa].clear();
      touch[r.pb].clear();
    }
    recs.clear();
    for (int i : front)
      if (dag.two_qubit[i]) add_rec(i);
    front_gates = static_cast<int>(recs.size());

    // The lookahead window: the next few two-qubit gates reachable from the
    // front, breadth-first through the DAG, capped at exactly `lookahead`
    // (expansion stops mid-level once the window is full).
    seen_list.clear();
    frontier = front;
    for (int i : frontier) {
      seen[i] = 1;
      seen_list.push_back(i);
    }
    int window = 0;
    bool full = window >= lookahead;
    while (!frontier.empty() && !full) {
      next.clear();
      for (int i : frontier) {
        for (int succ : dag.successors[i]) {
          if (seen[succ]) continue;
          seen[succ] = 1;
          seen_list.push_back(succ);
          next.push_back(succ);
          if (dag.two_qubit[succ]) {
            add_rec(succ);
            if (++window >= lookahead) {
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
  };

  bool front_changed = true;
  int last_p1 = -1, last_p2 = -1;  // the previous step's SWAP
  while (!front.empty()) {
    ready.clear();
    if (front_changed) {
      for (int i : front)
        if (executable(i)) ready.push_back(i);
    } else {
      // Only the front gates on the last SWAP's endpoints moved; every
      // other front gate is where it was, so still blocked.
      for (int p : {last_p1, last_p2})
        for (int id : touch[p])
          if (id < front_gates && executable(recs[id].op))
            ready.push_back(recs[id].op);
      std::sort(ready.begin(), ready.end());
    }
    if (!ready.empty()) {
      // Retire everything executable (in program order).
      for (int i : ready) {
        front.erase(std::lower_bound(front.begin(), front.end(), i));
        out.events.push_back({i, -1});
        for (int succ : dag.successors[i])
          if (--indegree[succ] == 0)
            front.insert(std::upper_bound(front.begin(), front.end(), succ),
                         succ);
      }
      for (int p : bumped) decay[p] = 1.0;
      bumped.clear();
      stall = 0;
      front_changed = true;
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
      front_changed = true;
      continue;
    }
    if (front_changed) {
      rebuild();
      front_changed = false;
      epoch_start = step;
    }

    // Re-summed in record order every step (no running totals), so the
    // doubles are those a rebuild would produce.
    double front_base = 0, ahead_base = 0;
    for (int id = 0; id < front_gates; ++id) front_base += recs[id].d;
    const int window = static_cast<int>(recs.size()) - front_gates;
    for (int id = front_gates; id < static_cast<int>(recs.size()); ++id)
      ahead_base += recs[id].d;

    // The distance delta of the gates touching a candidate's two endpoints
    // (integer-exact vs re-summing front + window), kept in its slot.
    auto sum_deltas = [&](int p1, int p2, SlotSums& out_sums) {
      double dfront = 0, dahead = 0;
      auto apply = [&](int id, bool skip_p1_touchers) {
        const GateRec& r = recs[id];
        if (skip_p1_touchers && (r.pa == p1 || r.pb == p1)) return;
        const int na = r.pa == p1 ? p2 : r.pa == p2 ? p1 : r.pa;
        const int nb = r.pb == p1 ? p2 : r.pb == p2 ? p1 : r.pb;
        const double delta = score_dist(na, nb) - r.d;
        if (id >= front_gates)
          dahead += delta;
        else
          dfront += delta;
      };
      for (int id : touch[p1]) apply(id, false);
      for (int id : touch[p2]) apply(id, true);  // dedup gates touching both
      out_sums = {dfront, dahead, step};
    };
    auto score_swap = [&](int p1, int p2, int s) {
      SlotSums& d = sums[s];
      if (d.step < epoch_start || d.step <= dirty[p1] || d.step <= dirty[p2])
        sum_deltas(p1, p2, d);
      double score = (front_base + d.dfront) / std::max(front_gates, 1);
      if (window > 0)
        score += weight * (ahead_base + d.dahead) / static_cast<double>(window);
      // Fidelity-aware: the swap itself executes three native 2q gates on
      // this coupler — bias toward good edges, scaled to stay commensurate
      // with the per-gate-normalized distance terms above.
      if (fid) score += slots.edge_term[s];
      return score * std::max(decay[p1], decay[p2]);
    };

    // Candidates: every edge touching a blocked front gate's endpoint. An
    // edge between two front endpoints is taken from its lower end only.
    for (int id = 0; id < front_gates; ++id)
      front_end[recs[id].pa] = front_end[recs[id].pb] = 1;
    double best_score = 0;
    int best1 = -1, best2 = -1;
    for (int id = 0; id < front_gates; ++id) {
      for (int p : {recs[id].pa, recs[id].pb}) {
        const auto& nbrs = coupling.neighbors(p);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          const int nb = nbrs[k];
          if (nb < p && front_end[nb]) continue;
          const int c1 = std::min(p, nb), c2 = std::max(p, nb);
          const double score = score_swap(c1, c2, slots.at(p, k));
          if (best1 < 0 || score < best_score ||
              (score == best_score &&
               std::make_pair(c1, c2) < std::make_pair(best1, best2))) {
            best_score = score;
            best1 = c1;
            best2 = c2;
          }
        }
      }
    }
    for (int id = 0; id < front_gates; ++id)
      front_end[recs[id].pa] = front_end[recs[id].pb] = 0;

    do_swap(best1, best2);
    for (int p : {best1, best2}) {
      if (decay[p] == 1.0) bumped.push_back(p);
      decay[p] += 0.01;
    }
    // Patch the epoch state: the records on the swapped qubits follow their
    // logical qubits to the other endpoint. A record on both is refreshed
    // twice to the same value. Every qubit whose touch list or records
    // changed is marked dirty, which invalidates the slots on it.
    for (int p : {best1, best2})
      for (int id : touch[p]) {
        GateRec& r = recs[id];
        refresh(r);
        dirty[r.pa] = dirty[r.pb] = step;
      }
    dirty[best1] = dirty[best2] = step;
    touch[best1].swap(touch[best2]);
    last_p1 = best1;
    last_p2 = best2;
    ++step;
  }
  out.layout = std::move(layout);
  return out;
}

/// Random initial placement for trial t > 0: a Fisher-Yates permutation of
/// the physical qubits drawn from the trial's derived RNG stream.
Layout random_layout(int num_logical, int num_physical, Rng& rng) {
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

}  // namespace

MappingResult SabreMapper::run(const QuantumCircuit& circuit,
                               const arch::CouplingMap& coupling) const {
  detail::validate(circuit, coupling);
  detail::note_mapper_run();
  const int trials = trials_ > 0 ? trials_ : default_map_trials();
  const std::uint64_t seed =
      seed_ != kMapSeedFromEnv ? seed_ : default_map_seed();

  // Fidelity-aware mode: the device's weighted cost model, built once per
  // device and shared read-only by every trial and every run.
  const bool fid_on = fidelity_ && backend_ != nullptr;
  std::shared_ptr<const FidelityModel> model;
  if (fid_on) model = shared_fidelity_model(*backend_);
  const FidelityModel* fid = model.get();
  const CouplerSlots slots(coupling, fid);

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
    RouteResult fwd = route_pass(ops, dag, coupling, slots, std::move(l0),
                                 lookahead_, lookahead_weight_, fid);
    RouteResult bwd = route_pass(rev_ops, rev_dag, coupling, slots,
                                 std::move(fwd.layout), lookahead_,
                                 lookahead_weight_, fid);
    const Layout initial = bwd.layout;
    RouteResult final_pass = route_pass(ops, dag, coupling, slots,
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

  // Fan the trials out on the fork-join pool. Each slot is a pure function
  // of (circuit, coupling, seed, t), so scheduling cannot change any result.
  parallel::parallel_for(
      0, static_cast<std::uint64_t>(trials),
      [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t t = lo; t < hi; ++t)
          outcomes[t] = run_trial(static_cast<int>(t));
      },
      /*serial_cutoff=*/1);

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

}  // namespace qtc::map
