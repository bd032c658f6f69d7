#include "dd/package.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/knobs.hpp"
#include "sim/dispatch.hpp"

namespace qtc::dd {

namespace {

/// Exact bit pattern of a weight component for unique-table/compute keys.
/// Keys compare exactly — never by tolerance bucket — so a table hit returns
/// precisely what recreation would produce; that exactness is what makes
/// results bitwise independent of garbage collection (a tolerant bucket
/// would resolve to whichever near-equal node happened to be created first,
/// i.e. to allocation history).
std::int64_t weight_bits(double x) {
  std::int64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::size_t hash_mix(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

cplx canonical_zero_if_tiny(cplx w) {
  return std::abs(w) < 1e-13 ? cplx{0, 0} : w;
}

/// Snap a normalized child weight onto a fixed grid so weights that agree
/// within half a grid step share one bit pattern — this is what lets
/// numerically noisy near-equal amplitudes unify onto existing vector
/// nodes. Unlike a first-writer-wins tolerance bucket, the snap is a pure
/// function of the value, so which node a weight unifies with cannot depend
/// on allocation history — tolerance merging without giving up bitwise
/// GC-invariance of simulated statevectors.
/// The grid step is a power of two (2^-40 ~ 9.1e-13) so every grid point is
/// exactly representable and the snap is exact arithmetic: dyadic values the
/// engine produces all the time (+-1, +-0.5, 0.25, ...) snap to themselves
/// bit for bit. A decimal grid (1e-12) would return 1.0000000000000002 for
/// snap(1.0), injecting drift into every cancellation path and defeating the
/// merging it is supposed to enable.
constexpr int kGridBits = 40;

double snap_component(double x) {
  if (x == 0.0) return 0.0;  // also flushes -0.0 to +0.0
  // Normalized child weights have magnitude <= 1; add ratios can be larger.
  // Past this magnitude the grid is finer than the double's own spacing
  // anyway (and llround would overflow), so pass the value through.
  if (std::abs(x) >= 1e6) return x;
  return std::ldexp(static_cast<double>(std::llround(std::ldexp(x, kGridBits))),
                    -kGridBits);
}

cplx snap_weight(cplx w) {
  return {snap_component(w.real()), snap_component(w.imag())};
}

/// Tolerance cell for matrix-land unique/compute keys: first-writer buckets,
/// as in classic QMDD packages. Matrix nodes only feed gate construction and
/// the verification layer's matrix-matrix products; no statevector ever
/// depends on a matrix-matrix product, so history-dependent merging is safe
/// here — and it is what makes a miter of equivalent circuits contract back
/// to the identity (each near-miss lookup adopts the stored node, erasing
/// accumulated rounding drift instead of letting it compound).
constexpr double kQuantum = 1e-12;

std::int64_t quantize_cell(double x) {
  // Past this magnitude the cell index would overflow; fall back to the bit
  // pattern (the two ranges cannot collide: |cells| < 4e18 while bit
  // patterns of doubles this large exceed 4.6e18 in magnitude).
  if (std::abs(x) >= 4e6) return weight_bits(x);
  return std::llround(x / kQuantum);
}

}  // namespace

std::size_t Package::VKeyHash::operator()(const VKey& k) const {
  std::size_t h = std::hash<int>()(k.var);
  h = hash_mix(h, std::hash<const void*>()(k.n0));
  h = hash_mix(h, std::hash<const void*>()(k.n1));
  h = hash_mix(h, std::hash<std::int64_t>()(k.w0r));
  h = hash_mix(h, std::hash<std::int64_t>()(k.w0i));
  h = hash_mix(h, std::hash<std::int64_t>()(k.w1r));
  h = hash_mix(h, std::hash<std::int64_t>()(k.w1i));
  return h;
}

std::size_t Package::MKeyHash::operator()(const MKey& k) const {
  std::size_t h = std::hash<int>()(k.var);
  for (int i = 0; i < 4; ++i) {
    h = hash_mix(h, std::hash<const void*>()(k.n[i]));
    h = hash_mix(h, std::hash<std::int64_t>()(k.wr[i]));
    h = hash_mix(h, std::hash<std::int64_t>()(k.wi[i]));
  }
  return h;
}

std::size_t Package::BinKeyHash::operator()(const BinKey& k) const {
  std::size_t h = std::hash<const void*>()(k.a);
  h = hash_mix(h, std::hash<const void*>()(k.b));
  h = hash_mix(h, std::hash<std::int64_t>()(k.wr));
  h = hash_mix(h, std::hash<std::int64_t>()(k.wi));
  h = hash_mix(h, std::hash<int>()(k.var));
  return h;
}

Package::Package(int num_qubits, int compute_table_bits) : n_(num_qubits) {
  if (num_qubits <= 0 || num_qubits > sim::kMaxDecisionDiagramQubits)
    throw std::invalid_argument("dd::Package: unsupported qubit count");
  // Live-node count above which the collector runs (0 = never), unless a
  // caller overrides it with set_gc_threshold.
  gc_threshold_ = knobs::get(knobs::Knob::DdGcThreshold);
  const int bits =
      compute_table_bits > 0
          ? std::clamp(compute_table_bits, 4, 20)
          : static_cast<int>(knobs::get(knobs::Knob::DdCtBits));
  add_cache_.init(bits, &stats_.add_table, &stats_);
  madd_cache_.init(bits, &stats_.madd_table, &stats_);
  mulv_cache_.init(bits, &stats_.mulv_table, &stats_);
  mulm_cache_.init(bits, &stats_.mulm_table, &stats_);
}

void Package::clear() {
  ++generation_;  // outstanding ref handles become inert
  vnodes_.clear();
  mnodes_.clear();
  v_free_.clear();
  m_free_.clear();
  v_live_ = 0;
  m_live_ = 0;
  v_unique_.clear();
  m_unique_.clear();
  add_cache_.invalidate();
  madd_cache_.invalidate();
  mulv_cache_.invalidate();
  mulm_cache_.invalidate();
  norm_memo_.clear();
  stats_ = {};
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void Package::mark_v(VNode* n) {
  if (n == nullptr || n->marked) return;
  n->marked = true;
  mark_v(n->e[0].node);
  mark_v(n->e[1].node);
}

void Package::mark_m(MNode* n) {
  if (n == nullptr || n->marked) return;
  n->marked = true;
  for (const MEdge& e : n->e) mark_m(e.node);
}

Package::VKey Package::key_of(const VNode& n) const {
  return VKey{n.var,
              n.e[0].node,
              n.e[1].node,
              weight_bits(n.e[0].w.real()),
              weight_bits(n.e[0].w.imag()),
              weight_bits(n.e[1].w.real()),
              weight_bits(n.e[1].w.imag())};
}

Package::MKey Package::key_of(const MNode& n) const {
  MKey key;
  key.var = n.var;
  for (int i = 0; i < 4; ++i) {
    key.n[i] = n.e[i].node;
    key.wr[i] = quantize_cell(n.e[i].w.real());
    key.wi[i] = quantize_cell(n.e[i].w.imag());
  }
  return key;
}

void Package::maybe_collect(std::initializer_list<const VEdge*> vroots,
                            std::initializer_list<const MEdge*> mroots) {
  if (gc_threshold_ == 0 || v_live_ + m_live_ <= gc_threshold_) return;
  collect(vroots, mroots);
}

std::size_t Package::collect_garbage() { return collect({}, {}); }

std::size_t Package::collect(std::initializer_list<const VEdge*> vroots,
                             std::initializer_list<const MEdge*> mroots) {
  ++stats_.gc_runs;
  // Mark phase: roots are every node pinned by a ref handle plus the
  // operands of the call that triggered this collection.
  for (VNode& n : vnodes_)
    if (n.alive) n.marked = false;
  for (MNode& n : mnodes_)
    if (n.alive) n.marked = false;
  for (VNode& n : vnodes_)
    if (n.alive && n.ref > 0) mark_v(&n);
  for (MNode& n : mnodes_)
    if (n.alive && n.ref > 0) mark_m(&n);
  for (const VEdge* e : vroots)
    if (e) mark_v(e->node);
  for (const MEdge* e : mroots)
    if (e) mark_m(e->node);
  // Sweep phase: unmarked nodes leave the unique table and join the free
  // list; their storage is reused by the next allocation.
  std::size_t freed = 0;
  for (VNode& n : vnodes_) {
    if (!n.alive || n.marked) continue;
    v_unique_.erase(key_of(n));
    n.alive = false;
    n.ref = 0;
    v_free_.push_back(&n);
    --v_live_;
    ++freed;
  }
  for (MNode& n : mnodes_) {
    if (!n.alive || n.marked) continue;
    m_unique_.erase(key_of(n));
    n.alive = false;
    n.ref = 0;
    m_free_.push_back(&n);
    --m_live_;
    ++freed;
  }
  stats_.nodes_freed += freed;
  // Compute tables and the norm memo may reference swept nodes (and node
  // addresses are about to be reused) — invalidate them wholesale.
  add_cache_.invalidate();
  madd_cache_.invalidate();
  mulv_cache_.invalidate();
  mulm_cache_.invalidate();
  norm_memo_.clear();
  return freed;
}

// ---------------------------------------------------------------------------
// Normalizing constructors
// ---------------------------------------------------------------------------

VEdge Package::make_vnode(int var, VEdge e0, VEdge e1) {
  e0.w = canonical_zero_if_tiny(e0.w);
  e1.w = canonical_zero_if_tiny(e1.w);
  if (e0.w == cplx{0, 0}) e0 = {};
  if (e1.w == cplx{0, 0}) e1 = {};
  if (e0.is_zero() && e1.is_zero()) return {};
  // Normalize: the child with the larger magnitude (ties -> child 0) takes
  // weight 1 and its weight moves up to the returned edge. The tolerance band
  // keeps the pivot choice stable when rounding drift perturbs a near-tie.
  const int pivot = std::abs(e1.w) > std::abs(e0.w) + 1e-15 ? 1 : 0;
  const cplx top = pivot == 0 ? e0.w : e1.w;
  e0.w /= top;
  e1.w /= top;
  e0.w = snap_weight(e0.w);
  e1.w = snap_weight(e1.w);
  // The pivot child's weight is exactly 1 by construction; force the bit
  // pattern (complex self-division can yield e.g. a signed-zero imaginary
  // part).
  (pivot == 0 ? e0 : e1).w = cplx{1, 0};
  if (e0.w == cplx{0, 0}) e0 = {};
  if (e1.w == cplx{0, 0}) e1 = {};
  VKey key{var,
           e0.node,
           e1.node,
           weight_bits(e0.w.real()),
           weight_bits(e0.w.imag()),
           weight_bits(e1.w.real()),
           weight_bits(e1.w.imag())};
  auto it = v_unique_.find(key);
  if (it != v_unique_.end()) {
    ++stats_.unique_hits;
    return {it->second, top};
  }
  VNode* node;
  if (!v_free_.empty()) {
    node = v_free_.back();
    v_free_.pop_back();
    ++stats_.vector_nodes_reused;
  } else {
    vnodes_.emplace_back();
    node = &vnodes_.back();
  }
  node->var = var;
  node->e[0] = e0;
  node->e[1] = e1;
  node->ref = 0;
  node->alive = true;
  node->marked = false;
  ++v_live_;
  ++stats_.vector_nodes_allocated;
  stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, v_live_ + m_live_);
  v_unique_.emplace(key, node);
  return {node, top};
}

MEdge Package::make_mnode(int var, MEdge e00, MEdge e01, MEdge e10,
                          MEdge e11) {
  MEdge e[4] = {e00, e01, e10, e11};
  int pivot = -1;
  double best = 0;
  for (int i = 0; i < 4; ++i) {
    e[i].w = canonical_zero_if_tiny(e[i].w);
    if (e[i].w == cplx{0, 0}) e[i] = {};
    if (std::abs(e[i].w) > best + 1e-15) {
      best = std::abs(e[i].w);
      pivot = i;
    }
  }
  if (pivot < 0) return {};
  const cplx top = e[pivot].w;
  MKey key;
  key.var = var;
  for (int i = 0; i < 4; ++i) {
    // A child weight bitwise equal to the pivot's divides to exactly 1:
    // complex self-division in FP leaves ~1e-17 imaginary residue, and
    // whether that residue survives would otherwise depend on which node a
    // tolerance lookup adopts — i.e. on allocation history. Forcing the
    // exact quotient keeps gate construction deterministic across GC.
    e[i].w = e[i].w == top ? cplx{1, 0} : e[i].w / top;
    // Matrix nodes keep raw first-writer weights and unify by tolerance
    // cell (see quantize_cell above): a near-miss lookup adopts the stored
    // node verbatim, which is the contraction that lets deep miters cancel.
    if (i == pivot) e[i].w = cplx{1, 0};
    if (e[i].w == cplx{0, 0}) e[i] = {};
    key.n[i] = e[i].node;
    key.wr[i] = quantize_cell(e[i].w.real());
    key.wi[i] = quantize_cell(e[i].w.imag());
  }
  auto it = m_unique_.find(key);
  if (it != m_unique_.end()) {
    ++stats_.unique_hits;
    return {it->second, top};
  }
  MNode* node;
  if (!m_free_.empty()) {
    node = m_free_.back();
    m_free_.pop_back();
    ++stats_.matrix_nodes_reused;
  } else {
    mnodes_.emplace_back();
    node = &mnodes_.back();
  }
  node->var = var;
  for (int i = 0; i < 4; ++i) node->e[i] = e[i];
  node->ref = 0;
  node->alive = true;
  node->marked = false;
  ++m_live_;
  ++stats_.matrix_nodes_allocated;
  stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, v_live_ + m_live_);
  m_unique_.emplace(key, node);
  return {node, top};
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

VEdge Package::make_basis_state(std::uint64_t bits) {
  maybe_collect();
  VEdge below{nullptr, 1};
  for (int v = 0; v < n_; ++v) {
    const int bit = static_cast<int>((bits >> v) & 1);
    VEdge children[2] = {{}, {}};
    children[bit] = below;
    below = make_vnode(v, children[0], children[1]);
  }
  return below;
}

VEdge Package::make_state(const std::vector<cplx>& amplitudes) {
  if (amplitudes.size() != (std::size_t{1} << n_))
    throw std::invalid_argument("make_state: wrong amplitude count");
  maybe_collect();
  // Build bottom-up over basis-index prefixes.
  struct Builder {
    Package& pkg;
    const std::vector<cplx>& amp;
    VEdge build(int var, std::uint64_t prefix) {
      if (var < 0) {
        const cplx a = amp[prefix];
        return std::abs(a) < 1e-15 ? VEdge{} : VEdge{nullptr, a};
      }
      VEdge lo = build(var - 1, prefix);
      VEdge hi = build(var - 1, prefix | (std::uint64_t{1} << var));
      return pkg.make_vnode(var, lo, hi);
    }
  };
  return Builder{*this, amplitudes}.build(n_ - 1, 0);
}

MEdge Package::make_identity() {
  maybe_collect();
  MEdge below{nullptr, 1};
  for (int v = 0; v < n_; ++v) below = make_mnode(v, below, {}, {}, below);
  return below;
}

MEdge Package::make_gate(const Matrix& gate, std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  if (gate.rows() != (std::size_t{1} << k) || gate.cols() != gate.rows())
    throw std::invalid_argument("make_gate: matrix/qubit-count mismatch");
  std::vector<int> local(n_, -1);
  for (int t = 0; t < k; ++t) {
    if (qubits[t] < 0 || qubits[t] >= n_)
      throw std::out_of_range("make_gate: qubit out of range");
    if (local[qubits[t]] != -1)
      throw std::invalid_argument("make_gate: duplicate qubit");
    local[qubits[t]] = t;
  }
  maybe_collect();
  // Recursive block construction: gate qubits branch into the 2x2 block of
  // the gate matrix, all other qubits contribute identity blocks. Memoized
  // on (level, accumulated gate-local row/col indices).
  std::map<std::tuple<int, int, int>, MEdge> memo;
  struct Builder {
    Package& pkg;
    const Matrix& m;
    const std::vector<int>& local;
    std::map<std::tuple<int, int, int>, MEdge>& memo;
    MEdge build(int var, int r, int c) {
      if (var < 0) {
        const cplx entry = m(r, c);
        return std::abs(entry) < 1e-15 ? MEdge{} : MEdge{nullptr, entry};
      }
      const auto key = std::make_tuple(var, r, c);
      auto it = memo.find(key);
      if (it != memo.end()) return it->second;
      MEdge result;
      const int t = local[var];
      if (t < 0) {
        MEdge below = build(var - 1, r, c);
        result = pkg.make_mnode(var, below, {}, {}, below);
      } else {
        MEdge e[4];
        for (int rb = 0; rb < 2; ++rb)
          for (int cb = 0; cb < 2; ++cb)
            e[rb * 2 + cb] = build(var - 1, r | (rb << t), c | (cb << t));
        result = pkg.make_mnode(var, e[0], e[1], e[2], e[3]);
      }
      memo.emplace(key, result);
      return result;
    }
  };
  return Builder{*this, gate, local, memo}.build(n_ - 1, 0, 0);
}

// ---------------------------------------------------------------------------
// Addition
// ---------------------------------------------------------------------------

VEdge Package::add(const VEdge& a, const VEdge& b) {
  maybe_collect({&a, &b});
  return add_rec(a, b, n_ - 1);
}

VEdge Package::add_rec(const VEdge& a, const VEdge& b, int var) {
  // Canonicalize operand weights first: a user-constructed edge can carry a
  // sub-tolerance nonzero weight, and dividing by it below would inject
  // Inf/NaN into the result (and the compute table).
  VEdge x = a, y = b;
  x.w = canonical_zero_if_tiny(x.w);
  y.w = canonical_zero_if_tiny(y.w);
  if (x.w == cplx{0, 0}) return y.w == cplx{0, 0} ? VEdge{} : y;
  if (y.w == cplx{0, 0}) return x;
  if (var < 0) {
    const cplx s = canonical_zero_if_tiny(x.w + y.w);
    return s == cplx{0, 0} ? VEdge{} : VEdge{nullptr, s};
  }
  // NOTE: operands are deliberately NOT reordered by node address — address
  // order depends on allocation history, and the engine guarantees results
  // that are bitwise independent of garbage collection.
  // The ratio is used raw and keyed on its exact bit pattern: a cache hit
  // returns precisely what recomputation would, so statevectors stay
  // bitwise independent of garbage collection. Merging of near-equal
  // amplitudes happens only in make_vnode, whose grid snap is a pure
  // function of the value.
  const cplx ratio = y.w / x.w;
  const BinKey key{x.node, y.node, weight_bits(ratio.real()),
                   weight_bits(ratio.imag()), var};
  if (const VEdge* hit = add_cache_.lookup(key))
    return {hit->node, hit->w * x.w};
  VEdge r[2];
  for (int i = 0; i < 2; ++i) {
    const VEdge xc = x.node->e[i];
    VEdge yc = y.node->e[i];
    yc.w *= ratio;
    r[i] = add_rec(xc, yc, var - 1);
  }
  const VEdge unit = make_vnode(var, r[0], r[1]);
  add_cache_.insert(key, unit);
  return {unit.node, unit.w * x.w};
}

MEdge Package::add(const MEdge& a, const MEdge& b) {
  maybe_collect({}, {&a, &b});
  return add_rec(a, b, n_ - 1);
}

MEdge Package::add_rec(const MEdge& a, const MEdge& b, int var) {
  MEdge x = a, y = b;
  x.w = canonical_zero_if_tiny(x.w);
  y.w = canonical_zero_if_tiny(y.w);
  if (x.w == cplx{0, 0}) return y.w == cplx{0, 0} ? MEdge{} : y;
  if (y.w == cplx{0, 0}) return x;
  if (var < 0) {
    const cplx s = canonical_zero_if_tiny(x.w + y.w);
    return s == cplx{0, 0} ? MEdge{} : MEdge{nullptr, s};
  }
  // Matrix land: operands are canonically ordered and the ratio is keyed by
  // tolerance cell, so near-equal sums resolve to the first-computed result
  // (the same first-writer merging the matrix unique table does).
  if (x.node > y.node) std::swap(x, y);
  const cplx ratio = y.w / x.w;
  const BinKey key{x.node, y.node, quantize_cell(ratio.real()),
                   quantize_cell(ratio.imag()), var};
  if (const MEdge* hit = madd_cache_.lookup(key))
    return {hit->node, hit->w * x.w};
  MEdge r[4];
  for (int i = 0; i < 4; ++i) {
    const MEdge xc = x.node->e[i];
    MEdge yc = y.node->e[i];
    yc.w *= ratio;
    r[i] = add_rec(xc, yc, var - 1);
  }
  const MEdge unit = make_mnode(var, r[0], r[1], r[2], r[3]);
  madd_cache_.insert(key, unit);
  return {unit.node, unit.w * x.w};
}

// ---------------------------------------------------------------------------
// Multiplication
// ---------------------------------------------------------------------------

VEdge Package::multiply(const MEdge& m, const VEdge& v) {
  if (m.is_zero() || v.is_zero()) return {};
  maybe_collect({&v}, {&m});
  if (n_ == 0) return {nullptr, m.w * v.w};
  VEdge unit = mul_rec(m.node, v.node, n_ - 1);
  return {unit.node, unit.w * m.w * v.w};
}

VEdge Package::mul_rec(MNode* m, VNode* v, int var) {
  const BinKey key{m, v, 0, 0, var};
  if (const VEdge* hit = mulv_cache_.lookup(key)) return *hit;
  VEdge r[2];
  for (int i = 0; i < 2; ++i) {
    VEdge sum{};
    for (int j = 0; j < 2; ++j) {
      const MEdge& me = m->e[i * 2 + j];
      const VEdge& ve = v->e[j];
      if (me.is_zero() || ve.is_zero()) continue;
      VEdge term;
      if (var == 0) {
        term = {nullptr, me.w * ve.w};
      } else {
        VEdge unit = mul_rec(me.node, ve.node, var - 1);
        term = {unit.node, unit.w * me.w * ve.w};
      }
      sum = add_rec(sum, term, var - 1);
    }
    r[i] = sum;
  }
  VEdge result = make_vnode(var, r[0], r[1]);
  mulv_cache_.insert(key, result);
  return result;
}

MEdge Package::multiply(const MEdge& m1, const MEdge& m2) {
  if (m1.is_zero() || m2.is_zero()) return {};
  maybe_collect({}, {&m1, &m2});
  MEdge unit = mul_rec(m1.node, m2.node, n_ - 1);
  return {unit.node, unit.w * m1.w * m2.w};
}

MEdge Package::mul_rec(MNode* a, MNode* b, int var) {
  const BinKey key{a, b, 0, 0, var};
  if (const MEdge* hit = mulm_cache_.lookup(key)) return *hit;
  MEdge r[4];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      MEdge sum{};
      for (int k = 0; k < 2; ++k) {
        const MEdge& ae = a->e[i * 2 + k];
        const MEdge& be = b->e[k * 2 + j];
        if (ae.is_zero() || be.is_zero()) continue;
        MEdge term;
        if (var == 0) {
          term = {nullptr, ae.w * be.w};
        } else {
          MEdge unit = mul_rec(ae.node, be.node, var - 1);
          term = {unit.node, unit.w * ae.w * be.w};
        }
        sum = add_rec(sum, term, var - 1);
      }
      r[i * 2 + j] = sum;
    }
  }
  MEdge result = make_mnode(var, r[0], r[1], r[2], r[3]);
  mulm_cache_.insert(key, result);
  return result;
}

// ---------------------------------------------------------------------------
// Inner products / norms / sampling
// ---------------------------------------------------------------------------

cplx Package::inner_product(const VEdge& a, const VEdge& b) {
  if (a.is_zero() || b.is_zero()) return {0, 0};
  const cplx factor = std::conj(a.w) * b.w;
  if (a.is_terminal() || b.is_terminal()) return factor;  // n_ == 0 edges
  std::map<std::pair<const VNode*, const VNode*>, cplx> memo;
  return factor * inner_unit(a.node, b.node, n_ - 1, memo);
}

/// <a|b> of two unit edges into `a`/`b` at level `var`. Memoized on the node
/// pair: shared sub-DDs are visited once, so highly structured states cost
/// O(distinct pairs) instead of the exponential naive recursion.
cplx Package::inner_unit(
    VNode* a, VNode* b, int var,
    std::map<std::pair<const VNode*, const VNode*>, cplx>& memo) {
  if (var < 0) return {1, 0};
  ++stats_.inner_visits;
  const auto key = std::make_pair(static_cast<const VNode*>(a),
                                  static_cast<const VNode*>(b));
  auto it = memo.find(key);
  if (it != memo.end()) {
    ++stats_.inner_memo_hits;
    return it->second;
  }
  cplx sum{0, 0};
  for (int i = 0; i < 2; ++i) {
    const VEdge& ae = a->e[i];
    const VEdge& be = b->e[i];
    if (ae.is_zero() || be.is_zero()) continue;
    sum += std::conj(ae.w) * be.w *
           (var == 0 ? cplx{1, 0} : inner_unit(ae.node, be.node, var - 1, memo));
  }
  memo.emplace(key, sum);
  return sum;
}

double Package::fidelity(const VEdge& a, const VEdge& b) {
  return std::norm(inner_product(a, b));
}

double Package::norm_squared(const VEdge& v) {
  if (v.is_zero()) return 0;
  return std::norm(v.w) * (v.is_terminal() ? 1.0 : norm_rec(v.node));
}

double Package::norm_rec(VNode* node) {
  auto it = norm_memo_.find(node);
  if (it != norm_memo_.end()) return it->second;
  double total = 0;
  for (int i = 0; i < 2; ++i) {
    const VEdge& e = node->e[i];
    if (e.is_zero()) continue;
    total += std::norm(e.w) * (e.is_terminal() ? 1.0 : norm_rec(e.node));
  }
  norm_memo_.emplace(node, total);
  return total;
}

std::uint64_t Package::sample(const VEdge& v, Rng& rng) {
  if (v.is_zero()) throw std::invalid_argument("sample: zero state");
  std::uint64_t result = 0;
  const VEdge* edge = &v;
  for (int var = n_ - 1; var >= 0; --var) {
    VNode* node = edge->node;
    double p[2];
    for (int i = 0; i < 2; ++i) {
      const VEdge& c = node->e[i];
      p[i] = c.is_zero() ? 0.0
                         : std::norm(c.w) *
                               (c.is_terminal() ? 1.0 : norm_rec(c.node));
    }
    const double total = p[0] + p[1];
    const int bit = rng.uniform() * total < p[0] ? 0 : 1;
    if (bit) result |= std::uint64_t{1} << var;
    edge = &node->e[bit];
  }
  return result;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

cplx Package::amplitude(const VEdge& v, std::uint64_t basis) const {
  cplx w = v.w;
  const VEdge* edge = &v;
  for (int var = n_ - 1; var >= 0; --var) {
    if (edge->is_zero()) return {0, 0};
    const int bit = static_cast<int>((basis >> var) & 1);
    edge = &edge->node->e[bit];
    w *= edge->w;
  }
  return edge->is_zero() ? cplx{0, 0} : w;
}

cplx Package::entry(const MEdge& m, std::uint64_t row,
                    std::uint64_t col) const {
  cplx w = m.w;
  const MEdge* edge = &m;
  for (int var = n_ - 1; var >= 0; --var) {
    if (edge->is_zero()) return {0, 0};
    const int rb = static_cast<int>((row >> var) & 1);
    const int cb = static_cast<int>((col >> var) & 1);
    edge = &edge->node->e[rb * 2 + cb];
    w *= edge->w;
  }
  return edge->is_zero() ? cplx{0, 0} : w;
}

std::vector<cplx> Package::to_vector(const VEdge& v) const {
  if (n_ > 26) throw std::invalid_argument("to_vector: too many qubits");
  std::vector<cplx> out(std::size_t{1} << n_, cplx{0, 0});
  struct Filler {
    std::vector<cplx>& out;
    void fill(const VEdge& e, int var, std::uint64_t idx, cplx w) {
      if (e.is_zero()) return;
      w *= e.w;
      if (var < 0) {
        out[idx] = w;
        return;
      }
      fill(e.node->e[0], var - 1, idx, w);
      fill(e.node->e[1], var - 1, idx | (std::uint64_t{1} << var), w);
    }
  };
  Filler{out}.fill(v, n_ - 1, 0, cplx{1, 0});
  return out;
}

Matrix Package::to_matrix(const MEdge& m) const {
  if (n_ > 13) throw std::invalid_argument("to_matrix: too many qubits");
  Matrix out(std::size_t{1} << n_, std::size_t{1} << n_);
  struct Filler {
    Matrix& out;
    void fill(const MEdge& e, int var, std::uint64_t r, std::uint64_t c,
              cplx w) {
      if (e.is_zero()) return;
      w *= e.w;
      if (var < 0) {
        out(r, c) = w;
        return;
      }
      for (std::uint64_t rb = 0; rb < 2; ++rb)
        for (std::uint64_t cb = 0; cb < 2; ++cb)
          fill(e.node->e[rb * 2 + cb], var - 1, r | (rb << var),
               c | (cb << var), w);
    }
  };
  Filler{out}.fill(m, n_ - 1, 0, 0, cplx{1, 0});
  return out;
}

std::size_t Package::node_count(const VEdge& v) const {
  std::set<const VNode*> seen;
  struct Walker {
    std::set<const VNode*>& seen;
    void walk(const VNode* node) {
      if (node == nullptr || !seen.insert(node).second) return;
      for (const auto& e : node->e) walk(e.node);
    }
  };
  Walker{seen}.walk(v.node);
  return seen.size();
}

std::size_t Package::node_count(const MEdge& m) const {
  std::set<const MNode*> seen;
  struct Walker {
    std::set<const MNode*>& seen;
    void walk(const MNode* node) {
      if (node == nullptr || !seen.insert(node).second) return;
      for (const auto& e : node->e) walk(e.node);
    }
  };
  Walker{seen}.walk(m.node);
  return seen.size();
}

namespace {

/// Render an edge weight for DOT labels: real part, then the imaginary part
/// with an explicit sign (never "+-0.5i").
void append_weight(std::ostringstream& os, cplx w) {
  os << w.real();
  if (std::abs(w.imag()) > 1e-12)
    os << (w.imag() < 0 ? "-" : "+") << std::abs(w.imag()) << "i";
}

}  // namespace

std::string Package::to_dot(const VEdge& v) const {
  std::ostringstream os;
  os << "digraph dd {\n  rankdir=TB;\n";
  std::map<const VNode*, int> ids;
  struct Walker {
    std::ostringstream& os;
    std::map<const VNode*, int>& ids;
    int next = 0;
    int id(const VNode* node) {
      auto it = ids.find(node);
      if (it != ids.end()) return it->second;
      const int i = next++;
      ids.emplace(node, i);
      return i;
    }
    void walk(const VNode* node) {
      if (node == nullptr) return;
      const int my = id(node);
      os << "  n" << my << " [label=\"q" << node->var << "\"];\n";
      for (int b = 0; b < 2; ++b) {
        const VEdge& e = node->e[b];
        if (e.is_zero()) continue;
        if (e.is_terminal()) {
          os << "  n" << my << " -> t [label=\"" << b << ": ";
          append_weight(os, e.w);
          os << "\"];\n";
        } else {
          const bool first = ids.find(e.node) == ids.end();
          os << "  n" << my << " -> n" << id(e.node) << " [label=\"" << b
             << ": ";
          append_weight(os, e.w);
          os << "\"];\n";
          if (first) walk(e.node);
        }
      }
    }
  };
  os << "  t [shape=box,label=\"1\"];\n";
  Walker walker{os, ids};
  walker.walk(v.node);
  os << "}\n";
  return os.str();
}

}  // namespace qtc::dd
