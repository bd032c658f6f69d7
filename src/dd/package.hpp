#pragma once
// Decision-diagram package (QMDD style) after the paper's Sec. V-A and the
// Zulehner/Wille simulator it describes [31][40]: quantum states and
// operators represented as edge-weighted DAGs obtained by recursively
// splitting the 2^n vector / 2^n x 2^n matrix into per-qubit blocks (Fig. 3)
// and sharing structurally equal sub-blocks. Redundancy in structured
// states makes the representation exponentially more compact than arrays.
//
// Conventions:
//  * Variable order: the top node splits on the HIGHEST qubit (most
//    significant bit of the basis index); no level skipping — every nonzero
//    edge at level v points to a node at level v-1 (or the terminal at v=0).
//  * The terminal is represented by a null node pointer.
//  * Nodes are normalized so the child of largest magnitude (smallest index
//    on ties) carries weight 1; the factored weight moves to the parent edge.
//  * The canonical zero edge is {terminal, 0}.
//
// Memory management (production-package style, after the MQT/JKU packages):
//  * Nodes live in a pool (deque chunks) with a free list; a freed node's
//    storage is reused by the next allocation, so deep circuits recycle a
//    bounded working set instead of growing without bound.
//  * Long-lived edges are pinned with small RAII ref handles
//    (Package::VRef / Package::MRef, obtained via Package::hold). A handle
//    bumps the top node's reference count; garbage collection marks from
//    every referenced node and sweeps the rest.
//  * Collection triggers at safe points (entry of the allocating public
//    operations) once the live-node count exceeds the GC threshold
//    (QTC_DD_GC_THRESHOLD, default 131072; 0/"off" disables; programmatic
//    override via set_gc_threshold). The operands of the triggering call are
//    treated as extra roots, so in-flight edges survive; anything else
//    unpinned is reclaimed.
//  * The four compute caches are fixed-size direct-mapped tables with slot
//    replacement (QTC_DD_CT_BITS slots-log2, default 15), bounding cache
//    memory at O(1); they are invalidated wholesale on every collection so
//    no entry can outlive the nodes it references.
// Simulation results are bitwise independent of when (or whether) collection
// runs: everything a statevector depends on is a pure function of edge
// values, never of node addresses or allocation history — vector-land keys
// compare weights exactly and make_vnode snaps child weights onto a dyadic
// grid. Matrix nodes instead keep classic first-writer tolerance buckets
// (adoption erases rounding drift, keeping verification miters compact);
// that is safe because no statevector depends on a matrix-matrix product.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"

namespace qtc::dd {

struct VNode;
struct MNode;

/// Weighted edge into a vector-DD node (nullptr node = terminal).
struct VEdge {
  VNode* node = nullptr;
  cplx w{0, 0};
  bool is_terminal() const { return node == nullptr; }
  bool is_zero() const { return node == nullptr && w == cplx{0, 0}; }
};

/// Weighted edge into a matrix-DD node.
struct MEdge {
  MNode* node = nullptr;
  cplx w{0, 0};
  bool is_terminal() const { return node == nullptr; }
  bool is_zero() const { return node == nullptr && w == cplx{0, 0}; }
};

/// Vector node: splits on qubit `var`; e[b] is the sub-vector where this
/// qubit has value b. `ref`/`alive`/`marked` belong to the package's
/// pool + garbage collector and are not meaningful to callers.
struct VNode {
  int var = 0;
  VEdge e[2];
  std::uint32_t ref = 0;
  bool alive = false;
  bool marked = false;
};

/// Matrix node: e[r*2 + c] is the sub-matrix with row bit r, column bit c of
/// qubit `var` (exactly the 4-way split of the paper's Fig. 3).
struct MNode {
  int var = 0;
  MEdge e[4];
  std::uint32_t ref = 0;
  bool alive = false;
  bool marked = false;
};

/// Hit/miss/eviction counters of one fixed-size compute table.
struct TableStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
};

/// Aggregate statistics for benchmarking (Fig. 3 / E3, E5).
struct PackageStats {
  /// Cumulative node constructions (free-list reuses included).
  std::size_t vector_nodes_allocated = 0;
  std::size_t matrix_nodes_allocated = 0;
  /// Constructions served from the free list instead of fresh pool storage.
  std::size_t vector_nodes_reused = 0;
  std::size_t matrix_nodes_reused = 0;
  std::size_t unique_hits = 0;
  /// Aggregate hits over the four compute tables (per-table detail below).
  std::size_t compute_hits = 0;
  // --- garbage collection -------------------------------------------------
  std::size_t gc_runs = 0;
  std::size_t nodes_freed = 0;
  /// High-water mark of simultaneously live (vector + matrix) nodes.
  std::size_t peak_live_nodes = 0;
  // --- memoized inner product ---------------------------------------------
  /// Node-pair visits inside inner_product/fidelity (O(shared nodes), not
  /// O(2^n), thanks to memoization).
  std::size_t inner_visits = 0;
  std::size_t inner_memo_hits = 0;
  TableStats add_table, madd_table, mulv_table, mulm_table;
};

class Package {
 public:
  /// `compute_table_bits` sets the log2 slot count of each compute table;
  /// 0 reads QTC_DD_CT_BITS (default 15, range [4, 20]); an explicit value
  /// is clamped to [4, 20].
  explicit Package(int num_qubits, int compute_table_bits = 0);

  int num_qubits() const { return n_; }

  // --- memory management ----------------------------------------------------
  /// RAII pin on a vector edge: while alive, garbage collection keeps the
  /// pinned DD. Copyable (another pin) and movable; safe to outlive a
  /// clear() (the stale pin simply does nothing on destruction).
  class VRef {
   public:
    VRef() = default;
    VRef(const VRef& o) : pkg_(o.pkg_), gen_(o.gen_), e_(o.e_) { acquire(); }
    VRef(VRef&& o) noexcept : pkg_(o.pkg_), gen_(o.gen_), e_(o.e_) {
      o.pkg_ = nullptr;
      o.e_ = {};
    }
    VRef& operator=(VRef o) noexcept {
      std::swap(pkg_, o.pkg_);
      std::swap(gen_, o.gen_);
      std::swap(e_, o.e_);
      return *this;
    }
    ~VRef() { release(); }
    const VEdge& edge() const { return e_; }
    explicit operator bool() const { return pkg_ != nullptr; }

   private:
    friend class Package;
    VRef(Package* p, const VEdge& e) : pkg_(p), gen_(p->generation_), e_(e) {
      acquire();
    }
    void acquire() {
      if (pkg_ && gen_ == pkg_->generation_) pkg_->inc_ref(e_.node);
    }
    void release() {
      if (pkg_ && gen_ == pkg_->generation_) pkg_->dec_ref(e_.node);
      pkg_ = nullptr;
    }
    Package* pkg_ = nullptr;
    std::uint64_t gen_ = 0;
    VEdge e_{};
  };

  /// RAII pin on a matrix edge (see VRef).
  class MRef {
   public:
    MRef() = default;
    MRef(const MRef& o) : pkg_(o.pkg_), gen_(o.gen_), e_(o.e_) { acquire(); }
    MRef(MRef&& o) noexcept : pkg_(o.pkg_), gen_(o.gen_), e_(o.e_) {
      o.pkg_ = nullptr;
      o.e_ = {};
    }
    MRef& operator=(MRef o) noexcept {
      std::swap(pkg_, o.pkg_);
      std::swap(gen_, o.gen_);
      std::swap(e_, o.e_);
      return *this;
    }
    ~MRef() { release(); }
    const MEdge& edge() const { return e_; }
    explicit operator bool() const { return pkg_ != nullptr; }

   private:
    friend class Package;
    MRef(Package* p, const MEdge& e) : pkg_(p), gen_(p->generation_), e_(e) {
      acquire();
    }
    void acquire() {
      if (pkg_ && gen_ == pkg_->generation_) pkg_->inc_ref(e_.node);
    }
    void release() {
      if (pkg_ && gen_ == pkg_->generation_) pkg_->dec_ref(e_.node);
      pkg_ = nullptr;
    }
    Package* pkg_ = nullptr;
    std::uint64_t gen_ = 0;
    MEdge e_{};
  };

  /// Pin an edge for the lifetime of the returned handle. Every edge a
  /// caller keeps across another package operation must be pinned when
  /// garbage collection is enabled.
  VRef hold(const VEdge& e) { return VRef(this, e); }
  MRef hold(const MEdge& e) { return MRef(this, e); }

  /// Live-node count above which a collection triggers at the next safe
  /// point; 0 disables garbage collection.
  void set_gc_threshold(std::size_t threshold) { gc_threshold_ = threshold; }
  std::size_t gc_threshold() const { return gc_threshold_; }
  /// Currently live (vector + matrix) nodes.
  std::size_t live_nodes() const { return v_live_ + m_live_; }
  /// Force a mark-and-sweep collection now (regardless of the threshold);
  /// returns the number of nodes freed. Unpinned edges become invalid.
  std::size_t collect_garbage();

  // --- construction -------------------------------------------------------
  /// |bits> basis state (bit q of `bits` = value of qubit q).
  VEdge make_basis_state(std::uint64_t bits);
  /// |0...0>.
  VEdge make_zero_state() { return make_basis_state(0); }
  /// DD of an arbitrary state vector (size 2^n). Intended for tests.
  VEdge make_state(const std::vector<cplx>& amplitudes);
  /// Identity operator DD.
  MEdge make_identity();
  /// Operator DD of a 2^k x 2^k gate matrix acting on `qubits` (qubits[0] is
  /// the least significant gate-local bit, as in op_matrix), identity on all
  /// other qubits.
  MEdge make_gate(const Matrix& gate, const std::vector<int>& qubits);

  // --- algebra --------------------------------------------------------------
  VEdge add(const VEdge& a, const VEdge& b);
  MEdge add(const MEdge& a, const MEdge& b);
  /// Matrix-vector product (applying a gate to a state).
  VEdge multiply(const MEdge& m, const VEdge& v);
  /// Matrix-matrix product (composing operators; m2 applied first).
  MEdge multiply(const MEdge& m1, const MEdge& m2);
  /// <a|b>. Memoized on shared node pairs: O(distinct pairs), not O(2^n).
  cplx inner_product(const VEdge& a, const VEdge& b);
  /// |<a|b>|^2.
  double fidelity(const VEdge& a, const VEdge& b);

  // --- inspection -----------------------------------------------------------
  /// Amplitude <basis|v>.
  cplx amplitude(const VEdge& v, std::uint64_t basis) const;
  /// Dense vector (n <= 26 guard).
  std::vector<cplx> to_vector(const VEdge& v) const;
  /// Dense matrix (n <= 13 guard).
  Matrix to_matrix(const MEdge& m) const;
  /// Matrix entry <row| M |col>.
  cplx entry(const MEdge& m, std::uint64_t row, std::uint64_t col) const;
  /// Number of distinct nodes reachable from the edge (terminal excluded).
  std::size_t node_count(const VEdge& v) const;
  std::size_t node_count(const MEdge& m) const;
  /// Squared norm <v|v>.
  double norm_squared(const VEdge& v);
  /// Sample one basis state according to |amplitude|^2 (state must be
  /// normalized). The per-node norm table is cached on the package and
  /// shared across calls, so a shot loop pays the O(nodes) preprocessing
  /// once per state, then O(n) per sample.
  std::uint64_t sample(const VEdge& v, Rng& rng);
  /// Graphviz DOT rendering of a vector DD (for the developer example).
  std::string to_dot(const VEdge& v) const;

  const PackageStats& stats() const { return stats_; }
  /// Drop all nodes and caches. Invalidates every outstanding edge (ref
  /// handles from before the clear become inert).
  void clear();

 private:
  struct VKey {
    int var;
    VNode* n0;
    VNode* n1;
    std::int64_t w0r, w0i, w1r, w1i;
    bool operator==(const VKey&) const = default;
  };
  struct MKey {
    int var;
    MNode* n[4];
    std::int64_t wr[4], wi[4];
    bool operator==(const MKey&) const = default;
  };
  struct VKeyHash {
    std::size_t operator()(const VKey& k) const;
  };
  struct MKeyHash {
    std::size_t operator()(const MKey& k) const;
  };
  // Compute-table keys: operands plus one relative weight, encoded as an
  // int64 pair. The vector-land caches encode the weight's exact bit
  // pattern, so a hit always returns precisely what recomputation would —
  // the bitwise GC-invariance guarantee for statevectors rests on this (a
  // tolerance bucket would resolve to whichever near-equal entry was
  // created first, i.e. to allocation history). The matrix-land add cache
  // instead encodes a tolerance cell, mirroring the matrix unique table's
  // first-writer merging; no statevector depends on matrix-matrix products,
  // and the adoption is what keeps deep miters compact.
  struct BinKey {
    const void* a = nullptr;
    const void* b = nullptr;
    std::int64_t wr = 0, wi = 0;
    int var = 0;
    bool operator==(const BinKey&) const = default;
  };
  struct BinKeyHash {
    std::size_t operator()(const BinKey& k) const;
  };

  /// Fixed-size direct-mapped compute table with slot replacement: a
  /// colliding insert overwrites the previous occupant (counted as an
  /// eviction), bounding memory at `1 << bits` entries forever.
  template <typename Value>
  class ComputeTable {
   public:
    void init(int bits, TableStats* table_stats, PackageStats* pkg_stats) {
      slots_.assign(std::size_t{1} << bits, Slot{});
      mask_ = slots_.size() - 1;
      tstats_ = table_stats;
      pstats_ = pkg_stats;
    }
    const Value* lookup(const BinKey& k) const {
      const Slot& s = slots_[BinKeyHash{}(k) & mask_];
      if (s.valid && s.key == k) {
        ++tstats_->hits;
        ++pstats_->compute_hits;
        return &s.val;
      }
      ++tstats_->misses;
      return nullptr;
    }
    void insert(const BinKey& k, const Value& v) {
      Slot& s = slots_[BinKeyHash{}(k) & mask_];
      if (s.valid && !(s.key == k)) ++tstats_->evictions;
      s.key = k;
      s.val = v;
      s.valid = true;
    }
    void invalidate() {
      for (Slot& s : slots_) s.valid = false;
    }

   private:
    struct Slot {
      BinKey key{};
      Value val{};
      bool valid = false;
    };
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    mutable TableStats* tstats_ = nullptr;
    mutable PackageStats* pstats_ = nullptr;
  };

  /// Normalizing node constructors (the only way nodes are created).
  VEdge make_vnode(int var, VEdge e0, VEdge e1);
  MEdge make_mnode(int var, MEdge e00, MEdge e01, MEdge e10, MEdge e11);

  VEdge add_rec(const VEdge& a, const VEdge& b, int var);
  MEdge add_rec(const MEdge& a, const MEdge& b, int var);
  VEdge mul_rec(MNode* m, VNode* v, int var);
  MEdge mul_rec(MNode* a, MNode* b, int var);
  cplx inner_unit(VNode* a, VNode* b, int var,
                  std::map<std::pair<const VNode*, const VNode*>, cplx>& memo);
  double norm_rec(VNode* node);

  // --- garbage collection ---------------------------------------------------
  void inc_ref(VNode* n) {
    if (n && n->ref != UINT32_MAX) ++n->ref;
  }
  void inc_ref(MNode* n) {
    if (n && n->ref != UINT32_MAX) ++n->ref;
  }
  void dec_ref(VNode* n) {
    if (n && n->ref != 0 && n->ref != UINT32_MAX) --n->ref;
  }
  void dec_ref(MNode* n) {
    if (n && n->ref != 0 && n->ref != UINT32_MAX) --n->ref;
  }
  /// Safe point: collect if the live-node count exceeds the threshold. The
  /// given operand edges are pinned as extra roots for this collection.
  void maybe_collect(std::initializer_list<const VEdge*> vroots = {},
                     std::initializer_list<const MEdge*> mroots = {});
  std::size_t collect(std::initializer_list<const VEdge*> vroots,
                      std::initializer_list<const MEdge*> mroots);
  static void mark_v(VNode* n);
  static void mark_m(MNode* n);
  VKey key_of(const VNode& n) const;
  MKey key_of(const MNode& n) const;

  int n_ = 0;
  std::deque<VNode> vnodes_;
  std::deque<MNode> mnodes_;
  std::vector<VNode*> v_free_;
  std::vector<MNode*> m_free_;
  std::size_t v_live_ = 0;
  std::size_t m_live_ = 0;
  std::size_t gc_threshold_ = 0;
  std::uint64_t generation_ = 0;  // bumped by clear(); stale refs go inert
  std::unordered_map<VKey, VNode*, VKeyHash> v_unique_;
  std::unordered_map<MKey, MNode*, MKeyHash> m_unique_;
  ComputeTable<VEdge> add_cache_;
  ComputeTable<MEdge> madd_cache_;
  ComputeTable<VEdge> mulv_cache_;
  ComputeTable<MEdge> mulm_cache_;
  /// Per-node squared norms shared by norm_squared/sample across calls;
  /// invalidated on collection (node addresses may be reused).
  std::unordered_map<const VNode*, double> norm_memo_;
  PackageStats stats_;
};

}  // namespace qtc::dd
