#include "transpiler/transpile_cache.hpp"

#include <bit>
#include <optional>
#include <utility>

#include "qbin/qbin.hpp"

namespace qtc::transpiler {

namespace {

/// FNV-1a over 64-bit words for the parameter, calibration and key
/// fingerprints; full structural comparison sits behind every key, so
/// collisions only cost a compare.
struct Hasher {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

/// Parameter-only fingerprint (exact double bit patterns).
std::uint64_t param_hash(const QuantumCircuit& c) {
  Hasher h;
  for (const auto& op : c.ops())
    for (double p : op.params) h.mix(std::bit_cast<std::uint64_t>(p));
  return h.h;
}

/// Same structure: equal up to parameter *values* (counts must match).
bool same_structure(const QuantumCircuit& a, const QuantumCircuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_clbits() != b.num_clbits() ||
      a.qregs() != b.qregs() || a.cregs() != b.cregs() ||
      a.ops().size() != b.ops().size())
    return false;
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    const Operation& x = a.ops()[i];
    const Operation& y = b.ops()[i];
    if (x.kind != y.kind || x.qubits != y.qubits || x.clbits != y.clbits ||
        x.cond_reg != y.cond_reg || x.cond_val != y.cond_val ||
        x.params.size() != y.params.size())
      return false;
  }
  return true;
}

bool options_equal(const TranspileOptions& a, const TranspileOptions& b) {
  return a.mapper == b.mapper &&
         a.optimization_level == b.optimization_level &&
         a.to_u_basis == b.to_u_basis && a.trials == b.trials &&
         a.seed == b.seed && a.fidelity == b.fidelity;
}

/// Calibration fingerprint for fidelity-aware entries: the routing itself
/// depends on per-edge errors/durations, so two backends that differ only in
/// calibration must not share cached routings when fidelity is on. 0 when
/// fidelity is off (routing is calibration-blind).
std::uint64_t calibration_fingerprint(const arch::Backend& backend,
                                      const TranspileOptions& opts) {
  if (opts.fidelity != 1) return 0;
  const auto& cal = backend.calibration();
  Hasher h;
  auto mix_vec = [&h](const std::vector<double>& v) {
    h.mix(v.size());
    for (double x : v) h.mix(std::bit_cast<std::uint64_t>(x));
  };
  mix_vec(cal.single_qubit_error);
  mix_vec(cal.readout_error);
  mix_vec(cal.cx_error);
  mix_vec(cal.cx_duration_us);
  h.mix(std::bit_cast<std::uint64_t>(cal.gate_time_1q_us));
  h.mix(std::bit_cast<std::uint64_t>(cal.gate_time_cx_us));
  return h.h;
}

/// Cache key: the circuit-structural fingerprint mixed with the backend
/// (coupling map, native basis, calibration when fidelity-aware) and the
/// resolved options.
std::uint64_t cache_key(const QuantumCircuit& circuit,
                        const arch::Backend& backend,
                        const TranspileOptions& opts) {
  const arch::CouplingMap& coupling = backend.coupling_map();
  Hasher h;
  h.mix(qbin::structural_digest(circuit));
  h.mix(static_cast<std::uint64_t>(coupling.num_qubits()));
  for (const auto& [a, b] : coupling.edges()) {
    h.mix(static_cast<std::uint64_t>(a));
    h.mix(static_cast<std::uint64_t>(b));
  }
  h.mix(static_cast<std::uint64_t>(opts.mapper));
  h.mix(static_cast<std::uint64_t>(opts.optimization_level));
  h.mix(opts.to_u_basis ? 1 : 0);
  h.mix(static_cast<std::uint64_t>(opts.trials));
  h.mix(opts.seed);
  h.mix(static_cast<std::uint64_t>(opts.fidelity));
  h.mix(static_cast<std::uint64_t>(backend.basis()));
  h.mix(calibration_fingerprint(backend, opts));
  return h.h;
}

}  // namespace

TranspileCache& TranspileCache::global() {
  static TranspileCache cache;
  return cache;
}

class TranspileCache::InFlightGuard {
 public:
  InFlightGuard(TranspileCache& cache, std::uint64_t key)
      : cache_(cache), key_(key) {}
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;
  ~InFlightGuard() {
    {
      std::lock_guard<std::mutex> lock(cache_.mu_);
      cache_.in_flight_.erase(key_);
    }
    cache_.in_flight_done_.notify_all();
  }

 private:
  TranspileCache& cache_;
  std::uint64_t key_;
};

TranspileResult TranspileCache::transpile(const QuantumCircuit& circuit,
                                          const arch::Backend& backend,
                                          const TranspileOptions& options) {
  const TranspileOptions opts = detail::resolve_options(options);
  const arch::CouplingMap& coupling = backend.coupling_map();

  // Lower once: the key, the lookup, a replay and a cold compile all read
  // this circuit. An input already in the router basis is read in place.
  QuantumCircuit decomposed;
  const bool in_basis = detail::in_router_basis(circuit);
  if (!in_basis) decomposed = detail::lower_to_router_basis(circuit);
  const QuantumCircuit& lowered = in_basis ? circuit : decomposed;

  const std::uint64_t key = cache_key(lowered, backend, opts);
  const std::uint64_t phash = param_hash(lowered);
  const int basis = static_cast<int>(backend.basis());
  const std::uint64_t chash = calibration_fingerprint(backend, opts);

  // The entry this circuit can be served from, if any. Caller holds mu_.
  auto find_locked = [&]() -> const Entry* {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return nullptr;
    for (const Entry& e : it->second)
      if (e.coupling_qubits == coupling.num_qubits() &&
          e.coupling_edges == coupling.edges() && e.basis == basis &&
          e.calib_hash == chash && options_equal(e.options, opts) &&
          same_structure(e.lowered, lowered))
        return &e;
    return nullptr;
  };

  // Lookup under the lock; copy the winning entry's routing out so the
  // replay (and any cold run) happens without holding it. A miss on a key
  // that another thread is compiling waits for that compile, then looks
  // again; a miss on a free key takes its in-flight slot.
  std::optional<map::MappingResult> routing;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.lookups;
    const Entry* e = find_locked();
    while (!e && in_flight_.count(key)) {
      in_flight_done_.wait(lock);
      e = find_locked();
    }
    if (!e) {
      in_flight_.insert(key);
    } else if (e->param_hash == phash && e->lowered == lowered) {
      ++stats_.exact_hits;
      ++stats_.mapper_runs_saved;
      TranspileResult r = e->result;
      r.cache_hit = true;
      r.cache_exact = true;
      r.mapper_trials = 0;
      return r;
    } else {
      ++stats_.structural_hits;
      ++stats_.mapper_runs_saved;
      routing = e->routing;
    }
  }

  if (routing) {
    // Re-bind each routed op to the parameters of the lowered op it remaps.
    auto& rops = routing->circuit.ops();
    for (std::size_t k = 0; k < rops.size(); ++k) {
      const int src = routing->source_index[k];
      if (src >= 0) rops[k].params = lowered.ops()[src].params;
    }
    TranspileResult r =
        detail::finish_routing(std::move(*routing), backend, opts);
    r.mapper_trials = 0;
    r.cache_hit = true;
    return r;
  }

  const InFlightGuard slot(*this, key);
  if (in_basis) decomposed = circuit;
  return cold_transpile(std::move(decomposed), backend, opts, key, phash);
}

TranspileResult TranspileCache::cold_transpile(QuantumCircuit lowered,
                                               const arch::Backend& backend,
                                               const TranspileOptions& opts,
                                               std::uint64_t key,
                                               std::uint64_t phash) {
  Entry e;
  e.routing =
      detail::make_mapper(opts, backend)->run(lowered, backend.coupling_map());
  e.param_hash = phash;
  e.lowered = std::move(lowered);
  e.coupling_qubits = backend.coupling_map().num_qubits();
  e.coupling_edges = backend.coupling_map().edges();
  e.options = opts;
  e.basis = static_cast<int>(backend.basis());
  e.calib_hash = calibration_fingerprint(backend, opts);
  // The routing stays as the replay template; finishing consumes a copy.
  e.result = detail::finish_routing(e.routing, backend, opts);
  TranspileResult result = e.result;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    ++stats_.insertions;
    while (entries_ >= capacity_ && !order_.empty()) {
      const auto [old_key, old_id] = order_.front();
      order_.erase(order_.begin());
      auto it = buckets_.find(old_key);
      if (it == buckets_.end()) continue;
      auto& vec = it->second;
      for (std::size_t i = 0; i < vec.size(); ++i) {
        if (vec[i].id == old_id) {
          vec.erase(vec.begin() + i);
          --entries_;
          ++stats_.evictions;
          break;
        }
      }
      if (vec.empty()) buckets_.erase(it);
    }
    e.id = next_id_++;
    order_.emplace_back(key, e.id);
    buckets_[key].push_back(std::move(e));
    ++entries_;
  }
  return result;
}

TranspileCacheStats TranspileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t TranspileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

void TranspileCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
  order_.clear();
  entries_ = 0;
  stats_ = TranspileCacheStats{};
}

TranspileResult transpile_cached(const QuantumCircuit& circuit,
                                 const arch::Backend& backend,
                                 const TranspileOptions& options) {
  return TranspileCache::global().transpile(circuit, backend, options);
}

}  // namespace qtc::transpiler
