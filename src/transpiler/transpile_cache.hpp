#pragma once
// Transpile cache for the hybrid-loop hot path (VQE/QAOA, Sec. III/V-B):
// variational loops re-compile the *same ansatz structure* with different
// rotation angles on every iteration, so the expensive stage — layout +
// routing — is recomputed for an answer that cannot change (routing depends
// only on which qubits each gate touches, never on parameter values).
//
// The cache keys on what the router sees: the output of
// detail::lower_to_router_basis. A cold transpile is a pure function of that
// lowered circuit, the backend and the resolved options, so the key is the
// lowered circuit's structural fingerprint (gate kinds, qubits, clbits,
// conditions, register shapes — parameters excluded), the coupling map and
// the options. Two warm paths, both exact by construction:
//   * exact hit      — the lowered circuit is bitwise identical (params
//                      included) to a cached cold run's: the stored
//                      TranspileResult is returned outright.
//   * structural hit — same lowered structure, different parameters: the
//                      cached routing is replayed (each routed op re-binds
//                      the parameters of the lowered op it remaps, via
//                      MappingResult::source_index) and only the cheap
//                      post-mapping passes re-run. Zero mapper runs.
// The lowering runs before the lookup (an input already in the router basis
// is read in place). Where it depends on a parameter value (the
// controlled-unitary ABC network drops rotations below 1e-12, so crx(0)
// lowers to fewer ops than crx(0.7)), the two lowerings are two keys, each
// with its own entry and its own in-flight slot.
//
// Single flight: concurrent misses on one key share one cold compile. The
// first miss takes the key's in-flight slot and compiles outside the lock;
// any other thread whose lookup misses while the slot is taken waits, then
// repeats its lookup and replays the fresh entry warm. N concurrent
// same-structure misses cost one mapper run and one cache entry, whoever
// calls (exec::execute, the execution service, a hybrid loop). A waiter
// that still finds no match (a hash collision, or the entry's eviction
// before it woke) compiles cold itself, so waiting never changes a result.
//
// Deadlock invariant: the compiling thread's SabreMapper::run enters the
// fork-join pool (core/parallel.hpp), whose run mutex admits one region at
// a time. A waiter must therefore never hold that region, i.e. no
// transpile_cached / TranspileCache::transpile / exec::execute call may run
// inside a parallel::parallel_for body. None does: the pool's bodies are
// engine kernels and SABRE trials, which route but never transpile.
//
// The cache is thread-safe and bounded (FIFO eviction past `capacity`).
// Explicitly constructed instances are independent of the global one.
// The structural fingerprint itself is qbin::structural_digest: the QBIN
// structural encoder streamed into a hash (one pass, no allocation,
// byte-compatible with encoded payloads; see qbin/qbin.hpp).

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "transpiler/transpile.hpp"

namespace qtc::transpiler {

struct TranspileCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;       // params matched, result copied
  std::uint64_t structural_hits = 0;  // routing replayed, params re-bound
  std::uint64_t misses = 0;           // cold transpile, one mapper run
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t mapper_runs_saved = 0;

  std::uint64_t hits() const { return exact_hits + structural_hits; }
};

class TranspileCache {
 public:
  TranspileCache() = default;
  explicit TranspileCache(std::size_t capacity) : capacity_(capacity) {}

  /// The process-wide cache exec::execute routes through.
  static TranspileCache& global();

  /// Like transpiler::transpile, but served from the cache when possible.
  /// Identical output to a direct transpile with the same effective options:
  /// the mapper is deterministic and parameter-independent, so a replayed
  /// routing is bitwise the one a cold run would compute. Blocks while
  /// another thread compiles the same key cold (see "Single flight").
  TranspileResult transpile(const QuantumCircuit& circuit,
                            const arch::Backend& backend,
                            const TranspileOptions& options = {});

  TranspileCacheStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t id = 0;          // insertion order, for FIFO eviction
    std::uint64_t param_hash = 0;  // params of `lowered`
    QuantumCircuit lowered;        // cold run's lower_to_router_basis output
    map::MappingResult routing;    // mapper output: the replay template
    TranspileResult result;        // finished cold result, for exact hits
    // Key material re-checked on lookup (hashes alone could collide).
    int coupling_qubits = 0;
    std::vector<std::pair<int, int>> coupling_edges;
    TranspileOptions options;      // resolved
    // Basis changes the finished circuit; calibration changes the routing
    // itself when fidelity-aware mapping is on (calib_hash is 0 otherwise).
    int basis = 0;
    std::uint64_t calib_hash = 0;
  };

  TranspileResult cold_transpile(QuantumCircuit lowered,
                                 const arch::Backend& backend,
                                 const TranspileOptions& opts,
                                 std::uint64_t key, std::uint64_t param_hash);

  /// Frees a key's in-flight slot and wakes its waiters, also when the
  /// cold compile throws (defined in transpile_cache.cpp).
  class InFlightGuard;

  mutable std::mutex mu_;
  std::condition_variable in_flight_done_;
  std::unordered_set<std::uint64_t> in_flight_;  // keys compiling cold
  std::size_t capacity_ = 256;
  std::uint64_t next_id_ = 0;
  std::size_t entries_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order_;  // (key, id)
  TranspileCacheStats stats_;
};

/// TranspileCache::global().transpile(...): the call exec::execute /
/// arch::Backend::run go through, so every hybrid loop re-executing a
/// same-structure circuit pays the mapper once. transpiler::transpile stays
/// the uncached cold compile.
TranspileResult transpile_cached(const QuantumCircuit& circuit,
                                 const arch::Backend& backend,
                                 const TranspileOptions& options = {});

}  // namespace qtc::transpiler
