#pragma once
// Transpile cache for the hybrid-loop hot path (VQE/QAOA, Sec. III/V-B):
// variational loops re-compile the *same ansatz structure* with different
// rotation angles on every iteration, so the expensive stage — layout +
// routing — is recomputed for an answer that cannot change (routing depends
// only on which qubits each gate touches, never on parameter values).
//
// The cache keys on a structural fingerprint of the circuit (gate kinds,
// qubits, clbits, conditions, register shapes — parameters excluded), the
// coupling map, and the effective transpile options. Two warm paths:
//   * exact hit      — the input is bitwise identical (params included) to a
//                      cached cold run: the stored TranspileResult is
//                      returned outright.
//   * structural hit — same structure, different parameters: the cached
//                      routing is replayed onto the new circuit (each routed
//                      op re-binds the parameters of the source op it
//                      remaps, via MappingResult::source_index) and only the
//                      cheap post-mapping passes re-run. Zero mapper runs.
// Gate decomposition can emit angle-dependent structures (controlled-unitary
// ABC rotations vanish at zero angle), so a structural hit re-verifies the
// lowered circuit's structure and falls back to a cold run on divergence.
//
// Knobs: QTC_TRANSPILE_CACHE (on by default; "0"/"off"/"false"/"no"
// disables the global cache used by exec::execute), programmatic override
// TranspileCache::set_enabled. Explicitly constructed instances always work.
// The cache is thread-safe and bounded (FIFO eviction past `capacity`).
// The structural fingerprint itself is qbin::structural_digest: the QBIN
// structural encoder streamed into a hash (one pass, no allocation,
// byte-compatible with encoded payloads; see qbin/qbin.hpp).

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "transpiler/transpile.hpp"

namespace qtc::transpiler {

struct TranspileCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;       // params matched, result copied
  std::uint64_t structural_hits = 0;  // routing replayed, params re-bound
  std::uint64_t misses = 0;           // cold transpile (includes fallbacks)
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t mapper_runs_saved = 0;

  std::uint64_t hits() const { return exact_hits + structural_hits; }
};

class TranspileCache {
 public:
  TranspileCache() = default;
  explicit TranspileCache(std::size_t capacity) : capacity_(capacity) {}

  /// The process-wide cache exec::execute routes through (when enabled()).
  static TranspileCache& global();

  /// Effective on/off of the *global* cache: the programmatic override if
  /// set, else QTC_TRANSPILE_CACHE, else on.
  static bool enabled();
  /// Force the global cache on (1) / off (0); -1 restores env/default.
  static void set_enabled(int enabled);

  /// Like transpiler::transpile, but served from the cache when possible.
  /// Identical output to a direct transpile with the same effective options:
  /// the mapper is deterministic and parameter-independent, so a replayed
  /// routing is bitwise the one a cold run would compute.
  TranspileResult transpile(const QuantumCircuit& circuit,
                            const arch::Backend& backend,
                            const TranspileOptions& options = {});

  TranspileCacheStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t id = 0;          // insertion order, for FIFO eviction
    std::uint64_t param_hash = 0;  // params of the cold run's input
    QuantumCircuit input;          // cold run input, params included
    QuantumCircuit lowered;        // after lower_to_router_basis
    QuantumCircuit routed;         // mapper output template
    std::vector<int> source_index; // routed op -> lowered op (-1 = SWAP)
    map::Layout initial;
    map::Layout final_layout;
    int swaps = 0;
    int mapper_trials = 0;
    int best_trial = 0;
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

  TranspileResult cold_transpile(const QuantumCircuit& circuit,
                                 const arch::Backend& backend,
                                 const TranspileOptions& opts,
                                 std::uint64_t key, std::uint64_t param_hash);

  mutable std::mutex mu_;
  std::size_t capacity_ = 256;
  std::uint64_t next_id_ = 0;
  std::size_t entries_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order_;  // (key, id)
  TranspileCacheStats stats_;
};

/// Structural batching key: the fingerprint the cache buckets on — circuit
/// structure (gate kinds/qubits/clbits/conditions/registers, parameter
/// values excluded), the backend's coupling map, and the resolved transpile
/// options. Jobs with equal keys share a cache entry, so running them back
/// to back costs one mapper run; the execution service groups queued jobs by
/// this key. Purely advisory — a (vanishingly unlikely) hash collision only
/// batches unrelated jobs together, it cannot change any job's result.
std::uint64_t structural_cache_key(const QuantumCircuit& circuit,
                                   const arch::Backend& backend,
                                   const TranspileOptions& options = {});

/// The same batching key computed from a circuit-structural fingerprint —
/// as produced by qbin::structural_digest, either from a circuit or read
/// straight off an encoded QBIN payload's structural prefix — instead of a
/// circuit object. structural_cache_key(c, ...) ==
/// structural_cache_key_digest(qbin::structural_digest(c), ...), which is
/// what lets the execution service batch pre-encoded payload submissions
/// with circuit submissions without decoding the payload first.
std::uint64_t structural_cache_key_digest(std::uint64_t structural_digest,
                                          const arch::Backend& backend,
                                          const TranspileOptions& options = {});

/// Transpile through the global cache when it is enabled, else directly.
/// This is the call exec::execute / arch::Backend::run go through, so every
/// hybrid loop re-executing a same-structure circuit pays the mapper once.
TranspileResult transpile_cached(const QuantumCircuit& circuit,
                                 const arch::Backend& backend,
                                 const TranspileOptions& options = {});

}  // namespace qtc::transpiler
