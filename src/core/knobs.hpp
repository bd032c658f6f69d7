#pragma once
// The runtime knob table: every QTC_* environment variable the library
// reads, one row each, with its type, default and range, plus the one
// override API the public setters (parallel::set_num_threads,
// sim::set_fusion_enabled, ...) forward to.
//
// A lookup (get) returns the programmatic override if one is set, else the
// parsed environment value, else the default. The environment is read on
// every lookup, so a variable changed at run time takes effect on the next
// call. A lookup takes no lock and allocates nothing.
//
// One parse rule covers every knob:
//   * unset, empty, or not wholly parseable -> default;
//   * "0"/"off"/"false"/"no" in any case -> false, or 0 for integer knobs;
//     any other text is true for a flag;
//   * integers are base 10, except U64 knobs, which take base 0 (decimal,
//     0x hex, 0 octal); a value that does not fit 64 bits is not parseable;
//   * below lo -> default, above hi -> hi.

#include <cstddef>
#include <cstdint>

namespace qtc::knobs {

enum class Knob : std::uint8_t {
  NumThreads,
  Simd,
  Fusion,
  FusionMaxQubits,
  Dispatch,
  DdGcThreshold,
  DdCtBits,
  MapTrials,
  MapSeed,
  MapFidelity,
  ServiceWorkers,
  ServiceQueueCap,
  ServiceResultsCap,
};

enum class Type : std::uint8_t { Flag, Int, U64 };

struct Spec {
  Knob knob;
  const char* name;
  Type type;
  std::uint64_t def;  // may lie outside [lo, hi]: 0 means "derived" below
  std::uint64_t lo;
  std::uint64_t hi;
};

// Rows are indexed by Knob. A default of 0 on QTC_NUM_THREADS and
// QTC_SERVICE_WORKERS means "not configured": the caller derives the value
// (hardware concurrency, parallel::num_threads()). QTC_MAP_SEED stops one
// short of 2^64 - 1, which map::kMapSeedFromEnv reserves.
inline constexpr Spec kTable[] = {
    {Knob::NumThreads, "QTC_NUM_THREADS", Type::Int, 0, 1, 256},
    {Knob::Simd, "QTC_SIMD", Type::Flag, 1, 0, 1},
    {Knob::Fusion, "QTC_FUSION", Type::Flag, 1, 0, 1},
    {Knob::FusionMaxQubits, "QTC_FUSION_MAX_QUBITS", Type::Int, 3, 1, 6},
    {Knob::Dispatch, "QTC_DISPATCH", Type::Flag, 1, 0, 1},
    {Knob::DdGcThreshold, "QTC_DD_GC_THRESHOLD", Type::Int, 131072, 0,
     std::uint64_t{1} << 62},
    {Knob::DdCtBits, "QTC_DD_CT_BITS", Type::Int, 15, 4, 20},
    {Knob::MapTrials, "QTC_MAP_TRIALS", Type::Int, 4, 1, 256},
    {Knob::MapSeed, "QTC_MAP_SEED", Type::U64, 0xC0FFEE, 0,
     ~std::uint64_t{0} - 1},
    {Knob::MapFidelity, "QTC_MAP_FIDELITY", Type::Flag, 0, 0, 1},
    {Knob::ServiceWorkers, "QTC_SERVICE_WORKERS", Type::Int, 0, 1, 256},
    {Knob::ServiceQueueCap, "QTC_SERVICE_QUEUE_CAP", Type::Int, 64, 1,
     1 << 20},
    {Knob::ServiceResultsCap, "QTC_SERVICE_RESULTS_CAP", Type::Int, 1024, 1,
     1 << 24},
};

inline constexpr std::size_t kNumKnobs = sizeof(kTable) / sizeof(kTable[0]);

constexpr bool table_is_indexed_by_knob() {
  for (std::size_t i = 0; i < kNumKnobs; ++i)
    if (static_cast<std::size_t>(kTable[i].knob) != i) return false;
  return true;
}
static_assert(table_is_indexed_by_knob(), "kTable rows must follow Knob");

constexpr const Spec& spec(Knob k) {
  return kTable[static_cast<std::size_t>(k)];
}

/// Apply the parse rule to `text` (nullptr = unset) for knob `k`.
std::uint64_t parse(Knob k, const char* text);

/// Resolved value: the override if set, else the environment, else the
/// default.
std::uint64_t get(Knob k);
inline bool flag(Knob k) { return get(k) != 0; }

/// Override the environment: flags store value != 0, numbers clamp to
/// [lo, hi]. clear() restores the environment/default.
void set(Knob k, std::uint64_t value);
void clear(Knob k);

}  // namespace qtc::knobs
