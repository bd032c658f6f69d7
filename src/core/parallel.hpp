#pragma once
// Shared-memory parallel execution engine: a lazily started thread pool with
// a fork-join parallel_for and a deterministic blocked reduction. This is the
// substrate the array simulator's gate kernels, the shot-level executor, the
// Monte-Carlo trajectory sampler and the density-matrix superoperator blocks
// all run on, mirroring Aer's OpenMP layering (statevector update
// parallelism below, shot/trajectory parallelism above) without an OpenMP
// dependency. Nested regions run inline, so whichever layer forks first owns
// the pool and the layers below fall back to serial execution.
//
// Determinism contract: every primitive here produces bitwise-identical
// results regardless of the configured thread count.
//   * parallel_for bodies write disjoint index ranges, so scheduling cannot
//     change the outcome.
//   * parallel_reduce always sums fixed-size blocks (kReduceBlock items) and
//     combines the per-block partials in index order, so the floating-point
//     summation tree is the same whether 1 or 64 threads ran the blocks.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.hpp"

namespace qtc::parallel {

/// Items below this count run inline on the caller (fork-join overhead would
/// dominate). Public so callers/tests can reason about the serial fallback.
inline constexpr std::uint64_t kSerialCutoff = std::uint64_t{1} << 12;

/// Fixed reduction block size. Partial sums are always formed per block of
/// this many items, independent of thread count (see determinism contract).
inline constexpr std::uint64_t kReduceBlock = std::uint64_t{1} << 14;

/// Worker threads to use: the programmatic override if set, else the
/// QTC_NUM_THREADS environment variable, else std::thread::hardware_concurrency.
int num_threads();

/// Override the thread count (n >= 1, clamped to 256); 0 restores the
/// env/hardware default.
/// Takes effect on the next parallel call — used by tests and benchmarks to
/// compare serial and parallel execution in one process.
void set_num_threads(int n);

/// Run body(chunk_begin, chunk_end) over disjoint chunks covering
/// [begin, end). Chunks are claimed dynamically; the caller participates.
/// Runs inline when fewer than `serial_cutoff` items, when only one thread is
/// configured, or when already inside a parallel region (no nested pools).
/// Exceptions thrown by the body are rethrown on the caller (first one wins).
void parallel_for(
    std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t)>& body,
    std::uint64_t serial_cutoff = kSerialCutoff);

/// Deterministic sum over [begin, end): block_sum(lo, hi) must return the sum
/// of its half-open item range. Blocks are kReduceBlock items wide and their
/// partials are combined in index order whatever the thread count.
double parallel_reduce(
    std::uint64_t begin, std::uint64_t end,
    const std::function<double(std::uint64_t, std::uint64_t)>& block_sum);

/// Complex-valued variant of parallel_reduce with the same blocking scheme.
cplx parallel_reduce_cplx(
    std::uint64_t begin, std::uint64_t end,
    const std::function<cplx(std::uint64_t, std::uint64_t)>& block_sum);

}  // namespace qtc::parallel
