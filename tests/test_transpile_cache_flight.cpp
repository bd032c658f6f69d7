// Single flight in the transpile cache (transpiler/transpile_cache.hpp):
// concurrent misses on one key cost one mapper run and one cache entry,
// also when the key is a new lowering of a cached input structure; every
// caller still gets the result a cold compile computes; and a compile that
// throws wakes every thread waiting on it. Labelled `parallel` so the TSan
// preset race-checks the in-flight slot.

#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "map/mapping.hpp"
#include "transpiler/transpile.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::transpiler {
namespace {

/// Random 32-qubit circuit whose structure depends only on `seed`; `shift`
/// moves every rotation angle, so all shifts share one cache key.
QuantumCircuit random_32(std::uint64_t seed, double shift) {
  constexpr int n = 32;
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < 6 * n; ++g) {
    const int a = static_cast<int>(rng.index(n));
    switch (rng.index(4)) {
      case 0:
        qc.h(a);
        break;
      case 1:
        qc.ry(rng.uniform(-PI, PI) + shift, a);
        break;
      default:
        qc.cx(a, (a + 1 + static_cast<int>(rng.index(n - 1))) % n);
    }
  }
  return qc;
}

TranspileOptions fidelity_options() {
  TranspileOptions opt;
  opt.trials = 4;
  opt.seed = 11;
  opt.fidelity = 1;
  return opt;
}

TEST(TranspileCache, ConcurrentMissesShareOneMapperRun) {
  constexpr int kThreads = 8;
  const arch::Backend device = arch::heavy_hex_backend(7);
  TranspileCache cache;
  std::vector<std::optional<TranspileResult>> results(kThreads);
  std::latch start(kThreads);

  const std::uint64_t runs_before = map::mapper_run_count();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] =
          cache.transpile(random_32(5, 0.1 * t), device, fidelity_options());
    });
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(map::mapper_run_count(), runs_before + 1)
      << "concurrent misses on one structure each ran the mapper";
  const TranspileCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits(), static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);

  int cold = 0;
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(results[t].has_value());
    const TranspileResult& r = *results[t];
    cold += r.cache_hit ? 0 : 1;
    const TranspileResult direct =
        transpile(random_32(5, 0.1 * t), device, fidelity_options());
    EXPECT_EQ(r.circuit, direct.circuit);  // op for op
    EXPECT_EQ(r.initial_layout, direct.initial_layout);
    EXPECT_EQ(r.final_layout, direct.final_layout);
    EXPECT_EQ(r.swaps_inserted, direct.swaps_inserted);
  }
  EXPECT_EQ(cold, 1);
}

TEST(TranspileCache, ConcurrentCallsOnANewLoweringShareOneMapperRun) {
  // crx(0) has the input structure of a cached crx(0.7) but lowers to fewer
  // ops (the ABC network drops zero rotations), so it is its own key: the
  // racing threads share that key's single cold compile.
  constexpr int kThreads = 8;
  const arch::Backend qx4 = arch::qx4_backend();
  auto crx_circuit = [](double angle) {
    QuantumCircuit qc(5);
    qc.h(0);
    qc.gate(OpKind::CRX, {0, 1}, {angle});
    qc.cx(1, 2);
    return qc;
  };
  TranspileOptions opt;
  opt.trials = 2;
  opt.seed = 42;
  TranspileCache cache;
  cache.transpile(crx_circuit(0.7), qx4, opt);
  std::vector<std::optional<TranspileResult>> results(kThreads);
  std::latch start(kThreads);

  const std::uint64_t runs_before = map::mapper_run_count();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = cache.transpile(crx_circuit(0.0), qx4, opt);
    });
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(map::mapper_run_count(), runs_before + 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  const TranspileResult direct = transpile(crx_circuit(0.0), qx4, opt);
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(results[t].has_value());
    EXPECT_EQ(results[t]->circuit, direct.circuit);  // op for op
    EXPECT_EQ(results[t]->initial_layout, direct.initial_layout);
    EXPECT_EQ(results[t]->final_layout, direct.final_layout);
  }
}

TEST(TranspileCache, FailedCompileWakesEveryWaiter) {
  constexpr int kThreads = 4;
  const arch::Backend qx4 = arch::qx4_backend();  // 5 qubits
  QuantumCircuit too_wide(7);
  for (int q = 0; q + 1 < 7; ++q) too_wide.cx(q, q + 1);
  TranspileCache cache;
  std::latch start(kThreads);
  std::atomic<int> threw{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        cache.transpile(too_wide, qx4);
      } catch (const std::exception&) {
        threw.fetch_add(1);
      }
    });
  for (std::thread& th : threads) th.join();  // a lost wake-up hangs here

  EXPECT_EQ(threw.load(), kThreads);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  // The failed compiles left no slot taken: a valid call compiles cold.
  QuantumCircuit fits(5);
  for (int q = 0; q + 1 < 5; ++q) fits.cx(q, q + 1);
  const TranspileResult r = cache.transpile(fits, qx4);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(r.circuit, transpile(fits, qx4).circuit);
}

}  // namespace
}  // namespace qtc::transpiler
