// FidelityModel sharing: map::shared_fidelity_model builds each device's
// routing cost model once and hands every caller the same immutable
// instance. These tests pin the sharing across mapper runs, the exact key
// (one flipped cx_error bit rebuilds, and the rebuild equals a cold build
// bit for bit), the single entry, and concurrent callers.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "arch/backend.hpp"
#include "map/mapping.hpp"
#include "map/noise_aware.hpp"

namespace qtc::map {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

bool same_model(const FidelityModel& a, const FidelityModel& b) {
  return a.num_physical == b.num_physical && same_bits(a.dist, b.dist) &&
         same_bits(a.edge_cost, b.edge_cost);
}

/// `backend` with the lowest mantissa bit of one cx_error entry flipped.
arch::Backend flipped(const arch::Backend& backend, std::size_t edge) {
  arch::Calibration cal = backend.calibration();
  cal.cx_error[edge] = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(cal.cx_error[edge]) ^ 1);
  return arch::Backend(backend.coupling_map(), cal, backend.basis());
}

QuantumCircuit ladder(int n) {
  QuantumCircuit qc(n);
  for (int rep = 0; rep < 3; ++rep)
    for (int q = 0; q + 1 < n; ++q)
      qc.cx(q, (q + 1 + (q * 5 + rep) % (n - 1)) % n);
  return qc;
}

TEST(FidelityModelCache, RunsOnOneBackendShareOneModel) {
  const arch::Backend backend = arch::heavy_hex_backend(5);
  const auto first = shared_fidelity_model(backend);
  SabreMapper mapper(20, 0.5, 4, 3);
  mapper.with_fidelity(&backend);
  mapper.run(ladder(10), backend.coupling_map());
  mapper.run(ladder(12), backend.coupling_map());
  EXPECT_EQ(shared_fidelity_model(backend), first);
  // An equal device in another Backend object is the same key.
  const arch::Backend copy = backend;
  EXPECT_EQ(shared_fidelity_model(copy), first);
  EXPECT_TRUE(same_model(*first, make_fidelity_model(backend)));
}

TEST(FidelityModelCache, OneFlippedCxErrorBitRebuilds) {
  const arch::Backend backend = arch::heavy_hex_backend(5);
  const arch::Backend other = flipped(backend, 7);
  const auto first = shared_fidelity_model(backend);
  const auto second = shared_fidelity_model(other);
  EXPECT_NE(second, first);
  EXPECT_TRUE(same_model(*second, make_fidelity_model(other)));
  // One entry: going back rebuilds, equal to the first build.
  const auto third = shared_fidelity_model(backend);
  EXPECT_NE(third, second);
  EXPECT_TRUE(same_model(*third, *first));
  // The replaced models stay valid for their holders.
  EXPECT_TRUE(same_model(*second, make_fidelity_model(other)));
}

TEST(FidelityModelCache, ConcurrentCallersAgree) {
  const arch::Backend a = arch::heavy_hex_backend(3);
  const arch::Backend b = flipped(a, 0);
  const FidelityModel want_a = make_fidelity_model(a);
  const FidelityModel want_b = make_fidelity_model(b);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        // Threads 0 and 1 stay on one device; 2 and 3 alternate, so hits,
        // misses and replacements interleave.
        const bool use_b = t < 2 ? t == 1 : (i + t) % 2 == 0;
        const auto got = shared_fidelity_model(use_b ? b : a);
        if (!same_model(*got, use_b ? want_b : want_a)) ++mismatches[t];
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace qtc::map
