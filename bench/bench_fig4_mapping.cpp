// E4 / Fig. 4: mapping the Fig. 1 circuit to the QX4 architecture.
//   (a) the straightforward compile: trivial layout + H conjugation on every
//       wrong-way CNOT (what `compile` produced in the paper),
//   (b) the improved mapping with optimization, which removes most of the
//       extra H gates (the competition-winning result of Sec. V-B).
// Both outputs are verified unitary-equivalent to the logical circuit.
//
// Extended with the mapping-portfolio and transpile-cache artifacts: swap
// counts for naive vs 1-trial SABRE vs N-trial SABRE vs A* on each coupling
// map, and cold vs warm compile times for a VQE-style ansatz (the
// hybrid-loop hot path). Artifacts go to stderr; the google-benchmark
// timings go to stdout so CI can capture BENCH_mapping.json.

#include "bench_common.hpp"

#include <chrono>

#include "arch/backend.hpp"
#include "dd/verification.hpp"
#include "map/mapping.hpp"
#include "sim/simulator.hpp"
#include "transpiler/transpile.hpp"
#include "transpiler/transpile_cache.hpp"

namespace {

using namespace qtc;

bool verify(const QuantumCircuit& logical,
            const transpiler::TranspileResult& result) {
  sim::StatevectorSimulator sim;
  const auto mapped = sim.statevector(result.circuit).amplitudes();
  const auto expected = map::embed_state(
      sim.statevector(logical).amplitudes(), result.final_layout, 5);
  return states_equal_up_to_phase(mapped, expected, 1e-8);
}

void print_result(const char* label,
                  const transpiler::TranspileResult& result,
                  const QuantumCircuit& logical) {
  std::fprintf(stderr, "--- %s ---\n%s", label,
               result.circuit.to_string().c_str());
  std::fprintf(
      stderr,
      "gates: %zu total, %d CX, %d H, %d SWAPs inserted; "
      "unitary-equivalent to Fig. 1: %s\n\n",
      result.circuit.size(), result.circuit.count(OpKind::CX),
      result.circuit.count(OpKind::H), result.swaps_inserted,
      verify(logical, result) ? "yes" : "NO");
}

/// A VQE-style ansatz over 8 qubits: rotation layers + entangling CX chain
/// plus long-range pairs — same structure whatever `theta` is, which is
/// exactly what the transpile cache exploits.
QuantumCircuit ansatz8(double theta) {
  QuantumCircuit qc(8);
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < 8; ++q) qc.rz(theta + 0.1 * (q + 8 * layer), q);
    for (int q = 0; q + 1 < 8; ++q) qc.cx(q, q + 1);
    qc.cx(0, 7).cx(2, 5);
  }
  return qc;
}

/// ansatz8's shape with controlled rotations: CRX and CZ are not in the
/// router basis, so every cache lookup lowers the circuit first. A `theta`
/// in [0.1, 0.6] keeps every CRX angle inside (0, pi), away from the ABC
/// network's zero-rotation cases, so the lowering keeps one structure.
QuantumCircuit crx_cz_ansatz8(double theta) {
  QuantumCircuit qc(8);
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q + 1 < 8; ++q)
      qc.crx(theta + 0.1 * (q + 8 * layer), q, q + 1);
    qc.cz(0, 7).cz(2, 5);
  }
  return qc;
}

void print_portfolio_artifact() {
  std::fprintf(stderr,
               "=== Mapping portfolio: swaps by mapper and coupling map ===\n"
               "%-24s %-10s %7s %8s %8s %7s\n",
               "circuit", "device", "naive", "sabre-1", "sabre-8", "astar");
  struct Case {
    const char* name;
    QuantumCircuit qc;
    const char* device;
    arch::CouplingMap cm;
  };
  const Case cases[] = {
      {"fig1 (4q)", bench::fig1_circuit(), "qx4", arch::ibm_qx4()},
      {"random 5q/40g", bench::random_circuit(5, 40, 21), "qx4",
       arch::ibm_qx4()},
      {"random 8q/60g", bench::random_circuit(8, 60, 5), "linear8",
       arch::linear(8)},
      {"random 8q/60g", bench::random_circuit(8, 60, 5), "qx5",
       arch::ibm_qx5()},
  };
  for (const auto& c : cases) {
    const int naive = map::NaiveMapper().run(c.qc, c.cm).swaps_inserted;
    const int sabre1 =
        map::SabreMapper(20, 0.5, 1, 42).run(c.qc, c.cm).swaps_inserted;
    const int sabre8 =
        map::SabreMapper(20, 0.5, 8, 42).run(c.qc, c.cm).swaps_inserted;
    const int astar = map::AStarMapper().run(c.qc, c.cm).swaps_inserted;
    std::fprintf(stderr, "%-24s %-10s %7d %8d %8d %7d%s\n", c.name, c.device,
                 naive, sabre1, sabre8, astar,
                 sabre8 <= sabre1 ? "" : "  <-- REGRESSION");
  }
  std::fprintf(stderr,
               "\nShape check: sabre-8 (the portfolio) never exceeds sabre-1\n"
               "(trial 0 is always in the pool).\n\n");
}

void print_cache_artifact() {
  using clock = std::chrono::steady_clock;
  constexpr int kWarmIters = 32;
  const arch::Backend backend = arch::qx5_backend();
  transpiler::TranspileOptions options;
  options.trials = 8;
  options.seed = 42;

  transpiler::TranspileCache cache;
  const auto t0 = clock::now();
  const auto cold = cache.transpile(ansatz8(0.0), backend, options);
  const auto t1 = clock::now();
  for (int i = 1; i <= kWarmIters; ++i) {
    auto warm = cache.transpile(ansatz8(0.01 * i), backend, options);
    benchmark::DoNotOptimize(warm);
  }
  const auto t2 = clock::now();

  const double cold_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  const double warm_us =
      std::chrono::duration<double, std::micro>(t2 - t1).count() / kWarmIters;
  const auto stats = cache.stats();
  std::fprintf(
      stderr,
      "=== Transpile cache: VQE ansatz (8q, %d params re-bound) on QX5 ===\n"
      "cold compile: %9.1f us  (%d layout trials, %d swaps)\n"
      "warm compile: %9.1f us  (routing replayed, params re-bound)\n"
      "speedup:      %9.1fx\n"
      "cache stats:  %llu lookups, %llu structural hits, %llu misses, "
      "%llu mapper runs saved\n\n",
      3 * 8, cold_us, cold.mapper_trials, cold.swaps_inserted, warm_us,
      cold_us / warm_us,
      static_cast<unsigned long long>(stats.lookups),
      static_cast<unsigned long long>(stats.structural_hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.mapper_runs_saved));
}

void print_artifact() {
  std::fprintf(stderr,
               "=== E4 (Fig. 4): mapping to the QX4 architecture ===\n\n");
  const QuantumCircuit fig1 = bench::fig1_circuit();
  const arch::Backend backend = arch::qx4_backend();

  transpiler::TranspileOptions naive;
  naive.mapper = transpiler::MapperKind::Naive;
  naive.optimization_level = 0;
  const auto a = transpiler::transpile(fig1, backend, naive);
  print_result("Fig. 4a: straightforward mapping (trivial layout, "
               "4-H direction fixes, no optimization)",
               a, fig1);

  transpiler::TranspileOptions improved;
  improved.mapper = transpiler::MapperKind::AStar;
  improved.optimization_level = 2;
  const auto b = transpiler::transpile(fig1, backend, improved);
  print_result("Fig. 4b: improved mapping (A* routing + optimization)", b,
               fig1);

  std::fprintf(
      stderr,
      "Shape check: (b) uses %zu gates vs (a)'s %zu — the improved flow\n"
      "eliminates most direction-fix Hadamards, as in the paper.\n\n",
      b.circuit.size(), a.circuit.size());

  // Independent sign-off with the DD-based equivalence checker (the
  // verification application of DDs the paper cites [22][33]).
  if (a.swaps_inserted == 0) {
    const auto check = dd::check_equivalence_with_layout(
        fig1, a.circuit, a.final_layout.l2p);
    std::fprintf(
        stderr,
        "DD equivalence check of (a) vs Fig. 1: %s (miter: %zu nodes)\n\n",
        check.equivalent ? "EQUIVALENT" : "NOT EQUIVALENT",
        check.miter_nodes);
  }

  print_portfolio_artifact();
  print_cache_artifact();
}

void BM_TranspileNaive(benchmark::State& state) {
  const QuantumCircuit fig1 = bench::fig1_circuit();
  const arch::Backend backend = arch::qx4_backend();
  transpiler::TranspileOptions options;
  options.mapper = transpiler::MapperKind::Naive;
  options.optimization_level = 0;
  for (auto _ : state) {
    auto result = transpiler::transpile(fig1, backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileNaive);

void BM_TranspileSabre(benchmark::State& state) {
  const QuantumCircuit fig1 = bench::fig1_circuit();
  const arch::Backend backend = arch::qx4_backend();
  transpiler::TranspileOptions options;
  options.mapper = transpiler::MapperKind::Sabre;
  options.optimization_level = 2;
  for (auto _ : state) {
    auto result = transpiler::transpile(fig1, backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileSabre);

void BM_TranspileAStar(benchmark::State& state) {
  const QuantumCircuit fig1 = bench::fig1_circuit();
  const arch::Backend backend = arch::qx4_backend();
  transpiler::TranspileOptions options;
  options.mapper = transpiler::MapperKind::AStar;
  options.optimization_level = 2;
  for (auto _ : state) {
    auto result = transpiler::transpile(fig1, backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileAStar);

/// Portfolio width sweep: the parallel trials fan out on the fork-join pool,
/// so wall time grows sublinearly in trials until the pool saturates.
void BM_MapSabrePortfolio(benchmark::State& state) {
  const QuantumCircuit qc = bench::random_circuit(8, 60, 5);
  const arch::CouplingMap cm = arch::ibm_qx5();
  map::SabreMapper mapper(20, 0.5, static_cast<int>(state.range(0)), 42);
  int swaps = 0;
  for (auto _ : state) {
    auto result = mapper.run(qc, cm);
    swaps = result.swaps_inserted;
    benchmark::DoNotOptimize(result);
  }
  state.counters["swaps"] = swaps;
}
BENCHMARK(BM_MapSabrePortfolio)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_TranspileCacheCold(benchmark::State& state) {
  const arch::Backend backend = arch::qx5_backend();
  transpiler::TranspileOptions options;
  options.trials = 8;
  options.seed = 42;
  const QuantumCircuit qc = ansatz8(0.3);
  for (auto _ : state) {
    transpiler::TranspileCache cache;
    auto result = cache.transpile(qc, backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileCacheCold);

void BM_TranspileCacheWarm(benchmark::State& state) {
  const arch::Backend backend = arch::qx5_backend();
  transpiler::TranspileOptions options;
  options.trials = 8;
  options.seed = 42;
  transpiler::TranspileCache cache;
  cache.transpile(ansatz8(0.0), backend, options);
  double theta = 0.0;
  for (auto _ : state) {
    theta += 0.001;  // new params every iteration: always a structural hit
    auto result = cache.transpile(ansatz8(theta), backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileCacheWarm);

/// Warm lookups of a circuit outside the router basis: the cache keys on
/// the lowered circuit, so each call lowers CRX/CZ before the lookup.
/// Arg 0: new angles every iteration (structural hit, routing replayed);
/// arg 1: the same circuit every iteration (exact hit, result copied).
void BM_TranspileCacheWarmLowered(benchmark::State& state) {
  const arch::Backend backend = arch::qx5_backend();
  transpiler::TranspileOptions options;
  options.trials = 8;
  options.seed = 42;
  transpiler::TranspileCache cache;
  cache.transpile(crx_cz_ansatz8(0.3), backend, options);
  const bool exact = state.range(0) == 1;
  int i = 0;
  for (auto _ : state) {
    const double theta = exact ? 0.3 : 0.1 + 0.0005 * (++i % 1000);
    auto result = cache.transpile(crx_cz_ansatz8(theta), backend, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TranspileCacheWarmLowered)->ArgName("exact")->Arg(0)->Arg(1);

}  // namespace

QTC_BENCH_MAIN(print_artifact)
