// Heavy-hex scaling artifact: transpile a fixed suite onto the 127-qubit
// Eagle-class backend with calibration-blind vs fidelity-aware SABRE and pin
// swap count, estimated success, and wall time; then the device-size sweep
// (127 -> 433 -> 1121 qubits) showing the toolchain handles Condor-scale
// maps, with the O(1) directed calibration lookup timed at every size (the
// bug this PR fixed made it O(E), which at 1320 edges dominated scoring).

#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <functional>
#include <utility>

#include "aqua/algorithms.hpp"
#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "ignis/quantum_volume.hpp"
#include "map/noise_aware.hpp"
#include "transpiler/transpile.hpp"

namespace {

using namespace qtc;

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

QuantumCircuit suite_circuit(int rep) {
  const int n = 8 + 2 * rep;
  return bench::random_circuit(n, 5 * n, 9000 + rep);
}

transpiler::TranspileOptions opts_with_fidelity(int fidelity) {
  transpiler::TranspileOptions opts;
  opts.trials = 4;
  opts.seed = 21;
  opts.fidelity = fidelity;
  return opts;
}

void print_artifact() {
  std::fprintf(stderr, "=== Heavy-hex: fidelity-aware vs blind SABRE (127q Eagle) ===\n\n");
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  std::fprintf(stderr, "%8s %12s %12s %14s %14s %10s %10s\n", "circuit", "swaps:blind",
              "swaps:aware", "success:blind", "success:aware", "ms:blind",
              "ms:aware");
  double log_blind = 0, log_aware = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const QuantumCircuit qc = suite_circuit(rep);
    transpiler::TranspileResult blind, aware;
    const double ms0 = time_ms(
        [&] { blind = transpiler::transpile(qc, eagle, opts_with_fidelity(0)); });
    const double ms1 = time_ms(
        [&] { aware = transpiler::transpile(qc, eagle, opts_with_fidelity(1)); });
    const double s0 = map::estimated_success(blind.circuit, eagle);
    const double s1 = map::estimated_success(aware.circuit, eagle);
    log_blind += std::log(s0);
    log_aware += std::log(s1);
    std::fprintf(stderr, "%7dq %12d %12d %14.3e %14.3e %10.1f %10.1f\n",
                qc.num_qubits(), blind.swaps_inserted, aware.swaps_inserted,
                s0, s1, ms0, ms1);
  }
  std::fprintf(stderr, 
      "\nShape check: aggregated log-success %.3f (aware) vs %.3f (blind) —\n"
      "routing around the synthesized bad couplers must win, possibly at the\n"
      "price of extra swaps on individual circuits.\n\n",
      log_aware, log_blind);

  std::fprintf(stderr, "=== Device-size sweep: Eagle 127 / Osprey 433 / Condor 1121 ===\n\n");
  std::fprintf(stderr, "%5s %7s %7s %12s %14s %16s\n", "d", "qubits", "edges",
              "build ms", "transpile ms", "cx_error ns/call");
  for (int d : {7, 13, 21}) {
    arch::Backend backend = arch::heavy_hex_backend(3);  // placeholder init
    const double build_ms =
        time_ms([&] { backend = arch::heavy_hex_backend(d); });
    const QuantumCircuit qc = suite_circuit(1);
    double transpile_ms = 0;
    transpile_ms = time_ms([&] {
      benchmark::DoNotOptimize(
          transpiler::transpile(qc, backend, opts_with_fidelity(1))
              .swaps_inserted);
    });
    const auto& edges = backend.coupling_map().edges();
    double acc = 0;
    const int reps = 200000 / static_cast<int>(edges.size()) + 1;
    const double lookup_ms = time_ms([&] {
      for (int r = 0; r < reps; ++r)
        for (const auto& [a, b] : edges) acc += backend.cx_error(b, a);
    });
    benchmark::DoNotOptimize(acc);
    std::fprintf(stderr, "%5d %7d %7zu %12.1f %14.1f %16.2f\n", d,
                backend.num_qubits(), edges.size(), build_ms, transpile_ms,
                lookup_ms * 1e6 / (static_cast<double>(reps) * edges.size()));
  }
  std::fprintf(stderr, 
      "\nShape check: per-call lookup cost is flat across device sizes\n"
      "(direction-aware O(1) edge-index table), and the 1121-qubit Condor\n"
      "map transpiles in CI-budget time.\n\n");
}

void BM_HeavyHexBuild(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const arch::CouplingMap cm = arch::heavy_hex(d);
    benchmark::DoNotOptimize(cm.num_qubits());
  }
}
BENCHMARK(BM_HeavyHexBuild)->Arg(7)->Arg(13)->Arg(21);

void BM_TranspileEagle(benchmark::State& state) {
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  const QuantumCircuit qc = suite_circuit(1);
  const auto opts = opts_with_fidelity(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        transpiler::transpile(qc, eagle, opts).swaps_inserted);
  }
}
BENCHMARK(BM_TranspileEagle)->Arg(0)->Arg(1);

void BM_TranspileCondor(benchmark::State& state) {
  const arch::Backend condor = arch::heavy_hex_backend(21);
  const QuantumCircuit qc = suite_circuit(0);
  const auto opts = opts_with_fidelity(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        transpiler::transpile(qc, condor, opts).swaps_inserted);
  }
}
BENCHMARK(BM_TranspileCondor);

void BM_DirectedCxErrorLookup(benchmark::State& state) {
  const arch::Backend backend =
      arch::heavy_hex_backend(static_cast<int>(state.range(0)));
  const auto& edges = backend.coupling_map().edges();
  for (auto _ : state) {
    double acc = 0;
    // Reverse orientation: the worst case (exact-direction miss + fallback).
    for (const auto& [a, b] : edges) acc += backend.cx_error(b, a);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DirectedCxErrorLookup)->Arg(7)->Arg(21);

/// The model is memoized per device, so a cold build needs a calibration
/// change on every call: alternate two that differ in one cx_error bit.
void BM_FidelityModelBuild(benchmark::State& state) {
  const arch::Backend a =
      arch::heavy_hex_backend(static_cast<int>(state.range(0)));
  arch::Calibration cal = a.calibration();
  cal.cx_error[0] = std::nextafter(cal.cx_error[0], 1.0);
  const arch::Backend b(a.coupling_map(), cal, a.basis());
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    const auto m = map::shared_fidelity_model(flip ? b : a);
    benchmark::DoNotOptimize(m->dist.size());
  }
}
BENCHMARK(BM_FidelityModelBuild)->Arg(7)->Arg(13);

/// What every SabreMapper run after the first pays: an exact key compare.
void BM_FidelityModelWarm(benchmark::State& state) {
  const arch::Backend backend =
      arch::heavy_hex_backend(static_cast<int>(state.range(0)));
  map::shared_fidelity_model(backend);
  for (auto _ : state) {
    const auto m = map::shared_fidelity_model(backend);
    benchmark::DoNotOptimize(m->dist.size());
  }
}
BENCHMARK(BM_FidelityModelWarm)->Arg(7)->Arg(13);

/// Calibration-aware placement on Eagle for two eagle-compile classes:
/// arg 0 = random-32 (5 gates per qubit), arg 1 = QFT-20.
void BM_NoiseAwareLayout(benchmark::State& state) {
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  const QuantumCircuit qc = state.range(0) == 0
                                ? bench::random_circuit(32, 160, 17)
                                : transpiler::detail::lower_to_router_basis(
                                      aqua::qft(20));
  for (auto _ : state) {
    const map::Layout layout = map::noise_aware_layout(qc, eagle);
    benchmark::DoNotOptimize(layout.l2p.data());
  }
}
BENCHMARK(BM_NoiseAwareLayout)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Mirrored random Clifford with short-range CX (the clifford-scale shape):
/// two layers of H/S/Sdg and CX to a qubit at most three places on, then
/// their inverse.
QuantumCircuit mirrored_clifford(int n, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit c(n);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < n; ++q) {
      switch (rng.index(4)) {
        case 0: c.h(q); break;
        case 1: c.s(q); break;
        case 2: c.sdg(q); break;
        default: break;
      }
    }
    for (int q = layer % 2; q + 1 < n; q += 2) {
      if (rng.index(2)) continue;
      c.cx(q, std::min(n - 1, q + 1 + static_cast<int>(rng.index(3))));
    }
  }
  QuantumCircuit mirrored = c;
  mirrored.compose(c.inverse());
  return mirrored;
}

/// The routing layer alone: one SabreMapper::run (4-trial portfolio) on an
/// already-lowered circuit. arg 0 = GHZ-400 and arg 1 = mirrored 300-qubit
/// Clifford on the 433-qubit heavy-hex map, calibration-blind; arg 2 =
/// QV-14 on Eagle, fidelity-aware.
void BM_SabreRoute(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const arch::Backend backend = arch::heavy_hex_backend(which == 2 ? 7 : 13);
  QuantumCircuit qc;
  if (which == 0) {
    qc = QuantumCircuit(400);
    qc.h(0);
    for (int q = 0; q + 1 < 400; ++q) qc.cx(q, q + 1);
  } else if (which == 1) {
    qc = mirrored_clifford(300, 5);
  } else {
    Rng rng(14);
    qc = ignis::qv_model_circuit(14, rng);
  }
  qc = transpiler::detail::lower_to_router_basis(qc);
  const auto mapper =
      map::SabreMapper(20, 0.5, 4, 21).with_fidelity(&backend, which == 2);
  for (auto _ : state) {
    const map::MappingResult r = mapper.run(qc, backend.coupling_map());
    benchmark::DoNotOptimize(r.swaps_inserted);
  }
}
BENCHMARK(BM_SabreRoute)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// The post-routing pipeline alone (SWAP lowering, direction fixing,
/// cancellation, the ECR/RZ/SX rewrite, the final coupling check) on a
/// routed Eagle circuit, default optimization level, fidelity-aware routing
/// done once outside the timed loop: arg 0 = QV-14, arg 1 = QFT-20. Each
/// iteration hands finish_pipeline a fresh copy of the routed circuit; the
/// copy is not timed.
void BM_FinishPipeline(benchmark::State& state) {
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  QuantumCircuit qc;
  if (state.range(0) == 0) {
    Rng rng(14);
    qc = ignis::qv_model_circuit(14, rng);
  } else {
    qc = aqua::qft(20);
  }
  const transpiler::TranspileOptions opts =
      transpiler::detail::resolve_options(opts_with_fidelity(1));
  const map::MappingResult routed =
      transpiler::detail::make_mapper(opts, eagle)
          ->run(transpiler::detail::lower_to_router_basis(qc),
                eagle.coupling_map());
  for (auto _ : state) {
    state.PauseTiming();
    QuantumCircuit input = routed.circuit;
    state.ResumeTiming();
    const QuantumCircuit out = transpiler::detail::finish_pipeline(
        std::move(input), routed.swaps_inserted > 0, eagle, opts);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_FinishPipeline)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Op construction alone: append 19,800 fresh RZs (about the op count of a
/// QFT-20 lowered onto Eagle) to an empty 127-qubit circuit, each built from
/// its qubit and angle the way the basis rewrites build theirs.
void BM_AppendFreshOps(benchmark::State& state) {
  constexpr int kOps = 19800;
  for (auto _ : state) {
    QuantumCircuit c(127);
    for (int i = 0; i < kOps; ++i) c.rz(0.001 * i, i % 127);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_AppendFreshOps)->Unit(benchmark::kMicrosecond);

}  // namespace

QTC_BENCH_MAIN(print_artifact)
