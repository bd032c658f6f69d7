// SIMD kernel-layer benchmark + engine-dispatch routing artifact.
//
// The artifact (stderr) has two parts. First, per-kernel scalar-vs-vector
// ns/amplitude on a 2^20 state for the hot statevector kernels — the honest
// measure of what the AVX2/NEON paths buy on this host (the two modes are
// bitwise-identical, so this is a pure speed comparison). Second, the
// dispatcher's routing table over a representative circuit suite: which
// engine each circuit is sent to and why.
//
//   ./bench_simd --benchmark_format=json > BENCH_simd.json
// is how CI tracks the kernel trajectory; stdout stays machine-readable.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/cpu_features.hpp"
#include "core/matrix.hpp"
#include "sim/dispatch.hpp"
#include "sim/fusion.hpp"
#include "sim/simd.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace {

using qtc::cplx;
using qtc::Matrix;
using qtc::QuantumCircuit;
using qtc::bench::random_circuit;
namespace sim = qtc::sim;

constexpr int kBenchQubits = 20;  // 2^20 amplitudes = 16 MiB

sim::Statevector bench_state() {
  sim::Statevector sv(kBenchQubits);
  // Spread mass so the kernels chew on non-trivial values everywhere.
  for (int q = 0; q < kBenchQubits; ++q)
    sv.apply_1q({0.6, 0.0}, {0.0, 0.8}, {0.0, -0.8}, {0.6, 0.0}, q);
  return sv;
}

/// One timed application of `body` on a fresh state, in ns per amplitude.
template <typename Body>
double time_kernel_ns_per_amp(const Body& body, int simd) {
  // A state resolves its kernel ISA when it is built, so set the knob first.
  sim::simd::set_simd_enabled(simd);
  sim::Statevector sv = bench_state();
  // Warm-up pass (page the state in), then the timed passes.
  body(sv);
  constexpr int kReps = 10;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kReps; ++r) body(sv);
  const auto t1 = std::chrono::steady_clock::now();
  sim::simd::set_simd_enabled(-1);
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return ns / (kReps * static_cast<double>(sv.dim()));
}

void print_kernel_artifact() {
  const auto& cpu = qtc::core::cpu_features();
  std::fprintf(stderr,
               "SIMD kernel layer: isa=%s (avx2=%d fma=%d neon=%d), "
               "vector_available=%d\n",
               sim::simd::isa_name(sim::simd::select()), cpu.avx2, cpu.fma,
               cpu.neon, sim::simd::vector_available());
  std::fprintf(stderr, "  %-24s %12s %12s %8s\n", "kernel (2^20 amps)",
               "scalar ns/amp", "simd ns/amp", "speedup");

  struct Row {
    const char* name;
    void (*body)(sim::Statevector&);
  } rows[] = {
      {"apply_1q q=0",
       [](sim::Statevector& sv) {
         const Matrix m = qtc::op_matrix(qtc::OpKind::H, {});
         sv.apply_1q(m(0, 0), m(0, 1), m(1, 0), m(1, 1), 0);
       }},
      {"apply_1q q=12",
       [](sim::Statevector& sv) {
         const Matrix m = qtc::op_matrix(qtc::OpKind::H, {});
         sv.apply_1q(m(0, 0), m(0, 1), m(1, 0), m(1, 1), 12);
       }},
      {"apply_cx 3->12",
       [](sim::Statevector& sv) { sv.apply_cx(3, 12); }},
      {"apply_diagonal k=2",
       [](sim::Statevector& sv) {
         const std::vector<cplx> d = {
             {1, 0},
             {0.92106099400288508, 0.38941834230865049},
             {1, 0},
             {-1, 0}};
         sv.apply_diagonal(d, {5, 11});
       }},
      {"apply_matrix 2q dense",
       [](sim::Statevector& sv) {
         const Matrix m = qtc::op_matrix(qtc::OpKind::RXX, {0.37});
         sv.apply_matrix(m, {4, 13});
       }},
      {"apply_matrix 4q dense",
       [](sim::Statevector& sv) {
         const Matrix m2 = qtc::op_matrix(qtc::OpKind::RXX, {0.37});
         sv.apply_matrix(m2.kron(m2), {2, 7, 9, 14});
       }},
      {"apply_controlled 2c+1t",
       [](sim::Statevector& sv) {
         const Matrix m = qtc::op_matrix(qtc::OpKind::H, {});
         sv.apply_controlled_matrix(m, std::vector<int>{3, 9},
                                    std::vector<int>{15});
       }},
  };
  for (const Row& row : rows) {
    const double scalar = time_kernel_ns_per_amp(row.body, 0);
    const double simd = time_kernel_ns_per_amp(row.body, 1);
    std::fprintf(stderr, "  %-24s %12.3f %12.3f %7.2fx\n", row.name, scalar,
                 simd, scalar / simd);
  }
}

QuantumCircuit clifford_chain(int n) {
  QuantumCircuit qc(n, n);
  qc.h(0);
  for (int q = 0; q < n - 1; ++q) qc.cx(q, q + 1);
  qc.measure_all();
  return qc;
}

QuantumCircuit sparse_t_chain(int n) {
  QuantumCircuit qc(n, n);
  qc.h(0);
  for (int q = 0; q < n - 1; ++q) qc.cx(q, q + 1);
  qc.t(n - 1);
  qc.measure_all();
  return qc;
}

QuantumCircuit measured(QuantumCircuit qc) {
  QuantumCircuit out(qc.num_qubits(), qc.num_qubits());
  for (const auto& op : qc.ops()) out.append(op);
  out.measure_all();
  return out;
}

void print_routing_artifact() {
  std::fprintf(stderr,
               "\nengine dispatch routing (QTC_DISPATCH, noiseless runs)\n");
  std::fprintf(stderr, "  %-28s %6s %10s %16s  %s\n", "circuit", "qubits",
               "2q gates", "engine", "reason");
  struct Entry {
    const char* name;
    QuantumCircuit qc;
  } suite[] = {
      {"ghz clifford n=12", clifford_chain(12)},
      {"ghz clifford n=100", clifford_chain(100)},
      {"sparse t-chain n=16", sparse_t_chain(16)},
      {"sparse t-chain n=28", sparse_t_chain(28)},
      {"random dense n=10 (e5)", measured(random_circuit(10, 120, 7))},
      {"random dense n=16 (e5)", measured(random_circuit(16, 200, 42))},
      {"qv-style dense n=12 (e13)", measured(random_circuit(12, 360, 13))},
  };
  for (const Entry& e : suite) {
    const sim::CircuitProfile p = sim::profile_circuit(e.qc);
    const sim::DispatchDecision d = sim::choose_engine(p);
    std::fprintf(stderr, "  %-28s %6d %10d %16s  %s\n", e.name, p.num_qubits,
                 p.entangling_gates, sim::engine_name(d.engine), d.reason);
  }
}

// --- google-benchmark timings (the JSON artifact CI uploads) ----------------

void bench_apply_1q(benchmark::State& state) {
  const Matrix m = qtc::op_matrix(qtc::OpKind::H, {});
  sim::simd::set_simd_enabled(static_cast<int>(state.range(0)));
  sim::Statevector sv = bench_state();
  for (auto _ : state) {
    sv.apply_1q(m(0, 0), m(0, 1), m(1, 0), m(1, 1), 12);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  sim::simd::set_simd_enabled(-1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(bench_apply_1q)->Arg(0)->Arg(1)->Name("apply_1q/simd");

void bench_apply_diagonal(benchmark::State& state) {
  const std::vector<cplx> d = {
      {1, 0}, {0.92106099400288508, 0.38941834230865049}, {1, 0}, {-1, 0}};
  sim::simd::set_simd_enabled(static_cast<int>(state.range(0)));
  sim::Statevector sv = bench_state();
  for (auto _ : state) {
    sv.apply_diagonal(d, {5, 11});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  sim::simd::set_simd_enabled(-1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(bench_apply_diagonal)->Arg(0)->Arg(1)->Name("apply_diagonal/simd");

void bench_apply_matrix_2q(benchmark::State& state) {
  const Matrix m = qtc::op_matrix(qtc::OpKind::RXX, {0.37});
  sim::simd::set_simd_enabled(static_cast<int>(state.range(0)));
  sim::Statevector sv = bench_state();
  for (auto _ : state) {
    sv.apply_matrix(m, {4, 13});
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  sim::simd::set_simd_enabled(-1);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(bench_apply_matrix_2q)->Arg(0)->Arg(1)->Name("apply_matrix_2q/simd");

void bench_fused_statevector(benchmark::State& state) {
  const QuantumCircuit qc = random_circuit(18, 200, 42);
  sim::simd::set_simd_enabled(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim::StatevectorSimulator svsim;
    const auto sv = svsim.statevector(qc);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  sim::simd::set_simd_enabled(-1);
}
BENCHMARK(bench_fused_statevector)
    ->Arg(0)
    ->Arg(1)
    ->Name("fused_statevector_n18/simd")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_kernel_artifact();
  print_routing_artifact();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
