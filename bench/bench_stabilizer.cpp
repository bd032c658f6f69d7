// Stabilizer-engine benchmark: bit-packed tableau (qubit-major for gates,
// row-major for measurement) with tableau-once shot sampling.
//
// The artifact (stderr) is a workload table — GHZ chains, randomized-
// benchmarking-style Clifford layer sweeps, repetition-code syndrome cycles
// (mid-circuit ancilla measure + reset) and the gates of a GHZ-399 routed on
// a 433-qubit heavy-hex map — timing the engine end to end through
// StabilizerSimulator::run. A final section shows tableau-once
// amortization: shots=1 vs shots=4096 on the same circuit.
//
//   ./bench_stabilizer --benchmark_format=json > BENCH_stabilizer.json
// is how CI tracks the engine trajectory; stdout stays machine-readable.

#include <chrono>
#include <cstdio>

#include "arch/backend.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "sim/stabilizer.hpp"
#include "transpiler/transpile.hpp"

namespace {

using qtc::QuantumCircuit;
using qtc::Rng;
namespace sim = qtc::sim;

QuantumCircuit ghz_circuit(int n) {
  QuantumCircuit qc(n, n);
  qc.h(0);
  for (int q = 1; q < n; ++q) qc.cx(q - 1, q);
  qc.measure_all();
  return qc;
}

/// RB-style workload: `depth` layers of random single-qubit Cliffords plus a
/// staggered CX rung, then measure-all.
QuantumCircuit rb_circuit(int n, int depth, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n, n);
  for (int d = 0; d < depth; ++d) {
    for (int q = 0; q < n; ++q) {
      switch (rng.index(4)) {
        case 0: qc.h(q); break;
        case 1: qc.s(q); break;
        case 2: qc.x(q); break;
        default: qc.sdg(q); break;
      }
    }
    for (int q = d % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
  }
  qc.measure_all();
  return qc;
}

/// Distance-d repetition code: d data qubits, d-1 ancillas; each cycle
/// extracts every parity with CX pairs, measures the ancilla mid-circuit and
/// resets it for reuse. Data qubits are measured at the end.
QuantumCircuit repetition_syndrome_circuit(int distance, int cycles) {
  const int n = 2 * distance - 1;  // data 0..d-1, ancilla d..n-1
  const int clbits = (distance - 1) * cycles + distance;
  QuantumCircuit qc(n, clbits);
  qc.h(0);  // non-trivial logical state so measurements are not all |0>
  for (int d = 1; d < distance; ++d) qc.cx(0, d);
  int clbit = 0;
  for (int c = 0; c < cycles; ++c) {
    for (int a = 0; a < distance - 1; ++a) {
      const int anc = distance + a;
      qc.cx(a, anc);
      qc.cx(a + 1, anc);
      qc.measure(anc, clbit++);
      qc.reset(anc);
    }
  }
  for (int d = 0; d < distance; ++d) qc.measure(d, clbit++);
  return qc;
}

/// GHZ-399 routed on UCX heavy_hex(13) (433 qubits, ~8.7k H/CX), with its
/// measurements stripped: gate application alone, the part of a
/// clifford-scale job that the qubit-major layout speeds up.
const QuantumCircuit& routed_ghz_gates() {
  static const QuantumCircuit gates = [] {
    const qtc::arch::CouplingMap map = qtc::arch::heavy_hex(13);
    const qtc::arch::Backend backend(map, qtc::arch::heavy_hex_calibration(map),
                                     qtc::arch::BasisSet::UCX);
    qtc::transpiler::TranspileOptions options;
    options.seed = 1;
    const QuantumCircuit routed =
        qtc::transpiler::transpile(ghz_circuit(399), backend, options).circuit;
    QuantumCircuit out(routed.num_qubits(), routed.num_clbits());
    for (const auto& op : routed.ops())
      if (op.kind != qtc::OpKind::Measure) out.ops().push_back(op);
    return out;
  }();
  return gates;
}

/// End-to-end StabilizerSimulator::run wall time in ms (best-effort mean of
/// `reps` timed runs after one warm-up).
double time_run_ms(const QuantumCircuit& qc, int shots, int reps = 2) {
  sim::StabilizerSimulator simulator(0xBE7C5);
  auto warm = simulator.run(qc, shots);
  benchmark::DoNotOptimize(warm);
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    auto counts = simulator.run(qc, shots);
    benchmark::DoNotOptimize(counts);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

struct Workload {
  const char* name;
  QuantumCircuit circuit;
  int shots;
};

void print_artifact() {
  std::fprintf(stderr,
               "Stabilizer engine: packed word-parallel tableau + "
               "tableau-once sampling\n");
  std::fprintf(stderr, "  %-30s %7s %11s\n", "workload", "shots", "ms");

  const Workload workloads[] = {
      {"ghz n=100", ghz_circuit(100), 1024},
      {"ghz n=1000", ghz_circuit(1000), 4096},
      {"rb n=64 depth=24", rb_circuit(64, 24, 7), 1024},
      {"rb n=256 depth=8", rb_circuit(256, 8, 8), 1024},
      {"rb n=256 depth=32", rb_circuit(256, 32, 9), 1024},
      {"repetition d=11 cycles=10", repetition_syndrome_circuit(11, 10), 1024},
      {"routed ghz n=399, gates only", routed_ghz_gates(), 1},
  };
  for (const Workload& w : workloads)
    std::fprintf(stderr, "  %-30s %7d %11.2f\n", w.name, w.shots,
                 time_run_ms(w.circuit, w.shots));

  // Tableau-once amortization: the symbolic pass dominates, extra shots only
  // pay for coin flips and key assembly.
  const QuantumCircuit amort = ghz_circuit(1000);
  const double one_shot = time_run_ms(amort, 1);
  const double many_shots = time_run_ms(amort, 4096);
  std::fprintf(stderr,
               "  amortization (ghz n=1000): shots=1 %.2f ms, "
               "shots=4096 %.2f ms (%.3f ms/shot marginal)\n",
               one_shot, many_shots, (many_shots - one_shot) / 4095.0);
}

// --- google-benchmark timings ------------------------------------------------

void BM_StabilizerGhz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int shots = static_cast<int>(state.range(1));
  const QuantumCircuit qc = ghz_circuit(n);
  sim::StabilizerSimulator simulator(0xBE7C5);
  for (auto _ : state) {
    auto counts = simulator.run(qc, shots);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_StabilizerGhz)
    ->Args({100, 1024})
    ->Args({1000, 4096})
    ->Unit(benchmark::kMillisecond);

void BM_StabilizerRb(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  const QuantumCircuit qc = rb_circuit(n, depth, 7);
  sim::StabilizerSimulator simulator(0xBE7C5);
  for (auto _ : state) {
    auto counts = simulator.run(qc, 1024);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_StabilizerRb)
    ->Args({64, 24})
    ->Args({256, 8})
    ->Args({256, 32})
    ->Unit(benchmark::kMillisecond);

void BM_StabilizerSyndrome(benchmark::State& state) {
  const int distance = static_cast<int>(state.range(0));
  const int cycles = static_cast<int>(state.range(1));
  const QuantumCircuit qc = repetition_syndrome_circuit(distance, cycles);
  sim::StabilizerSimulator simulator(0xBE7C5);
  for (auto _ : state) {
    auto counts = simulator.run(qc, 1024);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_StabilizerSyndrome)
    ->Args({11, 10})
    ->Args({25, 4})
    ->Unit(benchmark::kMillisecond);

void BM_StabilizerGates(benchmark::State& state) {
  const QuantumCircuit& qc = routed_ghz_gates();
  sim::StabilizerSimulator simulator(0xBE7C5);
  for (auto _ : state) {
    auto counts = simulator.run(qc, 1);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_StabilizerGates)->Unit(benchmark::kMillisecond);

}  // namespace

QTC_BENCH_MAIN(print_artifact)
