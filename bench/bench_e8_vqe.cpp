// E8 (Sec. III, Aqua / ref [15]): the hybrid conventional-quantum VQE loop.
// Reproduces the H2 dissociation curve (VQE vs exact diagonalization of the
// from-scratch STO-3G Hamiltonian) and the Max-Cut optimization story.

#include "bench_common.hpp"

#include "aqua/ansatz.hpp"
#include "aqua/h2.hpp"
#include "aqua/maxcut.hpp"
#include "aqua/optimizer.hpp"
#include "aqua/vqe.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "sim/simulator.hpp"
#include "transpiler/transpile_cache.hpp"

namespace {

using namespace qtc;
using namespace qtc::aqua;

void print_artifact() {
  std::printf("=== E8: VQE (chemistry + optimization) ===\n\n");
  std::printf("H2 / STO-3G dissociation curve (Hartree):\n");
  std::printf("%8s %12s %12s %10s %8s\n", "R (A)", "VQE", "FCI", "error",
              "terms");
  const Ansatz ansatz = ry_linear(4, 2);
  std::vector<double> warm;
  for (double r : {0.40, 0.60, 0.735, 0.90, 1.20, 1.60, 2.00}) {
    const H2Problem problem = h2_problem(r);
    VqeOptions options;
    options.seed = 17;
    options.restarts = 3;
    options.initial_parameters = warm;
    const VqeResult result =
        vqe(problem.hamiltonian, ansatz, NelderMead(6000), options);
    warm = result.parameters;
    const double vqe_e = result.energy + problem.nuclear_repulsion;
    const double fci_e = problem.fci_energy();
    std::printf("%8.3f %12.6f %12.6f %10.2e %8zu\n", r, vqe_e, fci_e,
                vqe_e - fci_e, problem.hamiltonian.num_terms());
  }

  std::printf("\nMax-Cut via QAOA (5-vertex graph, optimum 6.0):\n");
  const Graph graph{5,
                    {{0, 1, 1.0},
                     {1, 2, 1.0},
                     {2, 3, 1.0},
                     {3, 0, 1.0},
                     {0, 2, 0.5},
                     {3, 4, 2.0}}};
  const PauliOp h = maxcut_hamiltonian(graph);
  std::printf("%8s %10s %12s %10s\n", "layers", "<H>", "best cut",
              "optimum");
  for (int p = 1; p <= 3; ++p) {
    VqeOptions options;
    options.seed = 100 + p;
    options.restarts = 4;
    const VqeResult result =
        vqe(h, qaoa_ansatz(graph, p), NelderMead(4000), options);
    sim::StatevectorSimulator sim;
    const auto probs =
        sim.statevector(qaoa_ansatz(graph, p).build(result.parameters))
            .probabilities();
    std::printf("%8d %10.4f %12.1f %10.1f\n", p, result.energy,
                cut_value(graph, best_assignment(graph, probs)),
                max_cut_brute_force(graph));
  }
  std::printf(
      "\nShape check: VQE tracks FCI to ~1e-3 Ha across the curve with the\n"
      "minimum near 0.735 A; QAOA reaches the optimal cut and deeper\n"
      "circuits push <H> towards the Ising ground energy.\n\n");

  // The hybrid-loop hot path: a device-executed parameter sweep re-compiles
  // the *same ansatz structure* every iteration, so with the transpile cache
  // only the first compile runs the mapper (cold); every later iteration
  // replays the cached routing with re-bound angles (warm).
  std::printf("Hybrid loop on QX4 (20-iteration parameter sweep, 64 shots):\n");
  transpiler::TranspileCache::global().clear();
  const Ansatz sweep_ansatz = ry_linear(4, 2);
  std::vector<double> params(sweep_ansatz.num_parameters, 0.0);
  exec::ExecuteOptions exec_opts;
  exec_opts.shots = 64;
  exec_opts.transpile_options.trials = 4;
  exec_opts.transpile_options.seed = 17;
  const std::uint64_t mapper_runs_before = map::mapper_run_count();
  int cold_compiles = 0, warm_compiles = 0;
  for (int iter = 0; iter < 20; ++iter) {
    for (auto& p : params) p += 0.05;
    const auto run = exec::execute(sweep_ansatz.build(params),
                                   arch::qx4_backend(), exec_opts);
    run.transpile_cache_hit ? ++warm_compiles : ++cold_compiles;
  }
  std::printf(
      "  transpiles: %d cold, %d warm; mapper runs: %llu (one per cold)\n"
      "Shape check: every iteration after the first hits the cache — the\n"
      "layout+routing cost is paid once per ansatz structure, not per\n"
      "parameter set.\n\n",
      cold_compiles, warm_compiles,
      static_cast<unsigned long long>(map::mapper_run_count() -
                                      mapper_runs_before));
  transpiler::TranspileCache::global().clear();
}

void BM_H2Integrals(benchmark::State& state) {
  for (auto _ : state) {
    auto ints = h2_integrals(0.735);
    benchmark::DoNotOptimize(ints.nuclear_repulsion);
  }
}
BENCHMARK(BM_H2Integrals);

void BM_H2HamiltonianBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto problem = h2_problem(0.735);
    benchmark::DoNotOptimize(problem.nuclear_repulsion);
  }
}
BENCHMARK(BM_H2HamiltonianBuild);

void BM_ExactExpectation(benchmark::State& state) {
  const H2Problem problem = h2_problem(0.735);
  const Ansatz ansatz = ry_linear(4, 2);
  const std::vector<double> params(ansatz.num_parameters, 0.3);
  const QuantumCircuit qc = ansatz.build(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_expectation(qc, problem.hamiltonian, 0));
  }
}
BENCHMARK(BM_ExactExpectation);

void BM_FullVqeH2(benchmark::State& state) {
  const H2Problem problem = h2_problem(0.735);
  const Ansatz ansatz = ry_linear(4, 1);
  for (auto _ : state) {
    VqeOptions options;
    options.seed = 3;
    auto result = vqe(problem.hamiltonian, ansatz, NelderMead(1500), options);
    benchmark::DoNotOptimize(result.energy);
  }
}
BENCHMARK(BM_FullVqeH2);

}  // namespace

QTC_BENCH_MAIN(print_artifact)
