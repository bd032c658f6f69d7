// finish_pipeline against its copy-per-pass oracle: the library moves one
// circuit through the post-routing passes, cancels through an
// allocation-free inverse test and reads the Euler angles of parameter-free
// gates from a table, and must still emit the oracle's QASM byte for byte on
// every device and option set. The two shortcuts are also checked on their
// own against op_inverse and zyz_decompose.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "aqua/algorithms.hpp"
#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "ignis/quantum_volume.hpp"
#include "qasm/parser.hpp"
#include "reference_finish_pipeline.hpp"
#include "transpiler/decompose.hpp"
#include "transpiler/optimize.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::transpiler {
namespace {

using qtc::testing::reference_finish_pipeline;

struct Device {
  std::string name;
  arch::Backend backend;
  int width;  // logical width of the generated inputs
};

std::vector<Device> devices() {
  return {{"qx4", arch::qx4_backend(), 5},
          {"qx5", arch::qx5_backend(), 12},
          {"heavy_hex7", arch::heavy_hex_backend(7), 16},
          {"heavy_hex13", arch::heavy_hex_backend(13), 20}};
}

/// Random circuit over the whole gate set the router's lowering accepts,
/// with repeated and inverse neighbours so cancellation has work to do.
QuantumCircuit random_circuit(std::uint64_t seed, int n, int gates) {
  Rng rng(seed);
  QuantumCircuit qc(n, 2);
  auto pick = [&] { return static_cast<int>(rng.index(n)); };
  auto other = [&](int a) {
    return (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
  };
  for (int g = 0; g < gates; ++g) {
    const int a = pick();
    const double angle = rng.uniform(-PI, PI);
    switch (rng.index(14)) {
      case 0: qc.h(a).h(a); break;
      case 1: qc.t(a).tdg(a); break;
      case 2: qc.sx(a); break;
      case 3: qc.rz(angle, a).rz(-angle, a); break;
      case 4: qc.u(angle, 0.3, -0.7, a); break;
      case 5: qc.rx(angle, a); break;
      case 6: qc.s(a).y(a); break;
      case 7: qc.cz(a, other(a)); break;
      case 8: qc.swap(a, other(a)); break;
      case 9: qc.measure(a, static_cast<int>(rng.index(2))); break;
      case 10: qc.barrier({a, other(a)}); break;
      default: {
        const int b = other(a);
        qc.cx(a, b);
        if (rng.index(3) == 0) qc.cx(a, b);
      }
    }
  }
  return qc;
}

/// Classically conditioned CX and 1q gates between plain ones: the passes
/// must carry every condition onto the gates they emit and never cancel
/// across or with a conditioned op.
QuantumCircuit conditioned_circuit(std::uint64_t seed, int n, int gates) {
  Rng rng(seed);
  QuantumCircuit qc(n, 3);
  auto pick = [&] { return static_cast<int>(rng.index(n)); };
  auto other = [&](int a) {
    return (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
  };
  for (int g = 0; g < gates; ++g) {
    const int a = pick();
    const std::uint64_t value = rng.index(8);
    switch (rng.index(8)) {
      case 0: qc.cx(a, other(a)).c_if(0, value); break;
      case 1: qc.h(a).c_if(0, value); break;
      case 2: qc.x(a).c_if(0, value); break;
      case 3: qc.rz(rng.uniform(-PI, PI), a).c_if(0, value); break;
      case 4: qc.t(a); break;
      case 5: qc.measure(a, static_cast<int>(rng.index(3))); break;
      default: qc.cx(a, other(a));
    }
  }
  return qc;
}

struct Input {
  std::string name;
  QuantumCircuit circuit;
};

std::vector<Input> inputs(int width, std::uint64_t seed) {
  Rng rng(seed);
  return {{"random", random_circuit(seed, width, 6 * width)},
          {"qft", aqua::qft(std::min(width, 12))},
          {"qv", ignis::qv_model_circuit(std::min(width, 8), rng)},
          {"conditioned", conditioned_circuit(seed + 1, width, 5 * width)}};
}

bool bitwise_equal(const QuantumCircuit& a, const QuantumCircuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.num_clbits() != b.num_clbits() ||
      a.qregs() != b.qregs() || a.cregs() != b.cregs() || a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Operation& x = a.ops()[i];
    const Operation& y = b.ops()[i];
    if (x.kind != y.kind || x.qubits != y.qubits || x.clbits != y.clbits ||
        x.cond_reg != y.cond_reg || x.cond_val != y.cond_val ||
        x.params.size() != y.params.size())
      return false;
    for (std::size_t k = 0; k < x.params.size(); ++k)
      if (std::bit_cast<std::uint64_t>(x.params[k]) !=
          std::bit_cast<std::uint64_t>(y.params[k]))
        return false;
  }
  return true;
}

TEST(FinishPipelineOracle, EveryDeviceInputAndOption) {
  int cases = 0, with_swaps = 0;
  for (const Device& device : devices()) {
    for (const Input& input : inputs(device.width, 7 + device.width)) {
      const QuantumCircuit lowered =
          detail::lower_to_router_basis(input.circuit);
      for (int fidelity : {0, 1}) {
        TranspileOptions routing;
        routing.trials = 2;
        routing.seed = 11;
        routing.fidelity = fidelity;
        const map::MappingResult mapped =
            detail::make_mapper(routing, device.backend)
                ->run(lowered, device.backend.coupling_map());
        const bool had_swaps = mapped.swaps_inserted > 0;
        with_swaps += had_swaps;
        for (int level : {0, 1, 2}) {
          for (bool to_u : {false, true}) {
            TranspileOptions opts = routing;
            opts.optimization_level = level;
            opts.to_u_basis = to_u;
            const std::string tag =
                device.name + " " + input.name + " fidelity=" +
                std::to_string(fidelity) + " level=" + std::to_string(level) +
                " to_u=" + std::to_string(to_u);
            const QuantumCircuit want = reference_finish_pipeline(
                mapped.circuit, had_swaps, device.backend, opts);
            const QuantumCircuit got = detail::finish_pipeline(
                mapped.circuit, had_swaps, device.backend, opts);
            EXPECT_EQ(qasm::emit(got), qasm::emit(want)) << tag;
            EXPECT_TRUE(bitwise_equal(got, want)) << tag;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 4 * 2 * 3 * 2);
  EXPECT_GT(with_swaps, 16);  // most routings inserted SWAPs
}

TEST(FinishPipelineOracle, TranspileMatchesOracleOnRoutedCircuit) {
  // The whole transpile() path: its routed circuit, replayed through the
  // oracle, gives the library's compiled circuit.
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  Rng rng(14);
  const QuantumCircuit qv = ignis::qv_model_circuit(14, rng);
  TranspileOptions opts;
  opts.trials = 4;
  opts.seed = 21;
  opts.fidelity = 1;
  const TranspileResult result = transpile(qv, eagle, opts);
  const map::MappingResult mapped =
      detail::make_mapper(detail::resolve_options(opts), eagle)
          ->run(detail::lower_to_router_basis(qv), eagle.coupling_map());
  const QuantumCircuit want = reference_finish_pipeline(
      mapped.circuit, mapped.swaps_inserted > 0, eagle,
      detail::resolve_options(opts));
  EXPECT_EQ(qasm::emit(result.circuit), qasm::emit(want));
}

// --- the allocation-free inverse test ----------------------------------------

bool old_decision(const Operation& prev, const Operation& op) {
  const auto [kind, params] = op_inverse(prev.kind, prev.params);
  return kind == op.kind &&
         qtc::testing::reference_cancellation::params_close(params, op.params);
}

Operation gate(OpKind kind, std::vector<double> params) {
  Operation op;
  op.kind = kind;
  op.qubits.resize(op_num_qubits(kind));
  for (int q = 0; q < op_num_qubits(kind); ++q) op.qubits[q] = q;
  op.params = std::move(params);
  return op;
}

const std::vector<OpKind> kUnitaryKinds = {
    OpKind::I,    OpKind::X,    OpKind::Y,     OpKind::Z,    OpKind::H,
    OpKind::S,    OpKind::Sdg,  OpKind::T,     OpKind::Tdg,  OpKind::SX,
    OpKind::SXdg, OpKind::RX,   OpKind::RY,    OpKind::RZ,   OpKind::P,
    OpKind::U2,   OpKind::U,    OpKind::CX,    OpKind::CY,   OpKind::CZ,
    OpKind::CH,   OpKind::CRX,  OpKind::CRY,   OpKind::CRZ,  OpKind::CP,
    OpKind::CU,   OpKind::SWAP, OpKind::ISWAP, OpKind::RZZ,  OpKind::RXX,
    OpKind::CCX,  OpKind::CSWAP, OpKind::ECR};

TEST(InversePredicate, AgreesWithOpInverseOnEveryKindPair) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double above = std::nextafter(1e-12, 1.0);
  Rng rng(5);
  int checked = 0, inverse_pairs = 0;
  for (OpKind a : kUnitaryKinds) {
    for (OpKind b : kUnitaryKinds) {
      const int na = op_num_params(a), nb = op_num_params(b);
      // Parameter sets for `prev`; `op` gets the inverse's parameters
      // shifted by each offset, or fresh random values.
      std::vector<std::vector<double>> prev_sets = {
          std::vector<double>(na, 0.0), std::vector<double>(na, 1e-12),
          std::vector<double>(na, -0.75), std::vector<double>(na, nan)};
      for (int r = 0; r < 3; ++r) {
        std::vector<double> p(na);
        for (double& x : p) x = rng.uniform(-2 * PI, 2 * PI);
        prev_sets.push_back(p);
      }
      for (const auto& pp : prev_sets) {
        const Operation prev = gate(a, pp);
        if (a == OpKind::ISWAP) {  // op_inverse has no ISWAP^dagger
          EXPECT_FALSE(detail::is_inverse_of(prev, gate(b, {})));
          continue;
        }
        const ParamList inverse = op_inverse(a, pp).second;
        std::vector<double> inv(inverse.begin(), inverse.end());
        inv.resize(nb, 0.0);
        std::vector<std::vector<double>> op_sets;
        for (double offset : {0.0, 1e-12, -1e-12, above, -above, 1e-9}) {
          std::vector<double> o = inv;
          for (double& x : o) x += offset;
          op_sets.push_back(o);
        }
        std::vector<double> exact_gap(nb, 1e-12);  // |0 - 1e-12| == 1e-12
        op_sets.push_back(exact_gap);
        std::vector<double> above_gap(nb, above);
        op_sets.push_back(above_gap);
        op_sets.push_back(std::vector<double>(nb, nan));
        std::vector<double> random(nb);
        for (double& x : random) x = rng.uniform(-2 * PI, 2 * PI);
        op_sets.push_back(random);
        for (const auto& po : op_sets) {
          const Operation op = gate(b, po);
          const bool want = old_decision(prev, op);
          EXPECT_EQ(detail::is_inverse_of(prev, op), want)
              << op_name(a) << " then " << op_name(b);
          inverse_pairs += want;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
  EXPECT_GT(inverse_pairs, 500);  // the sets really hit the boundary
}

// --- the cached Euler angles -------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(EulerTable, MatchesZyzDecomposeBitwise) {
  int fixed = 0;
  for (OpKind k : kUnitaryKinds) {
    if (op_num_qubits(k) != 1) continue;
    std::vector<double> params(op_num_params(k));
    for (std::size_t i = 0; i < params.size(); ++i) params[i] = 0.3 + i;
    fixed += params.empty();
    const EulerAngles want = zyz_decompose(op_matrix(k, params));
    const EulerAngles got = detail::euler_angles(k, params);
    EXPECT_TRUE(same_bits(got.theta, want.theta)) << op_name(k);
    EXPECT_TRUE(same_bits(got.phi, want.phi)) << op_name(k);
    EXPECT_TRUE(same_bits(got.lambda, want.lambda)) << op_name(k);
    EXPECT_TRUE(same_bits(got.phase, want.phase)) << op_name(k);
  }
  EXPECT_EQ(fixed, 11);  // I X Y Z H S Sdg T Tdg SX SXdg
}

}  // namespace
}  // namespace qtc::transpiler
