// GateCancellation against its rescanning oracle: the library pass keeps
// per-op predecessor links instead of rescanning after each removal, and
// must still produce the oracle's circuit op for op, with every parameter
// equal bit for bit.

#include "transpiler/optimize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "aqua/algorithms.hpp"
#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "reference_gate_cancellation.hpp"
#include "transpiler/commutative.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::transpiler {
namespace {

using qtc::testing::reference_gate_cancellation;

std::string describe(const Operation& op) {
  std::ostringstream s;
  s << op_name(op.kind);
  for (Qubit q : op.qubits) s << " q" << q;
  for (Clbit c : op.clbits) s << " c" << c;
  for (double p : op.params) s << " " << p;
  if (op.conditioned())
    s << " if(" << op.cond_reg << "==" << op.cond_val << ")";
  return s.str();
}

bool identical(const Operation& a, const Operation& b) {
  if (a.kind != b.kind || a.qubits != b.qubits || a.clbits != b.clbits ||
      a.cond_reg != b.cond_reg || a.cond_val != b.cond_val ||
      a.params.size() != b.params.size())
    return false;
  for (std::size_t k = 0; k < a.params.size(); ++k)
    if (std::bit_cast<std::uint64_t>(a.params[k]) !=
        std::bit_cast<std::uint64_t>(b.params[k]))
      return false;
  return true;
}

/// Runs the pass and the oracle on `input` and checks they agree op for op.
/// Returns the pass's output for further expectations.
QuantumCircuit expect_matches_oracle(const QuantumCircuit& input,
                                     const std::string& label) {
  const QuantumCircuit got = GateCancellation().run(input);
  const QuantumCircuit want = reference_gate_cancellation(input);
  EXPECT_EQ(got.num_qubits(), want.num_qubits()) << label;
  EXPECT_EQ(got.num_clbits(), want.num_clbits()) << label;
  EXPECT_EQ(got.size(), want.size()) << label;
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!identical(got.ops()[i], want.ops()[i])) {
      ADD_FAILURE() << label << ": op " << i << " is "
                    << describe(got.ops()[i]) << ", oracle has "
                    << describe(want.ops()[i]);
      break;
    }
  return got;
}

// Every unitary kind; ISWAP is never cancelled and acts as a blocker.
const std::vector<OpKind> kUnitaryKinds = {
    OpKind::I,   OpKind::X,    OpKind::Y,    OpKind::Z,    OpKind::H,
    OpKind::S,   OpKind::Sdg,  OpKind::T,    OpKind::Tdg,  OpKind::SX,
    OpKind::SXdg, OpKind::RX,  OpKind::RY,   OpKind::RZ,   OpKind::P,
    OpKind::U2,  OpKind::U,    OpKind::CX,   OpKind::CY,   OpKind::CZ,
    OpKind::CH,  OpKind::CRX,  OpKind::CRY,  OpKind::CRZ,  OpKind::CP,
    OpKind::CU,  OpKind::SWAP, OpKind::ISWAP, OpKind::RZZ, OpKind::RXX,
    OpKind::CCX, OpKind::CSWAP, OpKind::ECR};

// Angles whose sums land exactly on, or within 1e-12 of, zero.
const std::vector<double> kAngles = {PI / 4, -PI / 4, PI / 2, -PI / 2, PI,
                                     -PI,    0.1,     0.2,    -0.3,    0.3,
                                     1e-13,  -1e-13};

std::vector<Qubit> distinct_qubits(Rng& rng, int count, int num_qubits) {
  std::vector<Qubit> qs;
  while (static_cast<int>(qs.size()) < count) {
    const Qubit q = static_cast<Qubit>(rng.index(num_qubits));
    if (std::find(qs.begin(), qs.end(), q) == qs.end()) qs.push_back(q);
  }
  return qs;
}

/// A random circuit dense in cancellation candidates: a third of the gates
/// re-apply the inverse of an earlier gate (symmetric gates often with
/// their operands swapped), angles come from kAngles, and measurements,
/// resets, barriers and conditioned gates sit between candidates.
QuantumCircuit random_circuit(std::uint64_t seed, int num_qubits, int gates) {
  Rng rng(seed);
  QuantumCircuit qc(num_qubits, 2);
  std::vector<Operation> unitaries;
  for (int g = 0; g < gates; ++g) {
    const double r = rng.uniform();
    if (r < 0.04) {
      qc.measure(static_cast<Qubit>(rng.index(num_qubits)),
                 static_cast<Clbit>(rng.index(2)));
      continue;
    }
    if (r < 0.06) {
      qc.reset(static_cast<Qubit>(rng.index(num_qubits)));
      continue;
    }
    if (r < 0.08) {
      qc.barrier(distinct_qubits(rng, 1 + rng.index(num_qubits), num_qubits));
      continue;
    }
    Operation op;
    if (r < 0.40 && !unitaries.empty()) {
      const Operation& earlier =
          unitaries[unitaries.size() - 1 - rng.index(std::min<std::size_t>(
                                                 3, unitaries.size()))];
      op.kind = earlier.kind;  // op_inverse has no ISWAP^dagger
      op.params = earlier.params;
      if (earlier.kind != OpKind::ISWAP)
        std::tie(op.kind, op.params) = op_inverse(earlier.kind, earlier.params);
      op.qubits = earlier.qubits;
      if (op.qubits.size() == 2 && rng.bernoulli(0.5))
        std::swap(op.qubits[0], op.qubits[1]);
    } else {
      op.kind = kUnitaryKinds[rng.index(kUnitaryKinds.size())];
      const int arity = op_num_qubits(op.kind);
      if (arity > num_qubits) continue;
      op.qubits = distinct_qubits(rng, arity, num_qubits);
      for (int p = 0; p < op_num_params(op.kind); ++p)
        op.params.push_back(kAngles[rng.index(kAngles.size())]);
    }
    if (rng.bernoulli(0.05)) {
      op.cond_reg = 0;
      op.cond_val = rng.index(4);
    }
    unitaries.push_back(op);
    qc.append(std::move(op));
  }
  return qc;
}

TEST(GateCancellationOracle, RandomCircuitsMatch) {
  std::size_t removed = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const int nq = 2 + static_cast<int>(seed % 4);
    const QuantumCircuit qc =
        random_circuit(seed, nq, 20 + static_cast<int>(seed % 7) * 30);
    const QuantumCircuit out =
        expect_matches_oracle(qc, "seed " + std::to_string(seed));
    removed += qc.size() - out.size();
  }
  EXPECT_GT(removed, 4000u);  // the inputs really exercise cancellation
}

TEST(GateCancellationOracle, SymmetricPairsInSwappedOrder) {
  for (OpKind kind : {OpKind::SWAP, OpKind::CZ, OpKind::RZZ, OpKind::RXX,
                      OpKind::ISWAP}) {
    const std::vector<double> params(op_num_params(kind), 0.7);
    const std::vector<double> negated(op_num_params(kind), -0.7);
    QuantumCircuit swapped(3);
    swapped.gate(kind, {0, 2}, params).gate(kind, {2, 0}, params);
    QuantumCircuit inverse(3);
    inverse.gate(kind, {1, 2}, params).gate(kind, {2, 1}, negated);
    QuantumCircuit blocked(3);
    blocked.gate(kind, {0, 1}, params).x(1).gate(kind, {1, 0}, params);
    const std::string name = op_name(kind);
    const QuantumCircuit a = expect_matches_oracle(swapped, name + " swapped");
    expect_matches_oracle(inverse, name + " inverse");
    EXPECT_EQ(expect_matches_oracle(blocked, name + " blocked").size(), 3u);
    if (kind == OpKind::SWAP || kind == OpKind::CZ) {
      EXPECT_EQ(a.size(), 0u) << name;
    }
  }
}

TEST(GateCancellationOracle, RotationsSummingToZero) {
  QuantumCircuit exact(2);
  exact.rz(0.1, 0).rz(0.2, 0).rz(-0.3, 0);  // sums to 5.6e-17, not 0
  exact.crx(PI / 3, 0, 1).crx(-PI / 3, 0, 1);
  EXPECT_EQ(expect_matches_oracle(exact, "exact").size(), 0u);

  QuantumCircuit merged(2);
  merged.rz(0.1, 1).rz(0.2, 1).rz(0.4, 1).p(1.0, 0).p(2.0, 0);
  const QuantumCircuit m = expect_matches_oracle(merged, "merged");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.ops()[0].params[0], 0.1 + 0.2 + 0.4);

  QuantumCircuit reordered(2);  // CP is symmetric in meaning, not in kind
  reordered.cp(0.5, 0, 1).cp(-0.5, 1, 0);
  expect_matches_oracle(reordered, "reordered cp");
}

TEST(GateCancellationOracle, BlockersBetweenCandidates) {
  QuantumCircuit qc(3, 2);
  qc.h(0).measure(0, 0).h(0);  // measurement blocks
  qc.x(1).reset(1).x(1);       // reset blocks
  qc.cx(1, 2).barrier({1, 2}).cx(1, 2);
  qc.z(2);
  qc.z(2).c_if(0, 1);  // conditioned ops are never touched
  qc.z(2);
  qc.t(0).barrier({1}).tdg(0);  // a barrier elsewhere does not block
  const QuantumCircuit out = expect_matches_oracle(qc, "blockers");
  EXPECT_EQ(out.size(), qc.size() - 2);
}

TEST(GateCancellationOracle, Cascades) {
  QuantumCircuit hxxh(1);
  hxxh.h(0).x(0).x(0).h(0);
  EXPECT_EQ(expect_matches_oracle(hxxh, "h x x h").size(), 0u);

  QuantumCircuit nested(3);
  nested.cx(0, 1).h(2).s(1).t(0).tdg(0).sdg(1).h(2).cx(0, 1);
  EXPECT_EQ(expect_matches_oracle(nested, "nested").size(), 0u);

  // A cancelled pair exposes an older gate on only some of the qubits.
  QuantumCircuit partial(3);
  partial.cx(0, 1).x(1).cz(1, 2).cz(2, 1).x(1).h(2).cx(0, 1);
  EXPECT_EQ(expect_matches_oracle(partial, "partial").size(), 1u);

  // A merge followed by a cancellation of the merged rotation.
  QuantumCircuit chain(2);
  chain.rx(0.25, 0).h(1).rx(0.5, 0).h(1).rx(-0.75, 0).cx(0, 1);
  EXPECT_EQ(expect_matches_oracle(chain, "chain").size(), 1u);

  QuantumCircuit deep(4);
  for (int k = 0; k < 50; ++k) deep.h(k % 4).cx(k % 4, (k + 1) % 4);
  for (int k = 49; k >= 0; --k) deep.cx(k % 4, (k + 1) % 4).h(k % 4);
  EXPECT_EQ(expect_matches_oracle(deep, "deep").size(), 0u);
}

/// The pass at every point the transpiler runs it: on level-0 output
/// (routed, lowered, not yet cleaned) and after commutation and fusion, and
/// idempotently on finished level 1-2 output.
TEST(GateCancellationOracle, TranspileOutputsMatch) {
  const std::vector<std::pair<std::string, arch::Backend>> backends = {
      {"qx4", arch::qx4_backend()},
      {"qx5", arch::qx5_backend()},
      {"heavy_hex7", arch::heavy_hex_backend(7)}};
  for (const auto& [name, backend] : backends) {
    std::vector<QuantumCircuit> inputs;
    const int width = std::min(backend.num_qubits(), 5);
    inputs.push_back(aqua::qft(width));
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      inputs.push_back(random_circuit(100 + seed, width, 60));
    if (backend.num_qubits() > 16) inputs.push_back(aqua::qft(10));
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      for (int level = 0; level <= 2; ++level) {
        TranspileOptions options;
        options.optimization_level = level;
        options.seed = 7;
        const std::string label = name + " circuit " + std::to_string(c) +
                                  " level " + std::to_string(level);
        const QuantumCircuit out =
            transpile(inputs[c], backend, options).circuit;
        const QuantumCircuit again = expect_matches_oracle(out, label);
        if (level == 0) {
          const QuantumCircuit fused = FuseSingleQubitGates().run(
              CommutativeCancellation().run(again));
          expect_matches_oracle(fused, label + " fused");
        } else {
          EXPECT_EQ(again.size(), out.size()) << label;  // a fixed point
        }
      }
    }
  }
}

}  // namespace
}  // namespace qtc::transpiler
