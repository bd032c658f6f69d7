#include "transpiler/decompose.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "sim/simulator.hpp"

namespace qtc::transpiler {
namespace {

void expect_equivalent(const QuantumCircuit& a, const QuantumCircuit& b) {
  const Matrix ua = sim::UnitarySimulator().unitary(a);
  const Matrix ub = sim::UnitarySimulator().unitary(b);
  EXPECT_TRUE(ua.equal_up_to_phase(ub, 1e-8));
}

bool only_basis_gates(const QuantumCircuit& qc) {
  for (const auto& op : qc.ops()) {
    if (!op_is_unitary(op.kind)) continue;
    if (op.kind != OpKind::RZ && op.kind != OpKind::SX &&
        op.kind != OpKind::CX && op.kind != OpKind::I)
      return false;
  }
  return true;
}

class RzSxGateTest : public ::testing::TestWithParam<OpKind> {};

TEST_P(RzSxGateTest, SingleGateTranslates) {
  const OpKind kind = GetParam();
  Rng rng(5);
  std::vector<double> params;
  for (int p = 0; p < op_num_params(kind); ++p)
    params.push_back(rng.uniform(-PI, PI));
  QuantumCircuit qc(1);
  qc.gate(kind, {0}, params);
  const QuantumCircuit basis = RewriteToRzSxBasis().run(qc);
  EXPECT_TRUE(only_basis_gates(basis)) << op_name(kind);
  expect_equivalent(qc, basis);
}

INSTANTIATE_TEST_SUITE_P(
    OneQubitGates, RzSxGateTest,
    ::testing::Values(OpKind::X, OpKind::Y, OpKind::Z, OpKind::H, OpKind::S,
                      OpKind::Sdg, OpKind::T, OpKind::Tdg, OpKind::SXdg,
                      OpKind::RX, OpKind::RY, OpKind::P, OpKind::U2,
                      OpKind::U),
    [](const auto& info) { return op_name(info.param); });

TEST(RzSxBasis, DiagonalGatesBecomeSingleRz) {
  QuantumCircuit qc(1);
  qc.t(0);
  const QuantumCircuit basis = RewriteToRzSxBasis().run(qc);
  ASSERT_EQ(basis.size(), 1u);
  EXPECT_EQ(basis.ops()[0].kind, OpKind::RZ);
  EXPECT_NEAR(basis.ops()[0].params[0], PI / 4, 1e-12);
}

TEST(RzSxBasis, IdentityVanishes) {
  QuantumCircuit qc(1);
  qc.rz(0.0, 0);
  // RZ is already in basis and kept; but a P(0) would vanish.
  QuantumCircuit qc2(1);
  qc2.p(0.0, 0);
  EXPECT_EQ(RewriteToRzSxBasis().run(qc2).size(), 0u);
}

TEST(RzSxBasis, GeneralGateUsesTwoSx) {
  QuantumCircuit qc(1);
  qc.h(0);
  const QuantumCircuit basis = RewriteToRzSxBasis().run(qc);
  EXPECT_EQ(basis.count(OpKind::SX), 2);
  EXPECT_LE(basis.count(OpKind::RZ), 3);
  expect_equivalent(qc, basis);
}

TEST(RzSxBasis, FullCircuitAfterDecomposition) {
  QuantumCircuit qc(3);
  qc.h(0).ccx(0, 1, 2).swap(1, 2).t(2).cry(0.7, 0, 2);
  const QuantumCircuit lowered =
      RewriteToRzSxBasis().run(DecomposeMultiQubit().run(qc));
  EXPECT_TRUE(only_basis_gates(lowered));
  expect_equivalent(qc, lowered);
}

TEST(RzSxBasis, PreservesMeasureAndConditions) {
  QuantumCircuit qc(1, 1);
  qc.h(0);
  qc.measure(0, 0);
  qc.y(0).c_if(0, 1);
  const QuantumCircuit basis = RewriteToRzSxBasis().run(qc);
  EXPECT_EQ(basis.count(OpKind::Measure), 1);
  int conditioned = 0;
  for (const auto& op : basis.ops())
    if (op.conditioned()) ++conditioned;
  EXPECT_GE(conditioned, 1);  // the Y expansion stays conditioned
}

TEST(RzSxBasis, RejectsUndcomposedMultiQubitGates) {
  QuantumCircuit qc(2);
  qc.swap(0, 1);
  EXPECT_THROW(RewriteToRzSxBasis().run(qc), std::invalid_argument);
}

TEST(RzSxBasis, RandomCircuitsStayEquivalent) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    QuantumCircuit qc(3);
    for (int g = 0; g < 25; ++g) {
      const int q = static_cast<int>(rng.index(3));
      switch (rng.index(5)) {
        case 0:
          qc.u(rng.uniform(0, PI), rng.uniform(-PI, PI),
               rng.uniform(-PI, PI), q);
          break;
        case 1:
          qc.h(q);
          break;
        case 2:
          qc.t(q);
          break;
        case 3:
          qc.ry(rng.uniform(-PI, PI), q);
          break;
        default:
          qc.cx(q, (q + 1) % 3);
      }
    }
    const QuantumCircuit basis = RewriteToRzSxBasis().run(qc);
    EXPECT_TRUE(only_basis_gates(basis));
    expect_equivalent(qc, basis);
  }
}

TEST(EcrRzSxBasis, OneSweepEqualsTheTwoPasses) {
  // Every 1q kind, CX (plain and conditioned), measures, barriers and
  // resets: the fused lowering must emit RewriteToRzSxBasis(
  // RewriteToEcrBasis(c)) exactly, parameters compared as doubles.
  const std::vector<OpKind> one_q = {
      OpKind::I,  OpKind::X,   OpKind::Y,    OpKind::Z,  OpKind::H,
      OpKind::S,  OpKind::Sdg, OpKind::T,    OpKind::Tdg, OpKind::SX,
      OpKind::SXdg, OpKind::RX, OpKind::RY,  OpKind::RZ, OpKind::P,
      OpKind::U2, OpKind::U};
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    QuantumCircuit qc(4, 2);
    for (int g = 0; g < 60; ++g) {
      const int q = static_cast<int>(rng.index(4));
      switch (rng.index(6)) {
        case 0:
          qc.cx(q, (q + 1) % 4);
          if (rng.index(3) == 0) qc.c_if(0, rng.index(4));
          break;
        case 1: qc.measure(q, static_cast<int>(rng.index(2))); break;
        case 2: qc.barrier({q, (q + 2) % 4}); break;
        case 3: qc.ecr(q, (q + 3) % 4); break;
        default: {
          const OpKind kind = one_q[rng.index(one_q.size())];
          std::vector<double> params;
          for (int p = 0; p < op_num_params(kind); ++p)
            params.push_back(rng.index(4) == 0 ? 0.0 : rng.uniform(-PI, PI));
          qc.gate(kind, {q}, params);
          if (rng.index(5) == 0) qc.c_if(0, rng.index(4));
        }
      }
    }
    const QuantumCircuit two_pass =
        RewriteToRzSxBasis().run(RewriteToEcrBasis().run(qc));
    const QuantumCircuit fused = RewriteToEcrRzSxBasis().run(qc);
    EXPECT_TRUE(fused == two_pass) << "trial " << trial;
  }
  QuantumCircuit multi(3);
  multi.h(0).cz(0, 1);
  try {
    RewriteToEcrRzSxBasis().run(multi);
    ADD_FAILURE() << "CZ was not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rewrite-ecr-basis"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace qtc::transpiler
