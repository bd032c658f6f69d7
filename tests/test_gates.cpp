#include "core/gates.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"

namespace qtc {
namespace {

std::vector<double> sample_params(OpKind kind) {
  switch (op_num_params(kind)) {
    case 0:
      return {};
    case 1:
      return {0.7};
    case 2:
      return {0.7, -1.1};
    default:
      return {0.7, -1.1, 2.3};
  }
}

class UnitaryGateTest : public ::testing::TestWithParam<OpKind> {};

TEST_P(UnitaryGateTest, MatrixIsUnitary) {
  const OpKind kind = GetParam();
  const Matrix m = op_matrix(kind, sample_params(kind));
  EXPECT_TRUE(m.is_unitary(1e-10)) << op_name(kind);
  EXPECT_EQ(m.rows(), std::size_t{1} << op_num_qubits(kind));
}

TEST_P(UnitaryGateTest, InverseComposesToIdentity) {
  const OpKind kind = GetParam();
  if (kind == OpKind::ISWAP) GTEST_SKIP() << "iswap inverse is out of set";
  const auto params = sample_params(kind);
  const Matrix m = op_matrix(kind, params);
  const auto [inv_kind, inv_params] = op_inverse(kind, params);
  const Matrix mi = op_matrix(inv_kind, inv_params);
  EXPECT_TRUE(
      (m * mi).equal_up_to_phase(Matrix::identity(m.rows()), 1e-9))
      << op_name(kind);
}

TEST_P(UnitaryGateTest, NameRoundTrips) {
  const OpKind kind = GetParam();
  const auto parsed = op_from_name(op_name(kind));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllUnitaries, UnitaryGateTest,
    ::testing::Values(OpKind::I, OpKind::X, OpKind::Y, OpKind::Z, OpKind::H,
                      OpKind::S, OpKind::Sdg, OpKind::T, OpKind::Tdg,
                      OpKind::SX, OpKind::SXdg, OpKind::RX, OpKind::RY,
                      OpKind::RZ, OpKind::P, OpKind::U2, OpKind::U, OpKind::CX,
                      OpKind::CY, OpKind::CZ, OpKind::CH, OpKind::CRX,
                      OpKind::CRY, OpKind::CRZ, OpKind::CP, OpKind::CU,
                      OpKind::SWAP, OpKind::ISWAP, OpKind::RZZ, OpKind::RXX,
                      OpKind::CCX, OpKind::CSWAP),
    [](const auto& info) { return op_name(info.param); });

TEST(Gates, HadamardMatrixValues) {
  const Matrix h = op_matrix(OpKind::H);
  EXPECT_NEAR(h(0, 0).real(), SQRT1_2, 1e-12);
  EXPECT_NEAR(h(1, 1).real(), -SQRT1_2, 1e-12);
}

TEST(Gates, TIsFourthRootOfZ) {
  const Matrix t = op_matrix(OpKind::T);
  const Matrix z = op_matrix(OpKind::Z);
  EXPECT_TRUE((t * t * t * t).approx_equal(z, 1e-12));
}

TEST(Gates, SXSquaredIsX) {
  const Matrix sx = op_matrix(OpKind::SX);
  EXPECT_TRUE((sx * sx).approx_equal(op_matrix(OpKind::X), 1e-12));
}

TEST(Gates, CXControlIsLeastSignificantLocalBit) {
  // Convention check (matches the paper's CNOT example in Sec. V-A up to
  // qubit ordering): control = qubits[0] = local LSB.
  const Matrix cx = op_matrix(OpKind::CX);
  // |q1 q0> = |01> (index 1, control set) -> |11> (index 3).
  EXPECT_EQ(cx(3, 1), cplx(1, 0));
  EXPECT_EQ(cx(1, 3), cplx(1, 0));
  // |10> (control clear) stays.
  EXPECT_EQ(cx(2, 2), cplx(1, 0));
}

TEST(Gates, SwapExchangesMixedStates) {
  const Matrix sw = op_matrix(OpKind::SWAP);
  EXPECT_EQ(sw(1, 2), cplx(1, 0));
  EXPECT_EQ(sw(2, 1), cplx(1, 0));
  EXPECT_EQ(sw(0, 0), cplx(1, 0));
  EXPECT_EQ(sw(3, 3), cplx(1, 0));
}

TEST(Gates, SwapEqualsThreeAlternatingCnots) {
  // The decomposition the paper quotes in Sec. V-B.
  const Matrix cx01 = op_matrix(OpKind::CX);
  // CX with control = qubits[1]: conjugate by SWAP or build by hand.
  Matrix cx10 = Matrix::identity(4);
  cx10(2, 2) = 0;
  cx10(3, 3) = 0;
  cx10(2, 3) = 1;
  cx10(3, 2) = 1;
  EXPECT_TRUE((cx01 * cx10 * cx01).approx_equal(op_matrix(OpKind::SWAP)));
}

TEST(Gates, CcxFlipsTargetOnlyWhenBothControlsSet) {
  const Matrix ccx = op_matrix(OpKind::CCX);
  EXPECT_EQ(ccx(7, 3), cplx(1, 0));  // |011> -> |111>
  EXPECT_EQ(ccx(3, 7), cplx(1, 0));
  EXPECT_EQ(ccx(5, 5), cplx(1, 0));  // only one control set: unchanged
}

TEST(Gates, U3MatrixMatchesNamedGates) {
  EXPECT_TRUE(u3_matrix(PI / 2, 0, PI).approx_equal(op_matrix(OpKind::H), 1e-12));
  EXPECT_TRUE(u3_matrix(PI, 0, PI).approx_equal(op_matrix(OpKind::X), 1e-12));
}

TEST(Gates, U2IsU3WithHalfPiTheta) {
  EXPECT_TRUE(op_matrix(OpKind::U2, {0.3, 0.9})
                  .approx_equal(u3_matrix(PI / 2, 0.3, 0.9), 1e-12));
}

TEST(Gates, RzIsPhaseUpToGlobalPhase) {
  const Matrix rz = op_matrix(OpKind::RZ, {0.8});
  const Matrix p = op_matrix(OpKind::P, {0.8});
  EXPECT_TRUE(rz.equal_up_to_phase(p, 1e-12));
  EXPECT_FALSE(rz.approx_equal(p, 1e-12));
}

TEST(Gates, WrongParameterCountThrows) {
  EXPECT_THROW(op_matrix(OpKind::RX, {}), std::invalid_argument);
  EXPECT_THROW(op_matrix(OpKind::H, {0.5}), std::invalid_argument);
  EXPECT_THROW(op_inverse(OpKind::U, {1.0}), std::invalid_argument);
}

TEST(Gates, NonUnitaryMatrixRequestThrows) {
  EXPECT_THROW(op_matrix(OpKind::Measure), std::invalid_argument);
  EXPECT_THROW(op_matrix(OpKind::Barrier), std::invalid_argument);
}

TEST(Gates, AliasesResolve) {
  EXPECT_EQ(op_from_name("u1"), OpKind::P);
  EXPECT_EQ(op_from_name("u3"), OpKind::U);
  EXPECT_EQ(op_from_name("cnot"), OpKind::CX);
  EXPECT_EQ(op_from_name("toffoli"), OpKind::CCX);
  EXPECT_FALSE(op_from_name("frobnicate").has_value());
}

TEST(Gates, MetadataForEveryKind) {
  // (name, qubits, params) for every OpKind in enum order: the metadata the
  // QASM/QBIN formats and the transpiler read.
  struct Expected {
    const char* name;
    int qubits;
    int params;
  };
  const std::vector<Expected> want = {
      {"id", 1, 0},     {"x", 1, 0},       {"y", 1, 0},     {"z", 1, 0},
      {"h", 1, 0},      {"s", 1, 0},       {"sdg", 1, 0},   {"t", 1, 0},
      {"tdg", 1, 0},    {"sx", 1, 0},      {"sxdg", 1, 0},  {"rx", 1, 1},
      {"ry", 1, 1},     {"rz", 1, 1},      {"p", 1, 1},     {"u2", 1, 2},
      {"u", 1, 3},      {"cx", 2, 0},      {"cy", 2, 0},    {"cz", 2, 0},
      {"ch", 2, 0},     {"crx", 2, 1},     {"cry", 2, 1},   {"crz", 2, 1},
      {"cp", 2, 1},     {"cu", 2, 3},      {"swap", 2, 0},  {"iswap", 2, 0},
      {"rzz", 2, 1},    {"rxx", 2, 1},     {"ccx", 3, 0},   {"cswap", 3, 0},
      {"measure", 1, 0}, {"reset", 1, 0},  {"barrier", 0, 0}, {"ecr", 2, 0}};
  ASSERT_EQ(want.size(), static_cast<std::size_t>(OpKind::ECR) + 1);
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto kind = static_cast<OpKind>(k);
    EXPECT_STREQ(op_name(kind), want[k].name) << k;
    EXPECT_EQ(op_num_qubits(kind), want[k].qubits) << want[k].name;
    EXPECT_EQ(op_num_params(kind), want[k].params) << want[k].name;
    const bool structural = kind == OpKind::Measure ||
                            kind == OpKind::Reset || kind == OpKind::Barrier;
    EXPECT_EQ(op_is_unitary(kind), !structural) << want[k].name;
  }
}

TEST(Gates, ZyzDecomposeRoundTripsRandomUnitaries) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const double theta = rng.uniform(0, PI);
    const double phi = rng.uniform(-PI, PI);
    const double lambda = rng.uniform(-PI, PI);
    const double alpha = rng.uniform(-PI, PI);
    const Matrix u =
        u3_matrix(theta, phi, lambda) * std::exp(cplx(0, alpha));
    const EulerAngles a = zyz_decompose(u);
    const Matrix rebuilt =
        u3_matrix(a.theta, a.phi, a.lambda) * std::exp(cplx(0, a.phase));
    EXPECT_LT(rebuilt.max_abs_diff(u), 1e-9);
  }
}

TEST(Gates, ZyzDecomposeHandlesDiagonalAndAntiDiagonal) {
  for (const OpKind kind : {OpKind::Z, OpKind::S, OpKind::T, OpKind::X,
                            OpKind::Y}) {
    const Matrix u = op_matrix(kind);
    const EulerAngles a = zyz_decompose(u);
    const Matrix rebuilt =
        u3_matrix(a.theta, a.phi, a.lambda) * std::exp(cplx(0, a.phase));
    EXPECT_LT(rebuilt.max_abs_diff(u), 1e-9) << op_name(kind);
  }
}

}  // namespace
}  // namespace qtc
