#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

namespace qtc::sim {
namespace {

TEST(Simulator, BellCountsAreCorrelatedAndBalanced) {
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  StatevectorSimulator sim(123);
  const RunResult r = sim.run(qc, 4000);
  EXPECT_EQ(r.counts.shots, 4000);
  EXPECT_EQ(r.counts.count("01") + r.counts.count("10"), 0);
  EXPECT_NEAR(r.counts.probability("00"), 0.5, 0.05);
  EXPECT_NEAR(r.counts.probability("11"), 0.5, 0.05);
}

TEST(Simulator, DeterministicCircuitIsDeterministic) {
  QuantumCircuit qc(3, 3);
  qc.x(0).x(2).measure_all();
  StatevectorSimulator sim;
  const RunResult r = sim.run(qc, 100);
  EXPECT_EQ(r.counts.count("101"), 100);
}

TEST(Simulator, NoMeasurementRecordsAllZeroKey) {
  // A circuit with no clbit records the empty key once per shot; its state
  // comes from statevector().
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  StatevectorSimulator sim;
  const RunResult r = sim.run(qc, 10);
  EXPECT_EQ(r.counts.histogram, (std::map<std::string, int>{{"", 10}}));
  EXPECT_EQ(r.counts.shots, 10);
  const Statevector sv = sim.statevector(qc);
  EXPECT_NEAR(std::abs(sv.amplitude(0)), SQRT1_2, 1e-12);
}

TEST(Simulator, PartialMeasurementUsesOnlyMappedClbits) {
  QuantumCircuit qc(2, 1);
  qc.x(1).measure(1, 0);
  StatevectorSimulator sim;
  const RunResult r = sim.run(qc, 50);
  EXPECT_EQ(r.counts.count("1"), 50);
}

TEST(Simulator, GateAfterMeasureForcesPerShotPath) {
  // measure then X then measure again: needs the general path.
  QuantumCircuit qc(1, 2);
  qc.h(0);
  qc.measure(0, 0);
  qc.x(0);
  qc.measure(0, 1);
  StatevectorSimulator sim(9);
  const RunResult r = sim.run(qc, 400);
  // Second bit must always be the complement of the first.
  EXPECT_EQ(r.counts.count("00"), 0);
  EXPECT_EQ(r.counts.count("11"), 0);
  EXPECT_NEAR(r.counts.probability("01"), 0.5, 0.08);
  EXPECT_NEAR(r.counts.probability("10"), 0.5, 0.08);
}

TEST(Simulator, ConditionalCorrectionTeleportation) {
  // Teleport RY(1.23)|0> from qubit 0 to qubit 2 with classical corrections.
  const double angle = 1.23;
  // Use separate 1-bit cregs so each correction conditions on its own bit
  // (c_if compares the value of a whole register, as OpenQASM's `if` does).
  QuantumCircuit tele;
  tele.add_qreg("q", 3);
  const int m0 = tele.add_creg("m0", 1);
  const int m1 = tele.add_creg("m1", 1);
  tele.add_creg("out", 1);
  tele.ry(angle, 0);
  tele.h(1).cx(1, 2);
  tele.cx(0, 1).h(0);
  tele.measure(0, 0);  // creg m0 holds clbit 0
  tele.measure(1, 1);  // creg m1 holds clbit 1
  tele.x(2).c_if(m1, 1);
  tele.z(2).c_if(m0, 1);
  tele.measure(2, 2);
  StatevectorSimulator sim(77);
  const RunResult r = sim.run(tele, 3000);
  // P(out = 1) = sin^2(angle / 2), regardless of the two measurement bits.
  const double p1 = std::pow(std::sin(angle / 2), 2);
  int ones = 0;
  for (const auto& [bits, c] : r.counts.histogram)
    if (bits[0] == '1') ones += c;  // leftmost char = highest clbit = out
  EXPECT_NEAR(ones / 3000.0, p1, 0.04);
}

TEST(Simulator, ResetInMiddleOfCircuit) {
  QuantumCircuit qc(1, 1);
  qc.h(0);
  qc.reset(0);
  qc.measure(0, 0);
  StatevectorSimulator sim;
  const RunResult r = sim.run(qc, 200);
  EXPECT_EQ(r.counts.count("0"), 200);
}

TEST(Simulator, SamplingAndPerShotPathsAgree) {
  // Same circuit with and without a trailing gate that forces the slow path;
  // distributions must match.
  QuantumCircuit fast(2, 2);
  fast.h(0).cx(0, 1).measure_all();
  QuantumCircuit slow(2, 2);
  slow.h(0).cx(0, 1);
  slow.measure(0, 0);
  slow.measure(1, 1);
  slow.id(0);  // gate after measurement: disables sampling optimization
  StatevectorSimulator sim1(42), sim2(42);
  const auto r1 = sim1.run(fast, 3000);
  const auto r2 = sim2.run(slow, 3000);
  EXPECT_NEAR(r1.counts.probability("00"), r2.counts.probability("00"), 0.05);
  EXPECT_NEAR(r1.counts.probability("11"), r2.counts.probability("11"), 0.05);
}

TEST(Simulator, InvalidShotsThrows) {
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  StatevectorSimulator sim;
  EXPECT_THROW(sim.run(qc, 0), std::invalid_argument);
}

TEST(Simulator, StatevectorOfConditionedCircuitThrows) {
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  qc.x(0).c_if(0, 1);
  StatevectorSimulator sim;
  EXPECT_THROW(sim.statevector(qc), std::invalid_argument);
}

TEST(UnitarySim, HGateUnitary) {
  QuantumCircuit qc(1);
  qc.h(0);
  const Matrix u = UnitarySimulator().unitary(qc);
  EXPECT_TRUE(u.approx_equal(op_matrix(OpKind::H), 1e-12));
}

TEST(UnitarySim, CompositionOrder) {
  // Circuit h(0) then x(0): U = X * H (later gates multiply from the left).
  QuantumCircuit qc(1);
  qc.h(0).x(0);
  const Matrix u = UnitarySimulator().unitary(qc);
  EXPECT_TRUE(
      u.approx_equal(op_matrix(OpKind::X) * op_matrix(OpKind::H), 1e-12));
}

TEST(UnitarySim, TwoQubitCircuitIsUnitary) {
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1).t(1).cx(1, 0);
  const Matrix u = UnitarySimulator().unitary(qc);
  EXPECT_TRUE(u.is_unitary(1e-10));
}

TEST(UnitarySim, MatchesStatevectorOnRandomCircuit) {
  Rng rng(13);
  QuantumCircuit qc(3);
  for (int g = 0; g < 25; ++g) {
    switch (rng.index(4)) {
      case 0:
        qc.h(static_cast<int>(rng.index(3)));
        break;
      case 1:
        qc.t(static_cast<int>(rng.index(3)));
        break;
      case 2:
        qc.rx(rng.uniform(-PI, PI), static_cast<int>(rng.index(3)));
        break;
      default: {
        const int a = static_cast<int>(rng.index(3));
        const int b = (a + 1 + static_cast<int>(rng.index(2))) % 3;
        qc.cx(a, b);
      }
    }
  }
  const Matrix u = UnitarySimulator().unitary(qc);
  StatevectorSimulator sim;
  const auto sv = sim.statevector(qc);
  // Column 0 of U is the image of |000>.
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_LT(std::abs(u(i, 0) - sv.amplitudes()[i]), 1e-10);
}

TEST(UnitarySim, RejectsMeasurement) {
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  EXPECT_THROW(UnitarySimulator().unitary(qc), std::invalid_argument);
}

TEST(Counts, HistogramFormattingAndQueries) {
  Counts counts;
  for (int i = 0; i < 30; ++i) counts.record("00");
  for (int i = 0; i < 10; ++i) counts.record("11");
  EXPECT_EQ(counts.shots, 40);
  EXPECT_EQ(counts.most_frequent(), "00");
  EXPECT_NEAR(counts.probability("11"), 0.25, 1e-12);
  EXPECT_EQ(counts.probability("01"), 0.0);
  const std::string s = counts.to_string();
  EXPECT_NE(s.find("00"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(CregValue, ReadsRegisterBits) {
  Register reg{"c", 3, 1};
  // clbits: [x, b0, b1, b2]
  EXPECT_EQ(creg_value(reg, {1, 1, 0, 1}), 0b101u);
  EXPECT_EQ(creg_value(reg, {1, 0, 0, 0}), 0u);
}

}  // namespace
}  // namespace qtc::sim
