#include "noise/channel.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "arch/backend.hpp"
#include "sim/simulator.hpp"

namespace qtc::noise {
namespace {

// --- channels ---------------------------------------------------------------

struct NamedChannel {
  const char* name;
  KrausChannel channel;
};

// Print the parameter by name only. GoogleTest's default printer dumps the
// pointer and the object bytes, so the listed test names would change with
// every process run under address-space randomisation.
void PrintTo(const NamedChannel& c, std::ostream* os) { *os << c.name; }

class CptpChannelTest : public ::testing::TestWithParam<NamedChannel> {};

TEST_P(CptpChannelTest, IsTracePreserving) {
  EXPECT_TRUE(is_cptp(GetParam().channel)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, CptpChannelTest,
    ::testing::Values(
        NamedChannel{"identity", identity_channel()},
        NamedChannel{"depolarizing", depolarizing(0.1)},
        NamedChannel{"depolarizing_full", depolarizing(1.0)},
        NamedChannel{"depolarizing2", depolarizing2(0.08)},
        NamedChannel{"bit_flip", bit_flip(0.2)},
        NamedChannel{"phase_flip", phase_flip(0.3)},
        NamedChannel{"bit_phase_flip", bit_phase_flip(0.15)},
        NamedChannel{"amplitude_damping", amplitude_damping(0.25)},
        NamedChannel{"phase_damping", phase_damping(0.4)},
        NamedChannel{"thermal", thermal_relaxation(50, 40, 1.0)},
        NamedChannel{"composed",
                     compose(amplitude_damping(0.1), phase_flip(0.05))}),
    [](const auto& info) { return info.param.name; });

TEST(Channel, BadProbabilityThrows) {
  EXPECT_THROW(depolarizing(-0.1), std::invalid_argument);
  EXPECT_THROW(bit_flip(1.5), std::invalid_argument);
  EXPECT_THROW(thermal_relaxation(10, 25, 1.0), std::invalid_argument);
  EXPECT_THROW(thermal_relaxation(-1, 1, 1.0), std::invalid_argument);
}

TEST(Channel, ComposeArityMismatchThrows) {
  EXPECT_THROW(compose(depolarizing(0.1), depolarizing2(0.1)),
               std::invalid_argument);
}

TEST(Channel, AmplitudeDampingDecaysExcitedState) {
  // |1><1| under amplitude damping gamma: P(1) -> 1 - gamma.
  const double gamma = 0.3;
  DensityMatrix rho(std::vector<cplx>{0, 1});
  rho.apply_channel(amplitude_damping(gamma), {0});
  EXPECT_NEAR(rho.probability_of_one(0), 1 - gamma, 1e-12);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
}

TEST(Channel, PhaseDampingKillsCoherence) {
  // |+><+| under full phase damping becomes maximally mixed diagonal.
  DensityMatrix rho(std::vector<cplx>{SQRT1_2, SQRT1_2});
  rho.apply_channel(phase_damping(1.0), {0});
  EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(rho.probability_of_one(0), 0.5, 1e-12);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(Channel, DepolarizingShrinksBlochVector) {
  // <Z> of |0> under depolarizing(p) shrinks by 1 - 4p/3.
  const double p = 0.3;
  DensityMatrix rho(1);
  rho.apply_channel(depolarizing(p), {0});
  EXPECT_NEAR(rho.expectation_pauli("Z"), 1 - 4 * p / 3, 1e-12);
}


TEST(Channel, TensorOfSingleQubitChannelsIsCptp) {
  const KrausChannel combined =
      tensor(amplitude_damping(0.2), phase_damping(0.3));
  EXPECT_EQ(combined.num_qubits, 2);
  EXPECT_TRUE(is_cptp(combined));
  EXPECT_THROW(tensor(depolarizing2(0.1), depolarizing(0.1)),
               std::invalid_argument);
}

TEST(Channel, TensorActsIndependently) {
  // Damping on the low qubit only must not touch the high qubit.
  DensityMatrix rho(std::vector<cplx>{0, 0, 0, 1});  // |11>
  rho.apply_channel(tensor(amplitude_damping(1.0), identity_channel()),
                    {0, 1});
  // Qubit 0 decayed to |0>, qubit 1 still |1>: state |10>.
  EXPECT_NEAR(rho.probability_of_one(0), 0.0, 1e-12);
  EXPECT_NEAR(rho.probability_of_one(1), 1.0, 1e-12);
}

TEST(NoiseModel, FromBackendIncludesThermalRelaxation) {
  // The |1> state must decay under repeated noisy identity-free gates: use
  // an X-pair (logical identity) so only the channel acts asymmetrically.
  const NoiseModel model = from_backend(arch::qx4_backend());
  Operation x;
  x.kind = OpKind::X;
  x.qubits = {0};
  const auto ch = model.error_for(x);
  ASSERT_TRUE(ch.has_value());
  // Amplitude damping breaks unital symmetry: Lambda(|1><1|) keeps less
  // excited-state population than Lambda(|0><0|) keeps ground population.
  DensityMatrix excited(std::vector<cplx>{0, 1});
  excited.apply_channel(*ch, {0});
  DensityMatrix ground(std::vector<cplx>{1, 0});
  ground.apply_channel(*ch, {0});
  EXPECT_LT(excited.probability_of_one(0), 1.0 - 1e-6);
  EXPECT_GT(1.0 - ground.probability_of_one(0),
            excited.probability_of_one(0));
}

// --- noise model ------------------------------------------------------------

TEST(NoiseModel, AllQubitErrorMatchesEveryOperand) {
  NoiseModel model;
  model.add_all_qubit_error(bit_flip(0.1), OpKind::H);
  Operation op;
  op.kind = OpKind::H;
  op.qubits = {3};
  EXPECT_TRUE(model.error_for(op).has_value());
  op.kind = OpKind::X;
  EXPECT_FALSE(model.error_for(op).has_value());
}

TEST(NoiseModel, SpecificQubitErrorTakesPrecedence) {
  NoiseModel model;
  model.add_all_qubit_error(bit_flip(0.1), OpKind::H);
  model.add_qubit_error(bit_flip(0.9), OpKind::H, {2});
  Operation op;
  op.kind = OpKind::H;
  op.qubits = {2};
  const auto ch = model.error_for(op);
  ASSERT_TRUE(ch.has_value());
  // p = 0.9 channel has sqrt(0.1) on the identity Kraus op.
  EXPECT_NEAR(ch->ops[0](0, 0).real(), std::sqrt(0.1), 1e-12);
}

TEST(NoiseModel, ArityMismatchThrows) {
  NoiseModel model;
  EXPECT_THROW(model.add_all_qubit_error(depolarizing(0.1), OpKind::CX),
               std::invalid_argument);
  EXPECT_THROW(model.add_all_qubit_error(depolarizing2(0.1), OpKind::H),
               std::invalid_argument);
  EXPECT_THROW(model.add_all_qubit_error(depolarizing(0.1), OpKind::Measure),
               std::invalid_argument);
}

TEST(NoiseModel, ReadoutErrorFlipsWithGivenProbability) {
  NoiseModel model;
  model.set_readout_error(0, {1.0, 0.0});  // always flip 1 -> 0
  Rng rng(1);
  EXPECT_EQ(model.apply_readout(0, 1, rng), 0);
  EXPECT_EQ(model.apply_readout(0, 0, rng), 0);
  EXPECT_EQ(model.apply_readout(5, 1, rng), 1);  // no error registered
}

TEST(NoiseModel, FromBackendCoversGatesAndReadout) {
  const NoiseModel model = from_backend(arch::qx4_backend());
  EXPECT_TRUE(model.has_noise());
  Operation h;
  h.kind = OpKind::H;
  h.qubits = {0};
  EXPECT_TRUE(model.error_for(h).has_value());
  Operation cx;
  cx.kind = OpKind::CX;
  cx.qubits = {3, 2};  // native edge
  EXPECT_TRUE(model.error_for(cx).has_value());
  cx.qubits = {2, 3};  // reversed orientation also noisy
  EXPECT_TRUE(model.error_for(cx).has_value());
  cx.qubits = {0, 4};  // not a coupled pair: no specific error registered
  EXPECT_FALSE(model.error_for(cx).has_value());
  EXPECT_NE(model.readout_error(0), nullptr);
}

// --- density matrix ----------------------------------------------------------

TEST(DensityMatrix, PureStateConstructorReproducesProjector) {
  DensityMatrix rho(std::vector<cplx>{SQRT1_2, 0, 0, SQRT1_2});
  EXPECT_NEAR(rho.matrix()(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.matrix()(0, 3).real(), 0.5, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, NoiselessEvolutionMatchesStatevector) {
  QuantumCircuit qc(3);
  qc.h(0).cx(0, 1).t(1).cx(1, 2).rz(0.3, 2).h(2);
  sim::StatevectorSimulator svsim;
  const auto sv = svsim.statevector(qc).amplitudes();
  DensityMatrixSimulator dmsim;
  const DensityMatrix rho = dmsim.evolve(qc, NoiseModel{});
  EXPECT_NEAR(rho.fidelity(sv), 1.0, 1e-10);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
}

TEST(DensityMatrix, DepolarizedBellFidelityMatchesAnalytic) {
  // Bell circuit with 2q depolarizing p after the CX. Our convention is
  // "one of the 15 non-identity Paulis with probability p", equivalent to
  // rho -> (1 - 16p/15) rho + (16p/15) I/4, so the Bell fidelity is
  // F = 1 - (16p/15)(3/4) = 1 - 0.8 p.
  const double p = 0.2;
  NoiseModel model;
  model.add_all_qubit_error(depolarizing2(p), OpKind::CX);
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  DensityMatrixSimulator sim;
  const DensityMatrix rho = sim.evolve(qc, model);
  sim::StatevectorSimulator svsim;
  const auto ideal = svsim.statevector(qc).amplitudes();
  EXPECT_NEAR(rho.fidelity(ideal), 1 - 0.8 * p, 1e-10);
}

TEST(DensityMatrix, PartialTraceOfBellIsMaximallyMixed) {
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  DensityMatrixSimulator sim;
  const DensityMatrix rho = sim.evolve(qc, NoiseModel{});
  const DensityMatrix reduced = rho.partial_trace({0});
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.matrix()(1, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(reduced.matrix()(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(reduced.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfProductStateStaysPure) {
  QuantumCircuit qc(2);
  qc.h(0).x(1);
  DensityMatrixSimulator sim;
  const DensityMatrix rho = sim.evolve(qc, NoiseModel{});
  EXPECT_NEAR(rho.partial_trace({0}).purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.partial_trace({1}).probability_of_one(0), 1.0, 1e-12);
}

TEST(DensityMatrix, ExpectationPauliAgreesWithStatevector) {
  QuantumCircuit qc(2);
  qc.h(0).cx(0, 1);
  DensityMatrixSimulator dms;
  const DensityMatrix rho = dms.evolve(qc, NoiseModel{});
  EXPECT_NEAR(rho.expectation_pauli("ZZ"), 1.0, 1e-10);
  EXPECT_NEAR(rho.expectation_pauli("XX"), 1.0, 1e-10);
  EXPECT_NEAR(rho.expectation_pauli("YY"), -1.0, 1e-10);
}

TEST(DensityMatrix, SamplingWithReadoutError) {
  NoiseModel model;
  model.set_readout_error(0, {0.0, 1.0});  // always read 1 when state is 0
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  DensityMatrixSimulator sim;
  const auto result = sim.run(qc, model, 100);
  EXPECT_EQ(result.counts.count("1"), 100);
}

TEST(DensityMatrix, RejectsResetAndConditioned) {
  NoiseModel none;
  DensityMatrixSimulator sim;
  QuantumCircuit with_reset(1, 1);
  with_reset.reset(0);
  EXPECT_THROW(sim.evolve(with_reset, none), std::invalid_argument);
}

TEST(DensityMatrix, RejectsGateAfterMeasureOnSameWire) {
  // Skipping the measurement would evolve h q0; h q0 and return 00 every
  // shot: the engine has no collapse path, so it must reject the circuit.
  const NoiseModel none;
  DensityMatrixSimulator sim(7);
  QuantumCircuit gate_after(1, 2);
  gate_after.h(0).measure(0, 0).h(0).measure(0, 1);
  EXPECT_THROW(sim.run(gate_after, none, 10), std::invalid_argument);
  EXPECT_THROW(sim.evolve(gate_after, none), std::invalid_argument);
  QuantumCircuit twice(1, 2);
  twice.h(0).measure(0, 0).measure(0, 1);
  EXPECT_THROW(sim.run(twice, none, 10), std::invalid_argument);
  EXPECT_THROW(sim.evolve(twice, none), std::invalid_argument);
}

TEST(DensityMatrix, AllowsGatesOnUnmeasuredWiresAfterOtherMeasures) {
  QuantumCircuit qc(2, 2);
  qc.x(0).measure(0, 0);
  qc.x(1).measure(1, 1);
  DensityMatrixSimulator sim(5);
  const auto result = sim.run(qc, NoiseModel{}, 100);
  EXPECT_EQ(result.counts.count("11"), 100);
}

// --- trajectory simulator ----------------------------------------------------

TEST(Trajectory, NoiselessMatchesIdealSimulator) {
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  TrajectorySimulator traj(5);
  const auto counts = traj.run(qc, NoiseModel{}, 2000);
  EXPECT_EQ(counts.count("01") + counts.count("10"), 0);
  EXPECT_NEAR(counts.probability("00"), 0.5, 0.05);
}

TEST(Trajectory, MatchesDensityMatrixUnderDepolarizing) {
  const double p = 0.1;
  NoiseModel model;
  model.add_all_qubit_error(depolarizing2(p), OpKind::CX);
  model.add_all_qubit_error(depolarizing(p / 10), OpKind::H);
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  DensityMatrixSimulator dms(7);
  TrajectorySimulator traj(11);
  const auto exact = dms.run(qc, model, 20000);
  const auto sampled = traj.run(qc, model, 20000);
  for (const std::string key : {"00", "01", "10", "11"})
    EXPECT_NEAR(sampled.probability(key), exact.counts.probability(key), 0.02)
        << key;
}

TEST(Trajectory, BitFlipAfterEveryXGate) {
  NoiseModel model;
  model.add_all_qubit_error(bit_flip(1.0), OpKind::X);  // always flip back
  QuantumCircuit qc(1, 1);
  qc.x(0).measure(0, 0);
  TrajectorySimulator traj;
  const auto counts = traj.run(qc, model, 100);
  EXPECT_EQ(counts.count("0"), 100);  // X then guaranteed flip = identity
}

TEST(Trajectory, SupportsConditionalsUnderNoise) {
  NoiseModel model;
  model.set_readout_error(0, {0.0, 0.0});
  QuantumCircuit qc(2, 2);
  qc.x(0);
  qc.measure(0, 0);
  qc.x(1).c_if(0, 1);
  qc.measure(1, 1);
  TrajectorySimulator traj;
  const auto counts = traj.run(qc, model, 50);
  EXPECT_EQ(counts.count("11"), 50);
}

TEST(Trajectory, ReadoutErrorRate) {
  NoiseModel model;
  model.set_readout_error(0, {0.0, 0.25});
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  TrajectorySimulator traj(33);
  const auto counts = traj.run(qc, model, 8000);
  EXPECT_NEAR(counts.probability("1"), 0.25, 0.02);
}

TEST(Trajectory, GhzSuccessProbabilityDegradesWithNoise) {
  // The paper's Aer story: growing noise deteriorates algorithm output.
  auto ghz_success = [](double p) {
    NoiseModel model = uniform_depolarizing(p / 10, p);
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measure_all();
    TrajectorySimulator traj(17);
    const auto counts = traj.run(qc, model, 4000);
    return counts.probability("000") + counts.probability("111");
  };
  const double clean = ghz_success(0.0);
  const double mild = ghz_success(0.02);
  const double heavy = ghz_success(0.2);
  EXPECT_NEAR(clean, 1.0, 1e-12);
  EXPECT_GT(clean, mild);
  EXPECT_GT(mild, heavy);
}

}  // namespace
}  // namespace qtc::noise
