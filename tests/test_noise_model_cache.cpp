// Noise model sharing: noise::from_backend builds each backend's model once
// and hands out copies that share its immutable Kraus channels. These tests
// pin the sharing (same input => same channel objects, 1q channels shared
// across gate kinds, CX/ECR sharing one channel per operand order), the
// exact cache key (one changed T1 rebuilds), the single entry (a miss
// replaces it), copy isolation (mutating a returned model never leaks into
// the memo), thread safety, and — the
// contract that matters — that execution under shared channels is bitwise
// identical to execution under a model rebuilt channel by channel with
// private deep copies.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/backend.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "exec/execute.hpp"
#include "ignis/quantum_volume.hpp"
#include "noise/channel.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"

namespace qtc {
namespace {

using noise::KrausChannel;
using noise::NoiseModel;

const OpKind k1qKinds[] = {OpKind::U,  OpKind::U2, OpKind::P,  OpKind::H,
                           OpKind::X,  OpKind::T,  OpKind::S,  OpKind::RZ,
                           OpKind::RX, OpKind::RY, OpKind::SX, OpKind::SXdg};

Operation gate(OpKind kind, std::vector<int> qubits) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  return op;
}

/// Every channel lookup from_backend defines, in a fixed order.
std::vector<const KrausChannel*> all_channels(const NoiseModel& model,
                                              const arch::Backend& backend) {
  std::vector<const KrausChannel*> out;
  for (int q = 0; q < backend.num_qubits(); ++q)
    for (OpKind kind : k1qKinds)
      out.push_back(model.find_error(gate(kind, {q})));
  for (const auto& [a, b] : backend.coupling_map().edges())
    for (OpKind kind : {OpKind::CX, OpKind::ECR}) {
      out.push_back(model.find_error(gate(kind, {a, b})));
      out.push_back(model.find_error(gate(kind, {b, a})));
    }
  return out;
}

bool same_matrices(const KrausChannel& a, const KrausChannel& b) {
  if (a.num_qubits != b.num_qubits || a.ops.size() != b.ops.size())
    return false;
  for (std::size_t k = 0; k < a.ops.size(); ++k) {
    const Matrix& x = a.ops[k];
    const Matrix& y = b.ops[k];
    if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < x.cols(); ++c)
        if (x(r, c) != y(r, c)) return false;
  }
  return true;
}

/// The calibration model rebuilt through the public channel API with the
/// value overloads, so every (gate kind, qubits) entry owns a private deep
/// copy: the unshared reference the memoized model must match bit for bit.
NoiseModel deep_copy_model(const arch::Backend& backend) {
  NoiseModel model;
  const arch::Calibration& cal = backend.calibration();
  for (int q = 0; q < backend.num_qubits(); ++q) {
    for (OpKind kind : k1qKinds)
      model.add_qubit_error(
          noise::compose(noise::depolarizing(cal.single_qubit_error[q]),
                         noise::thermal_relaxation(cal.t1_us[q], cal.t2_us[q],
                                                   cal.gate_time_1q_us)),
          kind, {q});
    model.set_readout_error(q, {cal.readout_error[q], cal.readout_error[q]});
  }
  const auto& edges = backend.coupling_map().edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, b] = edges[e];
    const double dur = e < cal.cx_duration_us.size() ? cal.cx_duration_us[e]
                                                     : cal.gate_time_cx_us;
    auto relax = [&](int q) {
      return noise::thermal_relaxation(cal.t1_us[q], cal.t2_us[q], dur);
    };
    for (OpKind kind : {OpKind::CX, OpKind::ECR}) {
      model.add_qubit_error(
          noise::compose(noise::depolarizing2(cal.cx_error[e]),
                         noise::tensor(relax(a), relax(b))),
          kind, {a, b});
      model.add_qubit_error(
          noise::compose(noise::depolarizing2(cal.cx_error[e]),
                         noise::tensor(relax(b), relax(a))),
          kind, {b, a});
    }
  }
  return model;
}

TEST(NoiseModelCache, RepeatedCallsShareChannels) {
  const arch::Backend qx5 = arch::qx5_backend();
  const NoiseModel first = noise::from_backend(qx5);
  const NoiseModel second = noise::from_backend(qx5);
  const auto a = all_channels(first, qx5);
  const auto b = all_channels(second, qx5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NE(a[i], nullptr) << i;
    EXPECT_EQ(a[i], b[i]) << i;
  }
  // A plain copy shares too.
  const NoiseModel copy = first;
  EXPECT_EQ(all_channels(copy, qx5), a);
}

TEST(NoiseModelCache, OneChannelPerQubitAndPerOperandOrder) {
  const arch::Backend qx5 = arch::qx5_backend();
  const NoiseModel model = noise::from_backend(qx5);
  for (int q = 0; q < qx5.num_qubits(); ++q) {
    const KrausChannel* u = model.find_error(gate(OpKind::U, {q}));
    for (OpKind kind : k1qKinds)
      EXPECT_EQ(model.find_error(gate(kind, {q})), u) << q;
  }
  for (const auto& [a, b] : qx5.coupling_map().edges()) {
    const KrausChannel* fwd = model.find_error(gate(OpKind::CX, {a, b}));
    const KrausChannel* rev = model.find_error(gate(OpKind::CX, {b, a}));
    EXPECT_EQ(model.find_error(gate(OpKind::ECR, {a, b})), fwd);
    EXPECT_EQ(model.find_error(gate(OpKind::ECR, {b, a})), rev);
    EXPECT_NE(fwd, rev);
    ASSERT_NE(fwd, nullptr);
    EXPECT_EQ(fwd->ops.size(), 256u);
  }
}

TEST(NoiseModelCache, DifferentT1GetsDifferentChannels) {
  const arch::Backend qx5 = arch::qx5_backend();
  arch::Calibration cal = qx5.calibration();
  cal.t1_us[3] *= 1.5;
  const arch::Backend slower(qx5.coupling_map(), cal, qx5.basis());
  const NoiseModel base = noise::from_backend(qx5);
  const NoiseModel changed = noise::from_backend(slower);
  const Operation h3 = gate(OpKind::H, {3});
  ASSERT_NE(changed.find_error(h3), base.find_error(h3));
  EXPECT_FALSE(same_matrices(*changed.find_error(h3), *base.find_error(h3)));
  // Qubits whose calibration did not change get equal (not stale) channels.
  const Operation h4 = gate(OpKind::H, {4});
  EXPECT_TRUE(same_matrices(*changed.find_error(h4), *base.find_error(h4)));
  // And the original input still builds the original matrices.
  EXPECT_TRUE(same_matrices(*noise::from_backend(qx5).find_error(h3),
                            *base.find_error(h3)));
}

TEST(NoiseModelCache, MutatingACopyDoesNotLeak) {
  const arch::Backend qx4 = arch::qx4_backend();
  NoiseModel mutated = noise::from_backend(qx4);
  const Operation h0 = gate(OpKind::H, {0});
  const KrausChannel* original = mutated.find_error(h0);
  const double readout = mutated.readout_error(0)->p1_given_0;
  mutated.add_qubit_error(noise::depolarizing(0.5), OpKind::H, {0});
  mutated.add_all_qubit_error(noise::depolarizing(0.5), OpKind::Y);
  mutated.set_readout_error(0, {0.4, 0.4});
  ASSERT_NE(mutated.find_error(h0), original);

  const NoiseModel fresh = noise::from_backend(qx4);
  EXPECT_EQ(fresh.find_error(h0), original);
  EXPECT_EQ(fresh.find_error(gate(OpKind::Y, {0})), nullptr);
  EXPECT_EQ(fresh.readout_error(0)->p1_given_0, readout);
}

TEST(NoiseModelCache, AMissReplacesTheSingleEntry) {
  const arch::Backend qx4 = arch::qx4_backend();
  const arch::Backend qx5 = arch::qx5_backend();
  const Operation h0 = gate(OpKind::H, {0});
  // Held so the first model's channels cannot be freed and their address
  // reused by the rebuild below.
  const NoiseModel first = noise::from_backend(qx4);
  EXPECT_EQ(noise::from_backend(qx4).find_error(h0), first.find_error(h0));
  noise::from_backend(qx5);
  const NoiseModel rebuilt = noise::from_backend(qx4);
  EXPECT_NE(rebuilt.find_error(h0), first.find_error(h0));
  EXPECT_TRUE(same_matrices(*rebuilt.find_error(h0), *first.find_error(h0)));
  // The rebuilt model is the entry now.
  EXPECT_EQ(noise::from_backend(qx4).find_error(h0), rebuilt.find_error(h0));
}

TEST(NoiseModelCache, ConcurrentCallsAgree) {
  const std::vector<arch::Backend> backends = {
      arch::qx4_backend(), arch::qx5_backend(),
      arch::Backend(arch::ibm_qx2(),
                    arch::default_calibration(arch::ibm_qx2()))};
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  // The models themselves are kept: the memo's single entry is replaced
  // over and over, and only the copies keep their channels alive.
  std::vector<std::vector<NoiseModel>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        seen[t].push_back(
            noise::from_backend(backends[(t + r) % backends.size()]));
    });
  for (std::thread& th : threads) th.join();
  std::vector<NoiseModel> reference;
  for (const arch::Backend& backend : backends)
    reference.push_back(deep_copy_model(backend));
  for (int t = 0; t < kThreads; ++t)
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t b = (t + r) % backends.size();
      const auto got = all_channels(seen[t][r], backends[b]);
      const auto want = all_channels(reference[b], backends[b]);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_TRUE(same_matrices(*got[i], *want[i]))
            << "thread " << t << " round " << r << " channel " << i;
      }
    }
}

TEST(NoiseModelCache, PlanBorrowsTheModelsChannels) {
  const arch::Backend qx5 = arch::qx5_backend();
  const NoiseModel model = noise::from_backend(qx5);
  QuantumCircuit qc(16, 2);
  qc.h(1).cx(1, 2).x(3).measure(1, 0).measure(2, 1);
  const noise::TrajectoryPlan plan = noise::compile_trajectory_plan(qc, model);
  int noisy = 0;
  for (const auto& step : plan.steps) {
    if (step.fused.kind != sim::FusedOp::Kind::Op) continue;
    if (op_is_unitary(step.fused.op.kind)) {
      EXPECT_EQ(step.channel, model.find_error(step.fused.op));
      ++noisy;
    } else {
      EXPECT_EQ(step.channel, nullptr);
    }
  }
  EXPECT_EQ(noisy, plan.noisy_gates);
  EXPECT_EQ(plan.noisy_gates, 3);
}

TEST(NoiseModelCache, ExecuteMatchesDeepCopiedModel) {
  struct Restore {
    ~Restore() { parallel::set_num_threads(0); }
  } restore;
  for (const arch::Backend& backend :
       {arch::qx4_backend(), arch::qx5_backend()}) {
    const NoiseModel deep = deep_copy_model(backend);
    // The reference really is unshared: each entry owns its matrices.
    ASSERT_NE(deep.find_error(gate(OpKind::H, {0})),
              deep.find_error(gate(OpKind::X, {0})));
    Rng rng(17);
    std::vector<QuantumCircuit> circuits;
    for (int i = 0; i < 4; ++i) {
      circuits.push_back(ignis::qv_model_circuit(4, rng));
      circuits.back().measure_all();
    }
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        SCOPED_TRACE(backend.name() + " threads=" + std::to_string(threads) +
                     " circuit " + std::to_string(i));
        exec::ExecuteOptions options;
        options.shots = 64;
        options.seed = 1000 + i;
        const exec::ExecuteResult shared =
            exec::execute(circuits[i], backend, options);
        options.noise_model = &deep;
        const exec::ExecuteResult reference =
            exec::execute(circuits[i], backend, options);
        EXPECT_EQ(shared.counts.histogram, reference.counts.histogram);
        EXPECT_EQ(shared.counts.shots, 64);
        EXPECT_GT(shared.counts.histogram.size(), 4u);  // really sampled
      }
    }
  }
}

}  // namespace
}  // namespace qtc
