// Stress/soak suite for the execution service (CTest label `parallel`, so it
// runs under the TSan preset): N tenants x M jobs hammered concurrently.
// The property under test is the service's determinism contract — every
// job's counts are bitwise equal to a direct exec::execute with the same
// seed, whether the service runs 1 worker or 4, whatever the submission
// order or contention — plus per-tenant fairness (round-robin service, no
// tenant starved while another's queue drains), deterministic
// admission-control rejects, and exact stats accounting
// (submitted == completed + cancelled + rejected + failed) even under a
// concurrent cancel storm.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "exec/execute.hpp"
#include "service/execution_service.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc {
namespace {

using service::ExecutionService;
using service::JobHandle;
using service::JobResult;
using service::JobState;
using service::ServiceConfig;
using service::ServiceStats;

constexpr int kTenants = 3;
constexpr int kJobsPerTenant = 8;
constexpr int kShots = 96;

std::string tenant_name(int t) { return std::string("tenant-") + char('a' + t); }

/// Job j of tenant t: one of two ansatz structures per tenant (so the
/// transpile cache has real structural groups), parameters varying per
/// iteration the way a hybrid loop's angles do, and a unique per-job seed.
QuantumCircuit job_circuit(int t, int j) {
  const int n = 3 + (t % 2);  // 3 or 4 qubits, fits qx4
  QuantumCircuit qc(n, n);
  qc.h(0);
  for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  qc.ry(0.1 + 0.07 * j + 0.31 * t, 1);
  if (j % 2 == 1) qc.rz(0.2 + 0.05 * j, 0);  // second structure
  qc.cx(n - 1, 0);
  qc.measure_all();
  return qc;
}

exec::ExecuteOptions job_options(int t, int j) {
  exec::ExecuteOptions opts;
  opts.shots = kShots;
  opts.seed = 0x51C0DE + static_cast<std::uint64_t>(t) * 1000 + j;
  return opts;
}

/// Reference counts: one direct exec::execute per job, computed up front.
std::vector<std::vector<sim::Counts>> reference_counts(
    const arch::Backend& backend) {
  std::vector<std::vector<sim::Counts>> ref(kTenants);
  for (int t = 0; t < kTenants; ++t)
    for (int j = 0; j < kJobsPerTenant; ++j)
      ref[t].push_back(
          exec::execute(job_circuit(t, j), backend, job_options(t, j)).counts);
  return ref;
}

/// Submit every tenant's jobs from its own thread (real contention on the
/// submit path), wait for all, and return the per-job results.
std::vector<std::vector<JobResult>> hammer(ExecutionService& svc,
                                           const arch::Backend& backend) {
  std::vector<std::vector<JobHandle>> handles(kTenants);
  std::vector<std::thread> submitters;
  std::mutex mu;
  for (int t = 0; t < kTenants; ++t)
    submitters.emplace_back([&, t] {
      std::vector<JobHandle> mine;
      for (int j = 0; j < kJobsPerTenant; ++j)
        mine.push_back(svc.submit(job_circuit(t, j), backend, job_options(t, j),
                                  tenant_name(t)));
      std::lock_guard<std::mutex> lock(mu);
      handles[t] = std::move(mine);
    });
  for (auto& th : submitters) th.join();
  std::vector<std::vector<JobResult>> results(kTenants);
  for (int t = 0; t < kTenants; ++t)
    for (auto& h : handles[t]) results[t].push_back(h.result());
  return results;
}

// --- the tentpole property: bitwise determinism under contention ------------

TEST(ServiceStress, CountsBitwiseEqualDirectExecuteAt1And4Workers) {
  transpiler::TranspileCache::global().clear();
  const arch::Backend backend = arch::qx4_backend();
  const auto ref = reference_counts(backend);

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServiceConfig config;
    config.workers = workers;
    ExecutionService svc(config);
    const auto results = hammer(svc, backend);
    for (int t = 0; t < kTenants; ++t)
      for (int j = 0; j < kJobsPerTenant; ++j) {
        const JobResult& r = results[t][j];
        ASSERT_EQ(r.state, JobState::Done)
            << tenant_name(t) << " job " << j << ": " << r.error;
        EXPECT_EQ(r.counts.histogram, ref[t][j].histogram)
            << tenant_name(t) << " job " << j
            << " diverged from direct exec::execute";
        EXPECT_EQ(r.counts.shots, kShots);
      }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kTenants * kJobsPerTenant));
    EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                   stats.rejected + stats.failed);
    EXPECT_EQ(stats.completed, stats.submitted);
  }
}

TEST(ServiceStress, RepeatRunsAreBitwiseIdentical) {
  // Same fleet twice against one service, the first time compiling cold:
  // results must repeat exactly. The cache may only change *when* a job
  // compiles, never what it computes.
  const arch::Backend backend = arch::qx4_backend();
  const auto ref = reference_counts(backend);
  transpiler::TranspileCache::global().clear();
  ServiceConfig config;
  config.workers = 4;
  ExecutionService svc(config);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto results = hammer(svc, backend);
    for (int t = 0; t < kTenants; ++t)
      for (int j = 0; j < kJobsPerTenant; ++j) {
        ASSERT_EQ(results[t][j].state, JobState::Done);
        EXPECT_EQ(results[t][j].counts.histogram, ref[t][j].histogram)
            << tenant_name(t) << " job " << j << " repeat " << repeat;
      }
  }
}

// --- fairness: round-robin service, no tenant starved ------------------------

TEST(ServiceStress, RoundRobinServesTenantsFairly) {
  const arch::Backend backend = arch::qx4_backend();
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool warmup_running = false;
  ServiceConfig config;
  config.workers = 1;  // default config: round-robin is unconditional
  config.on_job_running = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(gate_mu);
    warmup_running = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  ExecutionService svc(config);

  // Park the single worker, then queue every tenant's jobs so the scheduler
  // sees all queues full when it starts draining.
  JobHandle warmup =
      svc.submit(job_circuit(0, 0), backend, job_options(0, 0), "zz-warmup");
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return warmup_running; });
  }
  std::vector<std::vector<JobHandle>> handles(kTenants);
  for (int t = 0; t < kTenants; ++t)
    for (int j = 0; j < kJobsPerTenant; ++j)
      handles[t].push_back(svc.submit(job_circuit(t, j), backend,
                                      job_options(t, j), tenant_name(t)));
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  svc.drain();
  ASSERT_EQ(warmup.result().state, JobState::Done);

  // Completion sequence numbers expose the interleaving: with round-robin
  // service the j-th completion of every tenant lands within one full round
  // of the j-th completion of any other — tenant t's j-th job may not wait
  // for another tenant's queue to drain.
  std::vector<std::vector<std::uint64_t>> seq(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    for (auto& h : handles[t]) {
      const JobResult r = h.result();
      ASSERT_EQ(r.state, JobState::Done);
      seq[t].push_back(r.completion_seq);
    }
    std::sort(seq[t].begin(), seq[t].end());
  }
  const std::uint64_t warmup_seq = warmup.result().completion_seq;
  for (int t = 0; t < kTenants; ++t)
    for (int j = 0; j < kJobsPerTenant; ++j) {
      // One warmup + j full rounds of kTenants jobs bound the j-th finish.
      EXPECT_LE(seq[t][j], warmup_seq + static_cast<std::uint64_t>(
                                            (j + 1) * kTenants))
          << tenant_name(t) << " starved: its " << j
          << "-th completion waited past a full round";
    }
  const ServiceStats stats = svc.stats();
  ASSERT_EQ(stats.per_tenant_served.size(),
            static_cast<std::size_t>(kTenants) + 1);  // + warmup tenant
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(stats.per_tenant_served[t].first, tenant_name(t));
    EXPECT_EQ(stats.per_tenant_served[t].second,
              static_cast<std::uint64_t>(kJobsPerTenant));
  }
}

// --- admission control: rejects are deterministic and reported ---------------

TEST(ServiceStress, AdmissionRejectsAreDeterministicUnderConcurrency) {
  const arch::Backend backend = arch::qx4_backend();
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool parked = false;
  ServiceConfig config;
  config.workers = 1;
  config.queue_cap = 4;
  config.on_job_running = [&](std::uint64_t) {
    std::unique_lock<std::mutex> lock(gate_mu);
    parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  ExecutionService svc(config);

  JobHandle warmup =
      svc.submit(job_circuit(0, 0), backend, job_options(0, 0), "warm");
  {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return parked; });
  }
  // 10 concurrent submits into a cap-4 queue with the worker parked:
  // exactly 4 are accepted and exactly 6 rejected, whatever the order.
  constexpr int kSubmitters = 2, kPerSubmitter = 5;
  std::vector<JobHandle> all;
  std::mutex mu;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kPerSubmitter; ++j) {
        JobHandle h = svc.submit(job_circuit(1, s * kPerSubmitter + j), backend,
                                 job_options(1, s * kPerSubmitter + j),
                                 "hammer");
        std::lock_guard<std::mutex> lock(mu);
        all.push_back(h);
      }
    });
  for (auto& th : submitters) th.join();

  int accepted = 0, rejected = 0;
  for (const auto& h : all) {
    if (h.accepted()) {
      ++accepted;
    } else {
      ++rejected;
      const JobResult r = h.result();
      EXPECT_EQ(r.state, JobState::Rejected);
      EXPECT_NE(r.error.find("queue full (cap 4)"), std::string::npos)
          << r.error;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  svc.drain();
  ASSERT_EQ(warmup.result().state, JobState::Done);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 11u);  // warmup + 10 hammered
  EXPECT_EQ(stats.rejected, 6u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.rejected + stats.failed);
}

// --- cancel storm: counters stay exactly consistent --------------------------

TEST(ServiceStress, CancelStormLeavesStatsConsistentAndResultsExact) {
  transpiler::TranspileCache::global().clear();
  const arch::Backend backend = arch::qx4_backend();
  const auto ref = reference_counts(backend);
  ServiceConfig config;
  config.workers = 2;
  ExecutionService svc(config);

  std::vector<std::vector<JobHandle>> handles(kTenants);
  for (int t = 0; t < kTenants; ++t)
    for (int j = 0; j < kJobsPerTenant; ++j)
      handles[t].push_back(svc.submit(job_circuit(t, j), backend,
                                      job_options(t, j), tenant_name(t)));
  // Cancel every odd job from a racing thread while the fleet drains.
  std::thread canceller([&] {
    for (int t = 0; t < kTenants; ++t)
      for (int j = 1; j < kJobsPerTenant; j += 2) handles[t][j].cancel();
  });
  canceller.join();
  svc.drain();

  std::uint64_t done = 0, cancelled = 0;
  for (int t = 0; t < kTenants; ++t)
    for (int j = 0; j < kJobsPerTenant; ++j) {
      const JobResult r = handles[t][j].result();
      ASSERT_TRUE(r.state == JobState::Done || r.state == JobState::Cancelled)
          << to_string(r.state);
      if (r.state == JobState::Done) {
        ++done;
        // A racing cancel may lose, but it must never corrupt a result.
        EXPECT_EQ(r.counts.histogram, ref[t][j].histogram)
            << tenant_name(t) << " job " << j;
      } else {
        ++cancelled;
        EXPECT_EQ(r.counts.shots, 0) << "cancelled job kept a payload";
      }
    }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kTenants * kJobsPerTenant));
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.rejected + stats.failed);
  // Even jobs were never cancelled: they must all be Done.
  EXPECT_GE(done, static_cast<std::uint64_t>(kTenants * kJobsPerTenant / 2));
}

}  // namespace
}  // namespace qtc
