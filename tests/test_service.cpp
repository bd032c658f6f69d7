// Lifecycle unit tests for the async multi-tenant execution service:
// submit/poll/wait happy path (counts bitwise equal to a direct
// exec::execute), cancel before and during a run, failure capture (a bad
// request ends in Failed with the error message — never a crash or a dead
// worker), the bounded result store's FIFO eviction, one shared compile for
// concurrent same-structure jobs, admission-control rejection, and exact
// stats accounting. The tests drive the workers deterministically through
// the ServiceConfig::on_job_running hook: a held gate parks a worker at a
// known point so queue states are exact, not timing-dependent.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "core/rng.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "qbin/qbin.hpp"
#include "service/execution_service.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc {
namespace {

using service::ExecutionService;
using service::JobHandle;
using service::JobState;
using service::ServiceConfig;
using service::ServiceStats;

/// Gate the tests use to park workers inside on_job_running: each arriving
/// job records its id and blocks until the gate opens.
class RunGate {
 public:
  void arrive(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_.insert(id);
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  /// Block until `id` is parked inside the gate (i.e. its job is Running).
  void await_arrival(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_.count(id) > 0; });
  }
  /// Block until `n` jobs are parked inside the gate.
  void await_arrivals(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return arrived_.size() >= n; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::uint64_t> arrived_;
  bool open_ = false;
};

/// Small measured workload; `variant` perturbs the structure (extra gate) so
/// tests can submit structurally distinct circuits, `angle` only re-binds a
/// parameter (same structure).
QuantumCircuit small_circuit(int variant = 0, double angle = 0.3) {
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).ry(angle, 2).cx(1, 2);
  for (int i = 0; i < variant; ++i) qc.h(i % 3);
  qc.measure_all();
  return qc;
}

exec::ExecuteOptions fast_options(std::uint64_t seed = 7) {
  exec::ExecuteOptions opts;
  opts.shots = 128;
  opts.seed = seed;
  return opts;
}

TEST(Service, SubmitPollWaitHappyPath) {
  transpiler::TranspileCache::global().clear();
  const arch::Backend backend = arch::qx4_backend();
  const QuantumCircuit qc = small_circuit();
  const auto opts = fast_options(42);
  const exec::ExecuteResult direct = exec::execute(qc, backend, opts);

  ServiceConfig config;
  config.workers = 2;
  ExecutionService svc(config);
  JobHandle handle = svc.submit(qc, backend, opts, "alice");
  ASSERT_TRUE(handle.accepted());
  EXPECT_GT(handle.id(), 0u);
  const service::JobResult result = handle.result();
  EXPECT_EQ(result.state, JobState::Done);
  EXPECT_EQ(handle.state(), JobState::Done);
  EXPECT_EQ(result.tenant, "alice");
  EXPECT_FALSE(result.evicted);
  EXPECT_TRUE(result.error.empty());
  // The service's determinism contract: bitwise the direct call's counts.
  EXPECT_EQ(result.counts.histogram, direct.counts.histogram);
  EXPECT_EQ(result.counts.shots, opts.shots);
  // Per-job metadata: wall times stamped, mapper/cache stats forwarded.
  EXPECT_GE(result.queue_ms, 0.0);
  EXPECT_GE(result.run_ms, 0.0);
  EXPECT_GE(result.completion_seq, 1u);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
  ASSERT_EQ(stats.per_tenant_served.size(), 1u);
  EXPECT_EQ(stats.per_tenant_served[0].first, "alice");
  EXPECT_EQ(stats.per_tenant_served[0].second, 1u);
}

TEST(Service, CancelBeforeRun) {
  const arch::Backend backend = arch::qx4_backend();
  RunGate gate;
  ServiceConfig config;
  config.workers = 1;
  config.on_job_running = [&](std::uint64_t id) { gate.arrive(id); };
  ExecutionService svc(config);

  JobHandle a = svc.submit(small_circuit(0), backend, fast_options(), "t");
  gate.await_arrival(a.id());  // the only worker is parked inside job A
  JobHandle b = svc.submit(small_circuit(1), backend, fast_options(), "t");
  EXPECT_EQ(b.state(), JobState::Queued);
  EXPECT_TRUE(b.cancel());
  EXPECT_EQ(b.state(), JobState::Cancelled);  // immediate: popped off queue
  EXPECT_FALSE(b.cancel());                   // already terminal

  gate.open();
  const auto ra = a.result();
  const auto rb = b.result();
  EXPECT_EQ(ra.state, JobState::Done);
  EXPECT_EQ(rb.state, JobState::Cancelled);
  EXPECT_EQ(rb.counts.shots, 0);
  EXPECT_EQ(rb.run_ms, 0.0);  // never scheduled
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(Service, CancelDuringRunDiscardsResult) {
  const arch::Backend backend = arch::qx4_backend();
  RunGate gate;
  ServiceConfig config;
  config.workers = 1;
  config.on_job_running = [&](std::uint64_t id) { gate.arrive(id); };
  ExecutionService svc(config);

  JobHandle job = svc.submit(small_circuit(), backend, fast_options(), "t");
  gate.await_arrival(job.id());
  EXPECT_EQ(job.state(), JobState::Running);
  EXPECT_TRUE(job.cancel());  // lands mid-run: result will be discarded
  gate.open();
  const auto result = job.result();
  EXPECT_EQ(result.state, JobState::Cancelled);
  EXPECT_EQ(result.counts.shots, 0);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Service, FailureIsCapturedNotFatal) {
  const arch::Backend backend = arch::qx4_backend();  // 5 qubits
  ServiceConfig config;
  config.workers = 1;
  ExecutionService svc(config);

  // Circuit wider than the backend: execute throws, the job ends Failed.
  QuantumCircuit wide(8, 8);
  wide.h(0).measure_all();
  JobHandle bad = svc.submit(wide, backend, fast_options(), "t");
  const auto rb = bad.result();
  EXPECT_EQ(rb.state, JobState::Failed);
  EXPECT_NE(rb.error.find("does not fit"), std::string::npos) << rb.error;

  // shots < 1: the structured-validation error (exec::execute throws before
  // any transpile/mapper work) is captured the same way.
  auto zero_shots = fast_options();
  zero_shots.shots = 0;
  JobHandle bad2 = svc.submit(small_circuit(), backend, zero_shots, "t");
  const auto rb2 = bad2.result();
  EXPECT_EQ(rb2.state, JobState::Failed);
  EXPECT_NE(rb2.error.find("shots must be >= 1"), std::string::npos)
      << rb2.error;

  // The worker survived both: a healthy job still completes.
  JobHandle good = svc.submit(small_circuit(), backend, fast_options(), "t");
  EXPECT_EQ(good.result().state, JobState::Done);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Service, ExecuteValidatesShotsUpFront) {
  // The latent exec::execute issue the service exposed: shots < 1 must be a
  // structured invalid_argument raised before any compilation work runs.
  const arch::Backend backend = arch::qx4_backend();
  const std::uint64_t mapper_runs_before = map::mapper_run_count();
  auto opts = fast_options();
  opts.shots = 0;
  EXPECT_THROW(exec::execute(small_circuit(), backend, opts),
               std::invalid_argument);
  opts.shots = -5;
  EXPECT_THROW(exec::execute(small_circuit(), backend, opts),
               std::invalid_argument);
  EXPECT_EQ(map::mapper_run_count(), mapper_runs_before)
      << "shots validation must fire before the mapper runs";
}

TEST(Service, ResultStoreEvictsOldestFifo) {
  const arch::Backend backend = arch::qx4_backend();
  ServiceConfig config;
  config.workers = 1;
  config.results_cap = 3;
  ExecutionService svc(config);

  std::vector<JobHandle> handles;
  for (int i = 0; i < 7; ++i)
    handles.push_back(
        svc.submit(small_circuit(), backend, fast_options(100 + i), "t"));
  svc.drain();

  // Jobs complete in submission order (one worker, one tenant), so the
  // first four payloads are evicted and the newest three are retained.
  for (int i = 0; i < 7; ++i) {
    const auto r = handles[i].result();
    ASSERT_EQ(r.state, JobState::Done) << "job " << i;
    if (i < 4) {
      EXPECT_TRUE(r.evicted) << "job " << i;
      EXPECT_EQ(r.counts.shots, 0) << "job " << i;
    } else {
      EXPECT_FALSE(r.evicted) << "job " << i;
      EXPECT_EQ(r.counts.shots, 128) << "job " << i;
    }
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 7u);
  EXPECT_EQ(stats.evicted, 4u);
}

TEST(Service, AdmissionControlRejectsWithReason) {
  const arch::Backend backend = arch::qx4_backend();
  RunGate gate;
  ServiceConfig config;
  config.workers = 1;
  config.queue_cap = 2;
  config.on_job_running = [&](std::uint64_t id) { gate.arrive(id); };
  ExecutionService svc(config);

  // Park the worker on a first job, then fill tenant "t"'s queue exactly.
  JobHandle running = svc.submit(small_circuit(), backend, fast_options(), "t");
  gate.await_arrival(running.id());
  JobHandle q1 = svc.submit(small_circuit(), backend, fast_options(), "t");
  JobHandle q2 = svc.submit(small_circuit(), backend, fast_options(), "t");
  ASSERT_TRUE(q1.accepted());
  ASSERT_TRUE(q2.accepted());

  // Deterministic reject: depth == cap, so the next submit must bounce.
  JobHandle rejected = svc.submit(small_circuit(), backend, fast_options(), "t");
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.state(), JobState::Rejected);
  const auto rr = rejected.result();  // non-blocking: already terminal
  EXPECT_EQ(rr.state, JobState::Rejected);
  EXPECT_NE(rr.error.find("queue full"), std::string::npos) << rr.error;
  EXPECT_NE(rr.error.find("'t'"), std::string::npos) << rr.error;

  // Admission control is per tenant: another tenant still gets in.
  JobHandle other = svc.submit(small_circuit(), backend, fast_options(), "u");
  EXPECT_TRUE(other.accepted());

  gate.open();
  svc.drain();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.rejected + stats.failed);
}

TEST(Service, MalformedQbinPayloadIsRejectedSynchronously) {
  const arch::Backend backend = arch::qx4_backend();
  ServiceConfig config;
  config.workers = 1;
  ExecutionService svc(config);

  // Garbage bytes and a truncated-but-well-headed payload both bounce at
  // submit time with the decoder's message as the reason — never enqueued,
  // never a worker crash.
  const qbin::Bytes garbage = {0xde, 0xad, 0xbe, 0xef};
  JobHandle g = svc.submit(garbage, backend, fast_options(), "t");
  EXPECT_FALSE(g.accepted());
  EXPECT_EQ(g.state(), JobState::Rejected);
  const auto gr = g.result();  // non-blocking: already terminal
  EXPECT_NE(gr.error.find("invalid QBIN payload"), std::string::npos)
      << gr.error;

  qbin::Bytes truncated = qbin::encode(small_circuit());
  truncated.resize(truncated.size() / 2);
  JobHandle t = svc.submit(truncated, backend, fast_options(), "t");
  EXPECT_FALSE(t.accepted());
  EXPECT_NE(t.result().error.find("invalid QBIN payload"), std::string::npos);

  // Register sizes {1, 2^64-1, 4} wrap the u64 sum back to the declared 5
  // qubits; the decoder must flag the oversized register as a DecodeError
  // so the rejection stays synchronous instead of an escaped IR exception.
  qbin::Bytes wraps = {'Q', 'B', 'I', 'N', qbin::kVersion, 0,
                       48, 0, 0, 0, 40, 0, 0, 0,  // total 48, params at 40
                       5, 0, 3, 1, 'a', 1, 1, 'b'};
  for (int i = 0; i < 9; ++i) wraps.push_back(0xFF);
  wraps.push_back(0x01);
  wraps.push_back(1); wraps.push_back('c'); wraps.push_back(4);
  while (wraps.size() < 48) wraps.push_back(0);
  JobHandle w = svc.submit(wraps, backend, fast_options(), "t");
  EXPECT_FALSE(w.accepted());
  EXPECT_NE(w.result().error.find("invalid QBIN payload"), std::string::npos);

  // A well-formed payload on the same service still runs to Done.
  JobHandle ok =
      svc.submit(qbin::encode(small_circuit()), backend, fast_options(), "t");
  ASSERT_TRUE(ok.accepted());
  EXPECT_EQ(ok.result().state, JobState::Done);

  svc.drain();
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.rejected + stats.failed);
}

TEST(Service, ConcurrentSameStructureJobsShareOneMapperRun) {
  transpiler::TranspileCache::global().clear();
  const arch::Backend backend = arch::qx4_backend();
  RunGate gate;
  ServiceConfig config;
  config.workers = 4;
  config.on_job_running = [&](std::uint64_t id) { gate.arrive(id); };
  ExecutionService svc(config);

  // 8 jobs of one ansatz structure (same gates, different angles) over two
  // tenants. Every worker parks on a job, then all four compile at once:
  // the transpile cache's single flight lets one of them run the mapper.
  const std::uint64_t mapper_runs_before = map::mapper_run_count();
  std::vector<JobHandle> vqe;
  for (int i = 0; i < 8; ++i)
    vqe.push_back(svc.submit(small_circuit(0, 0.1 * (i + 1)), backend,
                             fast_options(200 + i), i % 2 ? "b" : "a"));
  gate.await_arrivals(4);
  gate.open();
  svc.drain();
  EXPECT_EQ(map::mapper_run_count(), mapper_runs_before + 1)
      << "same-structure jobs on concurrent workers each ran the mapper";

  for (int i = 0; i < 8; ++i) {
    const auto r = vqe[i].result();
    ASSERT_EQ(r.state, JobState::Done) << r.error;
    const auto direct = exec::execute(small_circuit(0, 0.1 * (i + 1)), backend,
                                      fast_options(200 + i));
    EXPECT_EQ(r.counts.histogram, direct.counts.histogram) << "job " << i;
  }
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.cache_hits, 7u);  // every job but the compiling one
  EXPECT_EQ(stats.batch_hits, 0u);  // retired counter
}

TEST(Service, UnknownIdThrows) {
  ServiceConfig config;
  config.workers = 1;
  ExecutionService svc(config);
  EXPECT_THROW(svc.poll(999), std::out_of_range);
  EXPECT_THROW(svc.wait(999), std::out_of_range);
  EXPECT_THROW(svc.cancel(999), std::out_of_range);
}

TEST(Service, DestructorCancelsQueuedJobs) {
  const arch::Backend backend = arch::qx4_backend();
  RunGate gate;
  ServiceConfig config;
  config.workers = 1;
  config.on_job_running = [&](std::uint64_t id) { gate.arrive(id); };
  std::uint64_t queued_id = 0;
  {
    ExecutionService svc(config);
    JobHandle running =
        svc.submit(small_circuit(0), backend, fast_options(), "t");
    gate.await_arrival(running.id());
    JobHandle queued =
        svc.submit(small_circuit(1), backend, fast_options(), "t");
    queued_id = queued.id();
    gate.open();
    // Destructor: the running job finishes, the queued one is cancelled.
    const ServiceStats pre = svc.stats();
    EXPECT_EQ(pre.submitted, 2u);
    // (svc destroyed here)
  }
  SUCCEED() << "shutdown joined cleanly with job " << queued_id << " queued";
}

}  // namespace
}  // namespace qtc
