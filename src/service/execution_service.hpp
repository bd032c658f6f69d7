#pragma once
// Asynchronous multi-tenant execution service: the dispatch layer between
// many concurrent callers and the synchronous exec::execute of the paper's
// Sec. IV. Callers submit (circuit, backend, options, tenant) and get back a
// JobHandle they can poll/wait/cancel; a pool of worker threads drains the
// per-tenant queues and runs each job through the full
// transpile -> noise-model -> trajectory pipeline.
//
// Scheduling and admission control:
//   * One FIFO queue per tenant, served round-robin in tenant-name order, so
//     a tenant hammering the service cannot starve the others — each pass of
//     a worker over the queues takes at most one job per tenant turn. The
//     order is unconditional: no job is ever taken out of its turn.
//   * Bounded queue depth per tenant (QTC_SERVICE_QUEUE_CAP): a submit to a
//     full queue is rejected synchronously with a reason on the handle, so
//     backpressure reaches the caller instead of growing unbounded state.
//   * Shared compiles: jobs run through exec::execute and so through the
//     global transpile cache, whose single flight makes concurrent jobs of
//     one structure (same gates, coupling map and options — parameter
//     values excluded) wait for one cold compile and replay it warm. A
//     hybrid-loop tenant's 32 VQE iterations pay ONE mapper run, whichever
//     workers run them (see transpiler/transpile_cache.hpp).
//
// Determinism contract: a job's counts depend only on its own
// (circuit, backend, options) — exec::execute is bitwise deterministic for a
// fixed seed, the transpile cache's warm replay is bitwise equal to a cold
// run, and workers share no mutable per-job state — so service results are
// bitwise identical to a direct exec::execute call with the same arguments,
// regardless of worker count, submission order or contention. The stress
// suite (tests/test_service_stress.cpp) enforces exactly this property.
//
// Result store: terminal jobs keep their metadata (state, timings, cache and
// mapper stats) for the service's lifetime, while the result *payloads*
// (counts) live in a bounded FIFO store — once more than
// QTC_SERVICE_RESULTS_CAP results are retained, the oldest completed
// payloads are evicted (JobResult::evicted) so a service that runs forever
// holds bounded memory.
//
// Knobs (house style: env default, programmatic override via ServiceConfig):
//   QTC_SERVICE_WORKERS      worker threads (default: parallel::num_threads)
//   QTC_SERVICE_QUEUE_CAP    per-tenant queue depth bound (default 64)
//   QTC_SERVICE_RESULTS_CAP  retained result payloads (default 1024)

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "exec/execute.hpp"
#include "noise/noise_model.hpp"
#include "qbin/qbin.hpp"
#include "sim/result.hpp"

namespace qtc::service {

/// Lifecycle of a submitted job. Rejected is terminal-at-submit (admission
/// control refused the job; it never entered a queue).
enum class JobState { Queued, Running, Done, Cancelled, Failed, Rejected };

const char* to_string(JobState state);
inline bool is_terminal(JobState s) {
  return s != JobState::Queued && s != JobState::Running;
}

/// Snapshot of one job: terminal state, result payload (Done only, empty
/// once evicted), error capture, and the per-job execution metadata.
struct JobResult {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  std::string tenant;
  sim::Counts counts;       // Done only; empty when `evicted`
  std::string error;        // Failed: what() of the execution error;
                            // Rejected: the admission-control reason
  bool evicted = false;     // payload dropped by the bounded result store
  double queue_ms = 0;      // submit -> first scheduled on a worker
  double run_ms = 0;        // scheduled -> terminal
  bool transpile_cache_hit = false;  // compilation served warm
  int mapper_trials = 0;             // layout trials run (0 on a warm hit)
  /// Engine that sampled the shots ("statevector" / "stabilizer" /
  /// "decision_diagram") and the dispatcher's reason (Done only).
  std::string engine;
  std::string dispatch_reason;
  /// 1-based order of this job's terminal transition among all jobs of the
  /// service — the fairness tests read interleaving off this sequence.
  std::uint64_t completion_seq = 0;
};

/// Monotonic service counters, PackageStats-style. Every accepted job ends
/// in exactly one of completed/cancelled/failed, so after a drain:
///   submitted == completed + cancelled + failed + rejected.
struct ServiceStats {
  std::uint64_t submitted = 0;  // all submit() calls, rejected included
  std::uint64_t rejected = 0;   // refused by admission control
  std::uint64_t completed = 0;  // reached Done
  std::uint64_t cancelled = 0;  // cancelled while queued or running
  std::uint64_t failed = 0;     // execution threw; error captured
  std::uint64_t evicted = 0;    // result payloads dropped by the FIFO store
  /// Retired: always 0 since the scheduler stopped batching (shared
  /// compiles happen in the transpile cache). Kept only for the benchmark
  /// harness that still reads it; removed together with that read.
  std::uint64_t batch_hits = 0;
  std::uint64_t cache_hits = 0;  // jobs whose compile was served warm
  /// Done-job count per tenant, sorted by tenant name.
  std::vector<std::pair<std::string, std::uint64_t>> per_tenant_served;
};

/// Construction-time configuration. Zero / negative sentinels defer to the
/// QTC_SERVICE_* environment knobs (which in turn have baked-in defaults),
/// so an explicitly configured value is the programmatic override.
struct ServiceConfig {
  int workers = 0;      // >=1 overrides QTC_SERVICE_WORKERS
  int queue_cap = 0;    // >=1 overrides QTC_SERVICE_QUEUE_CAP (per tenant)
  int results_cap = 0;  // >=1 overrides QTC_SERVICE_RESULTS_CAP
  /// Test hook: called on the worker thread after a job transitions to
  /// Running and before it executes (no service lock held). Lets the
  /// deterministic tests hold a worker at a known point.
  std::function<void(std::uint64_t job_id)> on_job_running;
};

/// Resolved knob values (env var if set and valid, else the default).
// Resolved through the knob table (core/knobs.hpp).
int default_workers();      // QTC_SERVICE_WORKERS, [1, 256]
int default_queue_cap();    // QTC_SERVICE_QUEUE_CAP, [1, 2^20], default 64
int default_results_cap();  // QTC_SERVICE_RESULTS_CAP, [1, 2^24], dflt 1024

class ExecutionService;

/// Caller-side handle to one submitted job. Copyable; all methods forward to
/// the owning service, which must outlive the handle. A rejected submission
/// returns a handle whose state() is JobState::Rejected and whose result()
/// carries the rejection reason.
class JobHandle {
 public:
  std::uint64_t id() const { return id_; }
  /// False when admission control refused the submission.
  bool accepted() const { return accepted_; }
  JobState state() const;
  /// Block until the job is terminal; returns the full snapshot.
  JobResult result() const;
  /// Request cancellation; true when the job will NOT deliver a result
  /// (it was still queued, or it is running and will be marked Cancelled
  /// on completion). False once the job already reached a terminal state.
  bool cancel() const;

 private:
  friend class ExecutionService;
  JobHandle(ExecutionService* service, std::uint64_t id, bool accepted)
      : service_(service), id_(id), accepted_(accepted) {}
  ExecutionService* service_ = nullptr;
  std::uint64_t id_ = 0;
  bool accepted_ = false;
};

class ExecutionService {
 public:
  explicit ExecutionService(ServiceConfig config = {});
  /// Stops the workers. Jobs still queued are cancelled (waiters wake with
  /// state Cancelled); jobs already running finish first.
  ~ExecutionService();

  ExecutionService(const ExecutionService&) = delete;
  ExecutionService& operator=(const ExecutionService&) = delete;

  /// Enqueue a job for `tenant`. The circuit, backend and (when set) the
  /// options' noise model are copied into the job, so the caller's objects
  /// need not outlive the handle. Rejects synchronously — with the reason
  /// on the returned handle — when the tenant's queue is at capacity.
  JobHandle submit(const QuantumCircuit& circuit, const arch::Backend& backend,
                   const exec::ExecuteOptions& options = {},
                   const std::string& tenant = "default");

  /// Enqueue a pre-encoded QBIN payload (see qbin/qbin.hpp): the ingest
  /// fast path for hot hybrid loops, which ship the binary circuit and skip
  /// QASM entirely. The payload is decoded at submit time — a malformed
  /// payload is rejected synchronously with the DecodeError message as the
  /// reason, never enqueued. A decoded payload job shares compiles with
  /// circuit jobs of the same structure through the transpile cache.
  JobHandle submit(const qbin::Bytes& payload, const arch::Backend& backend,
                   const exec::ExecuteOptions& options = {},
                   const std::string& tenant = "default");

  /// Current state of a job (Rejected for ids submit() refused; throws
  /// std::out_of_range for ids this service never issued).
  JobState poll(std::uint64_t id) const;
  /// Block until terminal, then snapshot (same contract as JobHandle).
  JobResult wait(std::uint64_t id) const;
  bool cancel(std::uint64_t id);

  /// Block until every queue is empty and no job is in flight.
  void drain() const;

  ServiceStats stats() const;
  int workers() const { return static_cast<int>(threads_.size()); }
  int queue_cap() const { return queue_cap_; }
  int results_cap() const { return results_cap_; }

 private:
  struct Job;
  using JobPtr = std::shared_ptr<Job>;

  /// Shared tail of the submit overloads: admission control and enqueue of
  /// a decoded circuit.
  JobHandle enqueue(QuantumCircuit&& circuit, const arch::Backend& backend,
                    const exec::ExecuteOptions& options,
                    const std::string& tenant);
  /// Synchronously reject: records a terminal Rejected job (so the id is
  /// pollable and the stats ledger balances) and returns its handle.
  JobHandle reject_now(const std::string& tenant, std::string reason);

  void worker_loop();
  /// Pop the next job honoring the round-robin cursor; nullptr when all
  /// queues are empty. Caller holds mu_.
  JobPtr pop_next_locked();
  void run_job(const JobPtr& job);
  /// Move `job` to a terminal state, stamp metadata, store/evict the
  /// payload, bump counters and wake waiters. Caller holds mu_.
  void finish_locked(const JobPtr& job, JobState state);
  JobResult snapshot_locked(const Job& job) const;

  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;  // wakes workers
  mutable std::condition_variable done_cv_;  // wakes wait()/drain() callers
  bool stopping_ = false;

  int queue_cap_ = 1;
  int results_cap_ = 1;
  std::function<void(std::uint64_t)> on_job_running_;

  std::uint64_t next_id_ = 1;
  std::uint64_t completion_seq_ = 0;
  int in_flight_ = 0;  // jobs claimed by a worker, not yet terminal
  std::map<std::uint64_t, JobPtr> jobs_;  // every job ever issued
  /// Per-tenant FIFO queues, served round-robin in map (name) order.
  std::map<std::string, std::deque<JobPtr>> queues_;
  std::string rr_cursor_;  // last tenant served; next pass starts after it
  std::deque<std::uint64_t> done_fifo_;  // Done jobs with a retained payload
  ServiceStats stats_;
  std::map<std::string, std::uint64_t> served_;  // Done per tenant

  std::vector<std::thread> threads_;
};

}  // namespace qtc::service
