#include "service/execution_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/knobs.hpp"
#include "core/parallel.hpp"

namespace qtc::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued:
      return "QUEUED";
    case JobState::Running:
      return "RUNNING";
    case JobState::Done:
      return "DONE";
    case JobState::Cancelled:
      return "CANCELLED";
    case JobState::Failed:
      return "FAILED";
    case JobState::Rejected:
      return "REJECTED";
  }
  return "?";
}

int default_workers() {
  const auto workers = knobs::get(knobs::Knob::ServiceWorkers);
  return workers > 0 ? static_cast<int>(workers) : parallel::num_threads();
}

int default_queue_cap() {
  return static_cast<int>(knobs::get(knobs::Knob::ServiceQueueCap));
}

int default_results_cap() {
  return static_cast<int>(knobs::get(knobs::Knob::ServiceResultsCap));
}

/// What a job needs to run: owned copies of the caller's arguments. The
/// noise model copy shares the caller's channels (reference counts only).
struct ExecutionInputs {
  QuantumCircuit circuit;
  arch::Backend backend;
  exec::ExecuteOptions options;
  std::optional<noise::NoiseModel> noise;  // options.noise_model target
};

/// One submitted job. The execution inputs are only touched by the worker
/// that claimed the job — everything else is guarded by the service mutex —
/// and are freed at the terminal transition, so a retained record is
/// metadata and payload only.
struct ExecutionService::Job {
  std::uint64_t id = 0;
  std::string tenant;
  std::unique_ptr<ExecutionInputs> inputs;  // null once terminal

  JobState state = JobState::Queued;
  bool cancel_requested = false;
  bool claimed = false;  // taken off a queue by a worker (counts in flight)
  sim::Counts counts;
  std::string error;
  bool evicted = false;

  Clock::time_point submitted_at;
  std::optional<Clock::time_point> started_at;
  double queue_ms = 0;
  double run_ms = 0;
  bool cache_hit = false;
  int mapper_trials = 0;
  const char* engine = "";
  const char* dispatch_reason = "";
  std::uint64_t completion_seq = 0;
};

JobState JobHandle::state() const { return service_->poll(id_); }

JobResult JobHandle::result() const { return service_->wait(id_); }

bool JobHandle::cancel() const { return service_->cancel(id_); }

ExecutionService::ExecutionService(ServiceConfig config) {
  const int workers =
      config.workers >= 1 ? std::min(config.workers, 256) : default_workers();
  queue_cap_ = config.queue_cap >= 1 ? config.queue_cap : default_queue_cap();
  results_cap_ =
      config.results_cap >= 1 ? config.results_cap : default_results_cap();
  on_job_running_ = std::move(config.on_job_running);
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ExecutionService::~ExecutionService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Cancel everything still queued so wait() callers wake with a terminal
    // state instead of hanging on a job no worker will ever take.
    for (auto& [tenant, queue] : queues_)
      for (const JobPtr& job : queue) {
        job->error = "service shut down before the job ran";
        finish_locked(job, JobState::Cancelled);
      }
    queues_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

JobHandle ExecutionService::submit(const QuantumCircuit& circuit,
                                   const arch::Backend& backend,
                                   const exec::ExecuteOptions& options,
                                   const std::string& tenant) {
  return enqueue(QuantumCircuit(circuit), backend, options, tenant);
}

JobHandle ExecutionService::submit(const qbin::Bytes& payload,
                                   const arch::Backend& backend,
                                   const exec::ExecuteOptions& options,
                                   const std::string& tenant) {
  QuantumCircuit circuit;
  try {
    circuit = qbin::decode(payload);
  } catch (const qbin::DecodeError& e) {
    return reject_now(tenant, std::string("invalid QBIN payload: ") +
                                  e.what());
  }
  return enqueue(std::move(circuit), backend, options, tenant);
}

JobHandle ExecutionService::reject_now(const std::string& tenant,
                                       std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  ++stats_.rejected;
  const std::uint64_t id = next_id_++;
  auto job = std::make_shared<Job>();
  job->id = id;
  job->tenant = tenant;
  job->submitted_at = Clock::now();
  job->state = JobState::Rejected;
  job->error = std::move(reason);
  job->completion_seq = ++completion_seq_;
  jobs_[id] = job;
  return JobHandle(this, id, false);
}

JobHandle ExecutionService::enqueue(QuantumCircuit&& circuit,
                                    const arch::Backend& backend,
                                    const exec::ExecuteOptions& options,
                                    const std::string& tenant) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  const std::uint64_t id = next_id_++;

  std::string reject_reason;
  if (stopping_) {
    reject_reason = "service is shutting down";
  } else {
    auto it = queues_.find(tenant);
    if (it != queues_.end() &&
        it->second.size() >= static_cast<std::size_t>(queue_cap_))
      reject_reason = "tenant '" + tenant + "' queue full (cap " +
                      std::to_string(queue_cap_) + ")";
  }

  auto job = std::make_shared<Job>();
  job->id = id;
  job->tenant = tenant;
  job->submitted_at = Clock::now();
  jobs_[id] = job;

  if (!reject_reason.empty()) {
    ++stats_.rejected;
    job->state = JobState::Rejected;
    job->error = std::move(reject_reason);
    job->completion_seq = ++completion_seq_;
    return JobHandle(this, id, false);
  }

  job->inputs = std::make_unique<ExecutionInputs>(std::move(circuit),
                                                  backend, options);
  if (options.noise_model) {
    // Copy the caller's noise model so the job owns every execution input.
    ExecutionInputs& in = *job->inputs;
    in.noise = *options.noise_model;
    in.options.noise_model = &*in.noise;
  }
  queues_[tenant].push_back(job);
  lock.unlock();
  work_cv_.notify_one();
  return JobHandle(this, id, true);
}

ExecutionService::JobPtr ExecutionService::pop_next_locked() {
  if (queues_.empty()) return nullptr;
  // Round-robin in tenant-name order: resume one past the last served
  // tenant, wrapping — each pass takes one job per tenant turn.
  auto it = queues_.upper_bound(rr_cursor_);
  if (it == queues_.end()) it = queues_.begin();
  rr_cursor_ = it->first;
  JobPtr job = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  return job;
}

void ExecutionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || !queues_.empty(); });
    if (stopping_) return;
    JobPtr job = pop_next_locked();
    if (!job) continue;
    job->claimed = true;
    ++in_flight_;
    lock.unlock();
    run_job(job);
    lock.lock();
  }
}

void ExecutionService::run_job(const JobPtr& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->cancel_requested || stopping_) {
      if (job->error.empty() && stopping_)
        job->error = "service shut down before the job ran";
      finish_locked(job, JobState::Cancelled);
      return;
    }
    job->state = JobState::Running;
    job->started_at = Clock::now();
  }
  if (on_job_running_) on_job_running_(job->id);

  exec::ExecuteResult result;
  bool ok = false;
  std::string error;
  try {
    const ExecutionInputs& in = *job->inputs;
    result = exec::execute(in.circuit, in.backend, in.options);
    ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown execution error";
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    job->counts = std::move(result.counts);
    job->cache_hit = result.transpile_cache_hit;
    job->mapper_trials = result.mapper_trials;
    job->engine = sim::engine_name(result.engine);
    job->dispatch_reason = result.dispatch_reason;
  } else {
    job->error = std::move(error);
  }
  // A cancel that lands mid-run wins: the computed result is discarded and
  // the job reports Cancelled, exactly as if it had never been scheduled.
  finish_locked(job, job->cancel_requested
                         ? JobState::Cancelled
                         : (ok ? JobState::Done : JobState::Failed));
}

void ExecutionService::finish_locked(const JobPtr& job, JobState state) {
  const Clock::time_point now = Clock::now();
  job->state = state;
  job->queue_ms = ms_between(job->submitted_at,
                             job->started_at ? *job->started_at : now);
  job->run_ms = job->started_at ? ms_between(*job->started_at, now) : 0;
  job->completion_seq = ++completion_seq_;
  switch (state) {
    case JobState::Done:
      ++stats_.completed;
      if (job->cache_hit) ++stats_.cache_hits;
      ++served_[job->tenant];
      done_fifo_.push_back(job->id);
      while (done_fifo_.size() > static_cast<std::size_t>(results_cap_)) {
        const JobPtr& oldest = jobs_.at(done_fifo_.front());
        oldest->counts = sim::Counts{};
        oldest->evicted = true;
        ++stats_.evicted;
        done_fifo_.pop_front();
      }
      break;
    case JobState::Cancelled:
      job->counts = sim::Counts{};
      ++stats_.cancelled;
      break;
    case JobState::Failed:
      ++stats_.failed;
      break;
    default:
      break;  // unreachable: finish only moves to terminal states
  }
  // Release the execution inputs — the retained record is metadata + payload.
  job->inputs.reset();
  if (job->claimed) --in_flight_;
  done_cv_.notify_all();
}

JobResult ExecutionService::snapshot_locked(const Job& job) const {
  JobResult r;
  r.id = job.id;
  r.state = job.state;
  r.tenant = job.tenant;
  r.counts = job.counts;
  r.error = job.error;
  r.evicted = job.evicted;
  r.queue_ms = job.queue_ms;
  r.run_ms = job.run_ms;
  r.transpile_cache_hit = job.cache_hit;
  r.mapper_trials = job.mapper_trials;
  r.engine = job.engine;
  r.dispatch_reason = job.dispatch_reason;
  r.completion_seq = job.completion_seq;
  return r;
}

JobState ExecutionService::poll(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("service: unknown job id " + std::to_string(id));
  return it->second->state;
}

JobResult ExecutionService::wait(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("service: unknown job id " + std::to_string(id));
  const JobPtr job = it->second;
  done_cv_.wait(lock, [&] { return is_terminal(job->state); });
  return snapshot_locked(*job);
}

bool ExecutionService::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("service: unknown job id " + std::to_string(id));
  const JobPtr job = it->second;
  if (is_terminal(job->state)) return false;
  if (job->state == JobState::Queued && !job->claimed) {
    // Still on its tenant's queue: pull it out and finish immediately.
    auto qit = queues_.find(job->tenant);
    if (qit != queues_.end()) {
      auto& queue = qit->second;
      auto pos = std::find(queue.begin(), queue.end(), job);
      if (pos != queue.end()) queue.erase(pos);
      if (queue.empty()) queues_.erase(qit);
    }
    finish_locked(job, JobState::Cancelled);
    return true;
  }
  // Claimed or running: the worker observes the flag — before execution it
  // skips the job, after execution it discards the result. Either way the
  // job is guaranteed to end Cancelled.
  job->cancel_requested = true;
  return true;
}

void ExecutionService::drain() const {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return queues_.empty() && in_flight_ == 0; });
}

ServiceStats ExecutionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  s.per_tenant_served.assign(served_.begin(), served_.end());
  return s;
}

}  // namespace qtc::service
