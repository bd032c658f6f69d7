#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "core/knobs.hpp"

namespace qtc::parallel {

namespace {

/// Depth of parallel regions on this thread; > 0 means "already inside a
/// kernel", so nested parallel_for calls run inline instead of deadlocking
/// the pool or oversubscribing the machine.
thread_local int tls_region_depth = 0;

using Body = std::function<void(std::uint64_t, std::uint64_t)>;

/// Fork-join pool. Workers are started lazily and kept for the process
/// lifetime; each parallel_for publishes one task (a shared chunk counter)
/// and the caller works alongside the notified workers until the range is
/// drained.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::uint64_t begin, std::uint64_t end, std::uint64_t chunk,
           const Body& body, int participants) {
    // One fork-join region at a time; concurrent callers queue up here.
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    ensure_workers(participants - 1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      next_.store(begin, std::memory_order_relaxed);
      end_ = end;
      chunk_ = std::max<std::uint64_t>(chunk, 1);
      body_ = &body;
      error_ = nullptr;
      wanted_ = participants - 1;  // workers joining this round
      remaining_ = participants;   // them + the caller
      ++generation_;
    }
    cv_.notify_all();
    work();
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return remaining_ == 0; });
    body_ = nullptr;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void ensure_workers(int wanted) {
    std::lock_guard<std::mutex> lk(mu_);
    const int index0 = static_cast<int>(workers_.size());
    for (int i = index0; i < wanted; ++i)
      workers_.emplace_back([this, i] { worker_loop(i); });
  }

  /// Claim and execute chunks until the current range is drained, then sign
  /// off on the round. Runs on workers and the caller alike.
  void work() {
    ++tls_region_depth;
    try {
      for (;;) {
        const std::uint64_t lo =
            next_.fetch_add(chunk_, std::memory_order_relaxed);
        if (lo >= end_) break;
        (*body_)(lo, std::min(end_, lo + chunk_));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    --tls_region_depth;
    std::lock_guard<std::mutex> lk(mu_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }

  void worker_loop(int index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (index >= wanted_) continue;  // not enlisted this round
      lk.unlock();
      work();
      lk.lock();
    }
  }

  std::mutex run_mutex_;  // serializes whole fork-join regions

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;       // wakes workers for a new generation
  std::condition_variable done_cv_;  // wakes the caller when a round drains
  std::vector<std::thread> workers_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  int wanted_ = 0;
  int remaining_ = 0;
  std::exception_ptr error_;

  // Current task (immutable while a round is in flight, except next_).
  std::atomic<std::uint64_t> next_{0};
  std::uint64_t end_ = 0;
  std::uint64_t chunk_ = 1;
  const Body* body_ = nullptr;
};

}  // namespace

int num_threads() {
  const auto configured = knobs::get(knobs::Knob::NumThreads);
  if (configured > 0) return static_cast<int>(configured);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_num_threads(int n) {
  if (n > 0)
    knobs::set(knobs::Knob::NumThreads, n);
  else
    knobs::clear(knobs::Knob::NumThreads);
}

void parallel_for(std::uint64_t begin, std::uint64_t end, const Body& body,
                  std::uint64_t serial_cutoff) {
  if (begin >= end) return;
  const std::uint64_t n = end - begin;
  const int nt = num_threads();
  if (nt <= 1 || tls_region_depth > 0 || n < serial_cutoff) {
    body(begin, end);
    return;
  }
  // ~8 chunks per thread keeps dynamic scheduling balanced without
  // hammering the shared counter.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, n / (static_cast<std::uint64_t>(nt) * 8));
  Pool::instance().run(begin, end, chunk, body, nt);
}

namespace {

/// Shared blocked-reduction skeleton: partial sums per fixed-size block,
/// combined in index order (see the determinism contract in the header).
template <typename T>
T reduce_blocked(std::uint64_t begin, std::uint64_t end,
                 const std::function<T(std::uint64_t, std::uint64_t)>& f) {
  if (begin >= end) return T{};
  const std::uint64_t n = end - begin;
  if (n <= kReduceBlock) return f(begin, end);
  const std::uint64_t nblocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<T> partials(nblocks);
  parallel_for(
      0, nblocks,
      [&](std::uint64_t b0, std::uint64_t b1) {
        for (std::uint64_t b = b0; b < b1; ++b) {
          const std::uint64_t lo = begin + b * kReduceBlock;
          partials[b] = f(lo, std::min(end, lo + kReduceBlock));
        }
      },
      /*serial_cutoff=*/2);
  T total{};
  for (const T& p : partials) total += p;
  return total;
}

}  // namespace

double parallel_reduce(
    std::uint64_t begin, std::uint64_t end,
    const std::function<double(std::uint64_t, std::uint64_t)>& block_sum) {
  return reduce_blocked<double>(begin, end, block_sum);
}

cplx parallel_reduce_cplx(
    std::uint64_t begin, std::uint64_t end,
    const std::function<cplx(std::uint64_t, std::uint64_t)>& block_sum) {
  return reduce_blocked<cplx>(begin, end, block_sum);
}

}  // namespace qtc::parallel
