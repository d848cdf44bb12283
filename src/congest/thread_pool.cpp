#include "src/congest/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ecd::congest {

namespace {

// Pre-park spin budget when the team fits the machine. Each iteration is a
// pause/yield hint plus an acquire load, so the budget is a few
// microseconds — longer than a round's barrier crossing on the fast path,
// far shorter than a futex sleep/wake cycle.
constexpr int kSpinIterations = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

void FlatBarrier::arrive_and_wait(int members, int spin) {
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == members) {
    // Last arrival: reset the count for the next episode, then release the
    // epoch. Stragglers of THIS episode never touch arrived_ again, so an
    // early arrival of the next episode incrementing it is fine.
    arrived_.store(0, std::memory_order_relaxed);
    epoch_.store(e + 1, std::memory_order_seq_cst);
    // seq_cst pairing with the waiter's parked_ increment: if a waiter read
    // the old epoch (and therefore commits to sleep), its parked_ increment
    // precedes that read in the single total order, which precedes this
    // epoch store, which precedes the load below — so we observe parked_>0
    // and notify. The empty lock ensures the notify cannot slot between a
    // parked waiter's predicate check and its wait.
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_.notify_all();
    }
    return;
  }
  for (int i = 0; i < spin; ++i) {
    if (epoch_.load(std::memory_order_acquire) != e) return;
    cpu_relax();
  }
  if (epoch_.load(std::memory_order_acquire) != e) return;
  std::unique_lock<std::mutex> lock(mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  cv_.wait(lock, [&] {
    return epoch_.load(std::memory_order_seq_cst) != e;
  });
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

int ThreadPool::resolve(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)),
      waiters_(num_threads_),
      errors_(num_threads_) {
  const unsigned hw = std::thread::hardware_concurrency();
  spin_limit_ =
      (hw != 0 && static_cast<unsigned>(num_threads_) > hw) ? 0
                                                            : kSpinIterations;
  workers_.reserve(num_threads_ - 1);
  for (int shard = 1; shard < num_threads_; ++shard) {
    workers_.emplace_back([this, shard] { worker_loop(shard); });
  }
}

ThreadPool::~ThreadPool() {
  // Every dispatch quiesces before returning, so all workers are at their
  // doorbells here; one generation bump per doorbell sends them home.
  stop_.store(true, std::memory_order_release);
  ++generation_;
  for (int shard = 1; shard < num_threads_; ++shard) ring(shard);
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_shard(int shard, int phase) {
  try {
    job_(job_ctx_, shard, phase);
  } catch (...) {
    errors_[shard] = std::current_exception();
    error_count_.fetch_add(1, std::memory_order_acq_rel);
    if (phase == 0) phase0_errors_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::ring(int shard) {
  Waiter& w = waiters_[shard];
  w.doorbell.store(generation_, std::memory_order_seq_cst);
  // Same seq_cst handshake as FlatBarrier: a worker that read the stale
  // doorbell and commits to park has already published parked=true in the
  // total order, so we cannot both miss each other.
  if (w.parked.load(std::memory_order_seq_cst)) {
    { std::lock_guard<std::mutex> lock(w.mu); }
    w.cv.notify_one();
  }
}

void ThreadPool::worker_loop(int shard) {
  Waiter& self = waiters_[shard];
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t g = self.doorbell.load(std::memory_order_acquire);
    if (g == seen) {
      for (int i = 0; i < spin_limit_; ++i) {
        g = self.doorbell.load(std::memory_order_acquire);
        if (g != seen) break;
        cpu_relax();
      }
      if (g == seen) {
        std::unique_lock<std::mutex> lock(self.mu);
        self.parked.store(true, std::memory_order_seq_cst);
        self.cv.wait(lock, [&] {
          return self.doorbell.load(std::memory_order_seq_cst) != seen;
        });
        self.parked.store(false, std::memory_order_relaxed);
        g = self.doorbell.load(std::memory_order_acquire);
      }
    }
    seen = g;
    if (stop_.load(std::memory_order_acquire)) return;
    run_shard(shard, 0);
    if (job_phases_ == 2) {
      barrier_.arrive_and_wait(round_members_, spin_limit_);
      // The internal barrier's epoch release makes every member's
      // phase0_errors_ bump visible — and only phase-0 bumps exist before
      // the barrier — so this check is uniform across the team: phase 1 is
      // skipped team-wide when any phase-0 slice threw, and never skipped
      // because a fast sibling already threw in phase 1.
      if (phase0_errors_.load(std::memory_order_acquire) == 0) {
        run_shard(shard, 1);
      }
    }
    barrier_.arrive_and_wait(round_members_, spin_limit_);
  }
}

void ThreadPool::dispatch(void (*fn)(void*, int, int), void* ctx, int phases,
                          const unsigned char* members) {
  if (num_threads_ == 1) {
    // No workers to coordinate with — and no barrier to quiesce at, so an
    // exception propagates directly; a phase-0 throw skips phase 1 exactly
    // as the team-wide error check would.
    fn(ctx, 0, 0);
    if (phases == 2) fn(ctx, 0, 1);
    return;
  }
  job_ = fn;
  job_ctx_ = ctx;
  job_phases_ = phases;
  int count = num_threads_;
  if (members) {
    count = 1;  // shard 0 (the caller) always participates
    for (int s = 1; s < num_threads_; ++s) count += members[s] ? 1 : 0;
  }
  round_members_ = count;
  error_count_.store(0, std::memory_order_relaxed);
  phase0_errors_.store(0, std::memory_order_relaxed);
  ++generation_;
  for (int s = 1; s < num_threads_; ++s) {
    if (!members || members[s]) ring(s);
  }
  run_shard(0, 0);
  if (phases == 2) {
    barrier_.arrive_and_wait(round_members_, spin_limit_);
    if (phase0_errors_.load(std::memory_order_acquire) == 0) {
      run_shard(0, 1);
    }
  }
  // Quiescing is structural: this arrival is on every path out of the
  // dispatch (run_shard never throws — it captures), so no exception can
  // leave workers mid-protocol and the pool is immediately reusable.
  barrier_.arrive_and_wait(round_members_, spin_limit_);
  if (error_count_.load(std::memory_order_acquire) != 0) {
    // Rethrow the lowest-numbered capture — shards are contiguous vertex
    // ranges, so this is the same exception a one-shard run would have hit
    // first (vertex order).
    for (std::exception_ptr& e : errors_) {
      if (e) {
        std::exception_ptr first = std::move(e);
        for (std::exception_ptr& rest : errors_) rest = nullptr;
        std::rethrow_exception(first);
      }
    }
  }
}

}  // namespace ecd::congest
