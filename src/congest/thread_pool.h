// Persistent bulk-synchronous worker pool for the CONGEST simulator
// (DESIGN.md §11 "Parallel execution", §15 "Barrier overhaul").
//
// The simulator's round structure is bulk-synchronous: every round is a
// compute phase over all vertices followed by a delivery phase over all
// ports, with a full barrier between them. This pool is shaped for exactly
// that pattern — one dispatch runs one or two phase functions across a
// team of shards and returns only when every shard is done, so the caller
// always observes the network between phases, never inside one.
//
// Synchronization is a flat sense-reversing barrier over atomics, not a
// mutex + condition_variable generation count: publishing a round is one
// release store per participating worker's doorbell, waiting is a bounded
// spin on the barrier epoch with a parked-waiter condition_variable
// fallback. A fused dispatch (run_phases) runs compute and delivery with a
// single team-internal barrier between them, so a simulated round pays one
// wake-up + two barrier crossings instead of two full dispatch/quiesce
// round trips. Workers left out of a round's member mask are never woken —
// their doorbells stay untouched — which is what lets sparse rounds skip
// idle shards entirely (DESIGN.md §15).
//
// Dispatch is allocation-free: run()/run_phases() type-erase the callable
// through a plain function pointer + context pointer instead of
// std::function, so a capturing lambda dispatched every simulated round
// never touches the heap (the substrate's zero-allocation contract,
// DESIGN.md §10).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ecd::congest {

// Centralized sense-reversing barrier: the epoch counter is the sense. The
// last of `members` arrivals resets the count, bumps the epoch (releasing
// everyone's pre-barrier writes to everyone else), and wakes any parked
// waiter; the others spin on the epoch for `spin` iterations and then park
// on the condition variable. The parked/epoch handshake uses seq_cst on
// both sides so a waiter committing to park and a releaser deciding not to
// notify can never miss each other (see the comment in arrive_and_wait).
class FlatBarrier {
 public:
  void arrive_and_wait(int members, int spin);

 private:
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

// A fixed team of num_threads() shards: run(fn) invokes fn(shard) for every
// shard in [0, num_threads()) — shard 0 on the calling thread, the rest on
// persistent workers — and blocks until all shards return. run_phases(m, fn)
// is the fused two-phase variant: fn(shard, 0) on every member shard, one
// internal barrier, then fn(shard, 1), skipped team-wide when any phase-0
// invocation threw (the delivery phase of a round must not run over a
// half-computed round — a one-shard run would have aborted before it too).
//
// An exception thrown inside a shard is captured, the dispatch still
// quiesces (every member runs to completion and arrives at the final
// barrier), and the exception from the lowest-numbered throwing shard is
// rethrown on the calling thread. Quiescing is structural — the final
// barrier is on every member's path, caught or not — so a throwing shard
// function or a throwing caller-side reduction between dispatches can never
// desynchronize the protocol or leave workers parked: the pool stays
// reusable and destructible after any of them (regression-tested in
// substrate_test).
class ThreadPool {
 public:
  // Maps the NetworkOptions::num_threads convention to a concrete degree
  // of parallelism: values >= 1 pass through, anything else (0 included)
  // resolves to std::thread::hardware_concurrency(), never below 1.
  static int resolve(int requested);

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  template <typename Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    dispatch(
        [](void* ctx, int shard, int) { (*static_cast<F*>(ctx))(shard); },
        &fn, /*phases=*/1, /*members=*/nullptr);
  }

  // Fused two-phase dispatch. `members` is one byte per shard (nonzero =
  // participates) or null for the full team; shard 0 (the caller's slice)
  // always participates regardless of its byte. Workers whose byte is zero
  // are not woken and their doorbells are untouched.
  template <typename Fn>
  void run_phases(const unsigned char* members, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    dispatch(
        [](void* ctx, int shard, int phase) {
          (*static_cast<F*>(ctx))(shard, phase);
        },
        &fn, /*phases=*/2, members);
  }

 private:
  // One worker's wake-up slot, padded so doorbell stores never false-share.
  // The doorbell is bumped to the dispatch generation when the worker is a
  // member of the round; parked/mu/cv implement the same spin-then-park
  // handshake as FlatBarrier, per worker.
  struct alignas(64) Waiter {
    std::atomic<std::uint64_t> doorbell{0};
    std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
  };

  void dispatch(void (*fn)(void*, int, int), void* ctx, int phases,
                const unsigned char* members);
  void ring(int shard);
  void worker_loop(int shard);
  void run_shard(int shard, int phase);

  int num_threads_;
  // Bounded pre-park spin. Zero when the team oversubscribes the machine's
  // hardware threads — spinning can only steal cycles from the shard being
  // waited on there — so a 1-CPU host degrades to the cv path gracefully.
  int spin_limit_;
  std::vector<std::thread> workers_;
  std::vector<Waiter> waiters_;  // sized num_threads_; slot 0 unused
  FlatBarrier barrier_;

  // Job slots, written by the dispatching caller before any doorbell rings
  // (the seq_cst doorbell store / acquire load pair orders them for the
  // woken worker) and stable for the whole dispatch.
  void (*job_)(void*, int, int) = nullptr;
  void* job_ctx_ = nullptr;
  int job_phases_ = 1;
  int round_members_ = 0;  // barrier population of the current dispatch
  std::uint64_t generation_ = 0;
  std::atomic<bool> stop_{false};
  // error_count_ counts throws from either phase (rethrow decision, read
  // after the final barrier). phase0_errors_ counts phase-0 throws only:
  // it is what every member checks after the internal barrier to decide
  // whether phase 1 runs. The split matters — a fast member throwing in
  // phase 1 must not make slower members skip their own phase 1 (that
  // would deliver some shards and not others, and could rethrow a higher
  // shard's exception than the serial order demands).
  std::atomic<int> error_count_{0};
  std::atomic<int> phase0_errors_{0};
  std::vector<std::exception_ptr> errors_;  // one slot per shard
};

}  // namespace ecd::congest
