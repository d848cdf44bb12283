// Wall-clock execution profiler for the simulator's round loop
// (DESIGN.md §14).
//
// The existing observability layers are deliberately *logical*: TraceSink
// (PR 1) streams per-event rounds/messages, MetricsRegistry (DESIGN.md §13)
// aggregates rounds, traffic and causal depth — none of them ever looks at
// a clock, which is what keeps their snapshots bit-identical across thread
// counts. That also means none of them can explain where the microseconds
// of a parallel run go (ROADMAP: "profile the barrier + shard handoff").
//
// ExecutionProfiler is the wall-clock side of the house. Attached through
// NetworkOptions::profiler it timestamps each shard's slice of every round
// — compute, delivery (with the fault-injection subtotal), the caller-side
// metrics/stats reduction, and crucially the *barrier wait* between phases
// — into preallocated per-shard ring buffers. Contracts:
//
//   * opt-in and inert: a null pointer costs one predictable branch per
//     phase; no clock is ever read;
//   * single-writer: lane s is written only by the thread running shard s
//     (the reduction lanes by the caller, who *is* shard 0's thread); the
//     caller reads other lanes only at the round barrier or after the run,
//     both ordered by the ThreadPool's mutex hand-off;
//   * zero-alloc steady state: lanes and rings are sized when a Network
//     binds the profiler (construction time); begin_run/round hooks never
//     allocate (DESIGN.md §10 holds with profiling on);
//   * deterministic outputs stay bit-identical: the profiler only observes.
//     Wall-clock data lives here, never inside MetricsRegistry snapshots —
//     metrics/trace fixtures do not change when profiling is enabled.
//
// Aggregates derived from the samples: per-shard time share, per-round
// load-imbalance factor (max/mean busy shard time), barrier-wait fraction,
// a dispatch-latency histogram, and an Amdahl-style achievable-speedup
// estimate. Exports: a real-thread Chrome trace_event timeline (one tid
// per shard — complementing trace.h's logical timeline), the schema-stable
// "ecd-profile-v1" JSON document, and a human-readable table (ecd_cli
// profile).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/congest/metrics.h"

namespace ecd::congest {

// Phase slots of one shard-round, in reporting order.
enum ProfilePhase : int {
  kProfileCompute = 0,  // stepping vertices; includes Context::send deposits
  kProfileDeliver,      // retire + fault pass + delivery accounting
  kProfileFault,        // fault-injection subtotal (inside deliver)
  kProfileReduce,       // caller-side barrier reduction (stats + metrics)
  kProfileBarrier,      // waiting at the phase barrier / shard handoff
  kProfileIdle,         // rounds the shard sat out (sparse fast path)
  kProfileChurn,        // applying scheduled topology events (caller thread)
  kProfilePhaseCount,
};
const char* profile_phase_name(int phase);

class ExecutionProfiler {
 public:
  struct Options {
    // Per-shard round samples kept for the timeline export. Older rounds
    // wrap (aggregates still cover every round); minimum 2.
    int ring_capacity = 4096;
  };

  // One shard's slice of one simulated round. Timestamps are nanoseconds
  // from the profiler's construction; *_ns fields are durations.
  struct Sample {
    std::int64_t round = -1;  // global profiled-round index (across runs)
    std::int64_t compute_start = 0;
    std::int64_t compute_ns = 0;
    std::int64_t barrier_ns = 0;  // compute end -> deliver start
    std::int64_t deliver_start = 0;
    std::int64_t deliver_ns = 0;
    std::int64_t fault_ns = 0;      // subtotal of deliver_ns
    std::int64_t reduce_start = 0;  // caller lane (shard 0) only
    std::int64_t reduce_ns = 0;
  };

  struct ShardTotals {
    std::int64_t rounds = 0;
    std::int64_t phase_ns[kProfilePhaseCount] = {};
  };

  struct ShardSummary {
    int shard = 0;
    ShardTotals totals;
    // This shard's busy time (compute + deliver + reduce) as a fraction of
    // all shards' busy time.
    double busy_share = 0.0;
  };

  struct Summary {
    int num_shards = 0;      // lanes that observed at least one round
    std::int64_t runs = 0;   // Network::run calls profiled
    std::int64_t rounds = 0; // simulated rounds profiled
    std::int64_t wall_ns = 0;  // sum of run wall-clock durations
    ShardTotals total;         // phase totals summed over shards
    std::vector<ShardSummary> shards;
    // Sum over shards of barrier wait, divided by busy + barrier time.
    double barrier_wait_fraction = 0.0;
    // Sum over rounds of max busy shard time / mean busy shard time.
    double load_imbalance = 1.0;
    // Amdahl: reduce is serial, compute + deliver is parallel work.
    double serial_fraction = 0.0;
    double achievable_speedup = 1.0;  // at num_shards shards
    // Caller's dispatch mark -> each shard's compute start (parallel loop
    // only), merged over shards.
    LogHistogram dispatch_latency;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  ExecutionProfiler();
  explicit ExecutionProfiler(Options options);

  int ring_capacity() const { return ring_capacity_; }
  std::int64_t rounds_profiled() const { return global_round_; }
  std::int64_t runs_profiled() const { return runs_; }

  // Discards every sample and aggregate; keeps the lane allocations.
  void reset();

  // --- Collection hooks (called by Network; see network.cpp) ---------------
  // Grows the lane table to `num_shards` (allocates; Network construction
  // time only — never on the round path).
  void bind(int num_shards);
  // Caller thread, bracketing one Network::run over `num_shards` shards.
  void begin_run(int num_shards);
  void end_run();
  // Caller thread, immediately before the compute dispatch of a round.
  void mark_dispatch();
  // Shard-phase brackets, called on the thread running shard s. The
  // delivery bracket takes the measured fault-injection subtotal.
  // deliver_begin on a lane whose compute bracket did not run this round
  // (a shard skipped by the sparse fast path whose ports are delivered by
  // another worker) opens a fresh deliver-only sample with zero compute
  // and zero barrier time.
  void compute_begin(int s);
  void compute_end(int s);
  void deliver_begin(int s);
  void deliver_end(int s, std::int64_t fault_ns);
  // Caller thread, on a round executed without dispatching the team (the
  // sparse fast path's serial fallback, profiled on lane 0): accrues the
  // time since each other lane's last hand-off stamp as idle — the shard
  // was not waiting at a barrier, there was no round to wait for — and
  // advances the stamp so the wait accounting stays coherent when the
  // shard next runs.
  void mark_idle_others();
  // Caller thread, between rounds: accrues the measured cost of one
  // apply_churn pass (scheduled topology events, DESIGN.md §17) on the
  // caller's lane. The span sits inside what lane 0 otherwise classifies
  // as barrier/idle time, so totals may overlap those phases slightly —
  // acceptable for a between-rounds bookkeeping pass that is tiny next to
  // the phases proper. Inline and allocation-free.
  void add_churn_ns(std::int64_t ns) {
    if (!lanes_.empty()) lanes_[0].totals.phase_ns[kProfileChurn] += ns;
  }
  // Caller thread, bracketing the barrier reduction (per-shard stats fold +
  // metrics record/apply). Attributed to the caller's lane (shard 0).
  void reduce_begin();
  void reduce_end();
  // Caller thread, after reduce_end: folds the round's per-shard busy times
  // into the load-imbalance accumulators and advances the round index.
  void round_end();

  // --- Reports (host side; allocate freely) --------------------------------
  Summary summary() const;
  // Chrome trace_event timeline from the ring samples: one tid per shard,
  // "X" slices for compute/barrier/deliver (+ reduce on shard 0).
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct alignas(64) Lane {
    std::vector<Sample> ring;
    std::int64_t rows = 0;           // samples started; ring index rows % cap
    std::int64_t compute_end_ts = 0; // scratch: this round's compute end
    std::int64_t deliver_end_ts = -1;  // last deliver end; -1 = none pending
    ShardTotals totals;
    LogHistogram dispatch_latency;
  };

  Sample& current(Lane& lane) {
    return lane.ring[static_cast<std::size_t>((lane.rows - 1) % ring_capacity_)];
  }
  const Sample& current(const Lane& lane) const {
    return lane.ring[static_cast<std::size_t>((lane.rows - 1) % ring_capacity_)];
  }

  int ring_capacity_;
  std::int64_t epoch_;  // construction time; all timestamps are offsets
  std::vector<Lane> lanes_;
  int run_shards_ = 1;            // shards of the currently running Network
  std::int64_t run_begin_ts_ = 0;
  std::int64_t dispatch_ts_ = -1;  // -1 = no dispatch pending (inline round)
  std::int64_t global_round_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t wall_ns_ = 0;
  // Load-imbalance accumulators: per round, max busy shard time and the
  // mean busy shard time (double: run_shards_ may vary across Networks).
  std::int64_t imbalance_max_sum_ = 0;
  double imbalance_mean_sum_ = 0.0;
};

// --- Profile report ----------------------------------------------------------

struct ProfileReportContext {
  std::string title;
  // Extra key/value context, emitted in the given order.
  std::vector<std::pair<std::string, std::string>> info;
};

// Emits the "ecd-profile-v1" JSON document: {"schema", "title", "info",
// "profile": {"num_shards", "runs", "rounds", "wall_ns", "totals",
// "derived", "dispatch_latency_ns", "shards"}}. Structure is stable;
// values are wall-clock measurements and vary run to run (DESIGN.md §14).
void write_profile_report(std::ostream& os, const ExecutionProfiler& profiler,
                          const ProfileReportContext& context = {});

// The imbalance/barrier table `ecd_cli profile` prints: one row per shard
// plus the derived aggregates.
std::string format_profile_table(const ExecutionProfiler::Summary& summary);

}  // namespace ecd::congest
