#include "src/congest/profiler.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ecd::congest {

namespace {

// Fixed-precision doubles keep the report structure diff-friendly; values
// are wall-clock measurements, so only the *keys* are stable.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string fmt_ms(std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

// Chrome's trace viewer wants microseconds; keep nanosecond resolution.
std::string us(std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::int64_t busy_ns(const ExecutionProfiler::ShardTotals& t) {
  return t.phase_ns[kProfileCompute] + t.phase_ns[kProfileDeliver] +
         t.phase_ns[kProfileReduce];
}

}  // namespace

const char* profile_phase_name(int phase) {
  switch (phase) {
    case kProfileCompute: return "compute";
    case kProfileDeliver: return "deliver";
    case kProfileFault: return "fault";
    case kProfileReduce: return "reduce";
    case kProfileBarrier: return "barrier";
    case kProfileIdle: return "idle";
    case kProfileChurn: return "churn";
    default: return "unknown";
  }
}

ExecutionProfiler::ExecutionProfiler() : ExecutionProfiler(Options{}) {}

ExecutionProfiler::ExecutionProfiler(Options options)
    : ring_capacity_(std::max(2, options.ring_capacity)), epoch_(now_ns()) {}

void ExecutionProfiler::reset() {
  for (Lane& lane : lanes_) {
    lane.rows = 0;
    lane.compute_end_ts = 0;
    lane.deliver_end_ts = -1;
    lane.totals = ShardTotals{};
    lane.dispatch_latency.clear();
  }
  run_shards_ = 1;
  dispatch_ts_ = -1;
  global_round_ = 0;
  runs_ = 0;
  wall_ns_ = 0;
  imbalance_max_sum_ = 0;
  imbalance_mean_sum_ = 0.0;
}

void ExecutionProfiler::bind(int num_shards) {
  if (static_cast<int>(lanes_.size()) >= num_shards) return;
  lanes_.resize(num_shards);
  for (Lane& lane : lanes_) {
    if (static_cast<int>(lane.ring.size()) != ring_capacity_) {
      lane.ring.assign(ring_capacity_, Sample{});
    }
  }
}

void ExecutionProfiler::begin_run(int num_shards) {
  run_shards_ = std::min(num_shards, static_cast<int>(lanes_.size()));
  run_begin_ts_ = now_ns() - epoch_;
  dispatch_ts_ = -1;
  // A previous run may have aborted (CongestionError / max_rounds) without
  // reaching end_run; stale hand-off timestamps must not leak across runs.
  for (int s = 0; s < static_cast<int>(lanes_.size()); ++s) {
    lanes_[s].deliver_end_ts = -1;
  }
}

void ExecutionProfiler::end_run() {
  const std::int64_t t = now_ns() - epoch_;
  // The wait between the last delivery and the run's end (the final
  // barrier plus the termination check) is barrier time like any other
  // inter-phase gap.
  for (int s = 0; s < run_shards_; ++s) {
    Lane& lane = lanes_[s];
    if (lane.deliver_end_ts >= 0) {
      lane.totals.phase_ns[kProfileBarrier] += t - lane.deliver_end_ts;
      lane.deliver_end_ts = -1;
    }
  }
  wall_ns_ += t - run_begin_ts_;
  ++runs_;
}

void ExecutionProfiler::mark_dispatch() { dispatch_ts_ = now_ns() - epoch_; }

void ExecutionProfiler::compute_begin(int s) {
  Lane& lane = lanes_[s];
  const std::int64_t t = now_ns() - epoch_;
  // dispatch_ts_ was written by the caller before the pool dispatch; the
  // pool's mutex hand-off orders that write before this read.
  if (dispatch_ts_ >= 0) lane.dispatch_latency.record(t - dispatch_ts_);
  if (lane.deliver_end_ts >= 0) {
    // Time since this shard finished the previous round's delivery: the
    // round barrier plus the next dispatch. For the caller's lane,
    // reduce_end() already advanced the hand-off stamp past the reduction,
    // so the reduction is never double-counted as waiting.
    lane.totals.phase_ns[kProfileBarrier] += t - lane.deliver_end_ts;
    lane.deliver_end_ts = -1;
  }
  Sample& row =
      lane.ring[static_cast<std::size_t>(lane.rows % ring_capacity_)];
  ++lane.rows;
  row = Sample{};
  // global_round_ only advances in round_end() on the caller thread, which
  // is ordered before the next round's dispatch — stable during the round.
  row.round = global_round_;
  row.compute_start = t;
}

void ExecutionProfiler::compute_end(int s) {
  Lane& lane = lanes_[s];
  const std::int64_t t = now_ns() - epoch_;
  Sample& row = current(lane);
  row.compute_ns = t - row.compute_start;
  lane.compute_end_ts = t;
  lane.totals.phase_ns[kProfileCompute] += row.compute_ns;
  ++lane.totals.rounds;
}

void ExecutionProfiler::deliver_begin(int s) {
  Lane& lane = lanes_[s];
  const std::int64_t t = now_ns() - epoch_;
  if (lane.rows == 0 || current(lane).round != global_round_) {
    // No compute bracket ran on this lane this round: the shard was skipped
    // by the sparse fast path and its ports are being delivered by another
    // worker. Open a deliver-only sample — zero compute, zero barrier (the
    // shard was idle, not waiting).
    Sample& fresh =
        lane.ring[static_cast<std::size_t>(lane.rows % ring_capacity_)];
    ++lane.rows;
    fresh = Sample{};
    fresh.round = global_round_;
    fresh.compute_start = t;
    lane.compute_end_ts = t;
    ++lane.totals.rounds;
    if (lane.deliver_end_ts >= 0) {
      // Skipped-compute rounds accrued since the last hand-off are idle
      // time, not barrier wait.
      lane.totals.phase_ns[kProfileIdle] += t - lane.deliver_end_ts;
      lane.deliver_end_ts = -1;
    }
  }
  Sample& row = current(lane);
  row.barrier_ns = t - lane.compute_end_ts;
  row.deliver_start = t;
  lane.totals.phase_ns[kProfileBarrier] += row.barrier_ns;
}

void ExecutionProfiler::deliver_end(int s, std::int64_t fault_ns) {
  Lane& lane = lanes_[s];
  const std::int64_t t = now_ns() - epoch_;
  Sample& row = current(lane);
  row.deliver_ns = t - row.deliver_start;
  row.fault_ns = fault_ns;
  lane.deliver_end_ts = t;
  lane.totals.phase_ns[kProfileDeliver] += row.deliver_ns;
  lane.totals.phase_ns[kProfileFault] += fault_ns;
}

void ExecutionProfiler::reduce_begin() {
  Lane& lane = lanes_[0];
  Sample& row = current(lane);
  row.reduce_start = now_ns() - epoch_;
}

void ExecutionProfiler::reduce_end() {
  Lane& lane = lanes_[0];
  const std::int64_t t = now_ns() - epoch_;
  Sample& row = current(lane);
  row.reduce_ns = t - row.reduce_start;
  lane.totals.phase_ns[kProfileReduce] += row.reduce_ns;
  // The caller runs the reduction between its own deliver_end and the next
  // compute_begin; advancing the hand-off stamp keeps that span classified
  // as reduce, not barrier wait.
  if (lane.deliver_end_ts >= 0) lane.deliver_end_ts = t;
}

void ExecutionProfiler::mark_idle_others() {
  const std::int64_t t = now_ns() - epoch_;
  for (int s = 1; s < run_shards_; ++s) {
    Lane& lane = lanes_[s];
    if (lane.deliver_end_ts >= 0) {
      lane.totals.phase_ns[kProfileIdle] += t - lane.deliver_end_ts;
      lane.deliver_end_ts = t;
    }
  }
}

void ExecutionProfiler::round_end() {
  // Caller thread, after the delivery barrier: every participating lane's
  // current row is complete and ordered before this read by the pool
  // hand-off. Lanes the sparse fast path skipped this round (their current
  // row belongs to an older round) are left out of the imbalance fold —
  // a shard with no work is not an imbalance.
  std::int64_t max_busy = 0;
  std::int64_t sum_busy = 0;
  int participants = 0;
  for (int s = 0; s < run_shards_; ++s) {
    const Lane& lane = lanes_[s];
    if (lane.rows == 0 || current(lane).round != global_round_) continue;
    const Sample& row = current(lane);
    const std::int64_t busy = row.compute_ns + row.deliver_ns;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
    ++participants;
  }
  if (participants > 0) {
    imbalance_max_sum_ += max_busy;
    imbalance_mean_sum_ +=
        static_cast<double>(sum_busy) / static_cast<double>(participants);
  }
  ++global_round_;
}

ExecutionProfiler::Summary ExecutionProfiler::summary() const {
  Summary out;
  out.runs = runs_;
  out.rounds = global_round_;
  out.wall_ns = wall_ns_;
  std::int64_t all_busy = 0;
  for (int s = 0; s < static_cast<int>(lanes_.size()); ++s) {
    const Lane& lane = lanes_[s];
    if (lane.totals.rounds == 0) continue;
    ShardSummary sh;
    sh.shard = s;
    sh.totals = lane.totals;
    out.shards.push_back(sh);
    out.total.rounds += lane.totals.rounds;
    for (int p = 0; p < kProfilePhaseCount; ++p) {
      out.total.phase_ns[p] += lane.totals.phase_ns[p];
    }
    all_busy += busy_ns(lane.totals);
    out.dispatch_latency.merge(lane.dispatch_latency);
    out.num_shards = s + 1;
  }
  for (ShardSummary& sh : out.shards) {
    sh.busy_share = all_busy > 0 ? static_cast<double>(busy_ns(sh.totals)) /
                                       static_cast<double>(all_busy)
                                 : 0.0;
  }
  const std::int64_t barrier = out.total.phase_ns[kProfileBarrier];
  if (all_busy + barrier > 0) {
    out.barrier_wait_fraction = static_cast<double>(barrier) /
                                static_cast<double>(all_busy + barrier);
  }
  if (imbalance_mean_sum_ > 0.0) {
    out.load_imbalance =
        static_cast<double>(imbalance_max_sum_) / imbalance_mean_sum_;
  }
  // Amdahl estimate: the reduction runs on one thread no matter how many
  // shards there are; compute + deliver spread across the shards.
  const double serial = static_cast<double>(out.total.phase_ns[kProfileReduce]);
  const double par = static_cast<double>(out.total.phase_ns[kProfileCompute] +
                                         out.total.phase_ns[kProfileDeliver]);
  if (serial + par > 0.0) {
    out.serial_fraction = serial / (serial + par);
    const double k = std::max(1, out.num_shards);
    out.achievable_speedup = (serial + par) / (serial + par / k);
  }
  return out;
}

void ExecutionProfiler::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const char* name, int tid, std::int64_t ts,
                         std::int64_t dur, std::int64_t round,
                         std::int64_t fault_ns) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << name
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":" << us(ts)
       << ",\"dur\":" << us(dur) << ",\"args\":{\"round\":" << round;
    if (fault_ns > 0) os << ",\"fault_us\":" << us(fault_ns);
    os << "}}";
  };
  const auto meta = [&](const char* key, int tid, const std::string& value) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << key
       << "\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid << ",\"args\":{\"name\":";
    write_json_string(os, value);
    os << "}}";
  };
  meta("process_name", 0, "ecd congest network");
  for (int s = 0; s < static_cast<int>(lanes_.size()); ++s) {
    if (lanes_[s].rows == 0) continue;
    meta("thread_name", s,
         s == 0 ? "shard 0 (caller)" : "shard " + std::to_string(s));
  }
  for (int s = 0; s < static_cast<int>(lanes_.size()); ++s) {
    const Lane& lane = lanes_[s];
    const std::int64_t kept = std::min<std::int64_t>(lane.rows, ring_capacity_);
    for (std::int64_t i = lane.rows - kept; i < lane.rows; ++i) {
      const Sample& row =
          lane.ring[static_cast<std::size_t>(i % ring_capacity_)];
      if (row.compute_ns > 0 || row.deliver_ns > 0) {
        event("compute", s, row.compute_start, row.compute_ns, row.round, 0);
        if (row.barrier_ns > 0) {
          event("barrier", s, row.compute_start + row.compute_ns,
                row.barrier_ns, row.round, 0);
        }
        event("deliver", s, row.deliver_start, row.deliver_ns, row.round,
              row.fault_ns);
        if (s == 0 && row.reduce_ns > 0) {
          event("reduce", s, row.reduce_start, row.reduce_ns, row.round, 0);
        }
      }
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_profile_report(std::ostream& os, const ExecutionProfiler& profiler,
                          const ProfileReportContext& context) {
  const ExecutionProfiler::Summary s = profiler.summary();
  write_report_header(os, "ecd-profile-v1", context.title, context.info);
  os << ",\"profile\":{\"num_shards\":" << s.num_shards
     << ",\"runs\":" << s.runs << ",\"rounds\":" << s.rounds
     << ",\"wall_ns\":" << s.wall_ns;
  os << ",\"totals\":{";
  for (int p = 0; p < kProfilePhaseCount; ++p) {
    if (p) os << ',';
    os << '"' << profile_phase_name(p) << "_ns\":" << s.total.phase_ns[p];
  }
  os << '}';
  os << ",\"derived\":{\"barrier_wait_fraction\":"
     << fmt_double(s.barrier_wait_fraction)
     << ",\"load_imbalance\":" << fmt_double(s.load_imbalance)
     << ",\"serial_fraction\":" << fmt_double(s.serial_fraction)
     << ",\"achievable_speedup\":" << fmt_double(s.achievable_speedup) << '}';
  os << ",\"dispatch_latency_ns\":{\"count\":" << s.dispatch_latency.count()
     << ",\"sum\":" << s.dispatch_latency.sum()
     << ",\"max\":" << s.dispatch_latency.max()
     << ",\"p50\":" << s.dispatch_latency.percentile(50)
     << ",\"p99\":" << s.dispatch_latency.percentile(99) << '}';
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    const ExecutionProfiler::ShardSummary& sh = s.shards[i];
    if (i) os << ',';
    os << "{\"shard\":" << sh.shard << ",\"rounds\":" << sh.totals.rounds;
    for (int p = 0; p < kProfilePhaseCount; ++p) {
      os << ",\"" << profile_phase_name(p)
         << "_ns\":" << sh.totals.phase_ns[p];
    }
    os << ",\"busy_share\":" << fmt_double(sh.busy_share) << '}';
  }
  os << "]}}\n";
}

std::string format_profile_table(const ExecutionProfiler::Summary& s) {
  std::ostringstream os;
  char line[256];
  os << "shard   rounds  compute_ms  deliver_ms   fault_ms  reduce_ms  "
        "barrier_ms     idle_ms  busy_share\n";
  for (const ExecutionProfiler::ShardSummary& sh : s.shards) {
    std::snprintf(line, sizeof line,
                  "%5d %8lld %11s %11s %10s %10s %11s %11s %11.3f\n", sh.shard,
                  static_cast<long long>(sh.totals.rounds),
                  fmt_ms(sh.totals.phase_ns[kProfileCompute]).c_str(),
                  fmt_ms(sh.totals.phase_ns[kProfileDeliver]).c_str(),
                  fmt_ms(sh.totals.phase_ns[kProfileFault]).c_str(),
                  fmt_ms(sh.totals.phase_ns[kProfileReduce]).c_str(),
                  fmt_ms(sh.totals.phase_ns[kProfileBarrier]).c_str(),
                  fmt_ms(sh.totals.phase_ns[kProfileIdle]).c_str(),
                  sh.busy_share);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "shards %d  runs %lld  rounds %lld  wall %s ms\n", s.num_shards,
                static_cast<long long>(s.runs),
                static_cast<long long>(s.rounds), fmt_ms(s.wall_ns).c_str());
  os << line;
  if (s.total.phase_ns[kProfileChurn] > 0) {
    std::snprintf(line, sizeof line, "churn (topology events) %s ms\n",
                  fmt_ms(s.total.phase_ns[kProfileChurn]).c_str());
    os << line;
  }
  std::snprintf(
      line, sizeof line,
      "barrier-wait fraction %.3f  load imbalance %.3f  serial fraction "
      "%.3f  achievable speedup %.2fx\n",
      s.barrier_wait_fraction, s.load_imbalance, s.serial_fraction,
      s.achievable_speedup);
  os << line;
  if (!s.dispatch_latency.empty()) {
    std::snprintf(line, sizeof line,
                  "dispatch latency p50 %lld ns  p99 %lld ns  max %lld ns\n",
                  static_cast<long long>(s.dispatch_latency.percentile(50)),
                  static_cast<long long>(s.dispatch_latency.percentile(99)),
                  static_cast<long long>(s.dispatch_latency.max()));
    os << line;
  }
  return os.str();
}

}  // namespace ecd::congest
