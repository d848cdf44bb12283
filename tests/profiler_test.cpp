// Tests for the wall-clock execution profiler (src/congest/profiler.h,
// DESIGN.md §14): the profiler must observe without perturbing — steady
// state stays allocation-free with profiling on, results and metrics
// snapshots stay bit-identical at every thread count, RunStats carries the
// run's wall-clock duration — and its exports must keep their structure:
// the "ecd-profile-v1" JSON document and the Chrome trace_event thread
// timeline are golden-checked via the jsonmin parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/profiler.h"
#include "src/graph/generators.h"
#include "tools/json_min.h"

// --- Counting allocation hooks ----------------------------------------------
// Same replacement pattern as bench/bench_util.h's ECD_BENCH_COUNT_ALLOCS:
// one TU per binary defines the global operator new/delete; this test binary
// uses them to prove the profiler's round path never touches the heap.

namespace {
std::atomic<std::int64_t>& allocation_counter() {
  static std::atomic<std::int64_t> count{0};
  return count;
}
std::int64_t allocation_count() {
  return allocation_counter().load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  allocation_counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  allocation_counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::VertexId;

// Full-duplex saturation with data-dependent payloads (the substrate
// determinism workload): any delivery or ordering perturbation introduced
// by the profiler would change the final sinks.
class SaturateAlgo final : public VertexAlgorithm {
 public:
  explicit SaturateAlgo(int rounds) : rounds_(rounds) {}

  // The digest wraps modulo 2^64, so it is computed unsigned.
  void round(Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        sink_ += static_cast<std::uint64_t>(m.words[0]);
      }
    }
    if (ctx.round() < rounds_) {
      const std::uint64_t word =
          (sink_ * 31 + static_cast<std::uint64_t>(ctx.id())) ^
          static_cast<std::uint64_t>(ctx.round());
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{static_cast<std::int64_t>(word)}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }
  std::int64_t output() const { return static_cast<std::int64_t>(sink_); }

 private:
  int rounds_;
  std::uint64_t sink_ = 0;
  bool done_ = false;
};

std::vector<std::unique_ptr<VertexAlgorithm>> make_saturate(const Graph& g,
                                                            int rounds) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<SaturateAlgo>(rounds));
  }
  return algos;
}

struct Outcome {
  RunStats stats;
  std::vector<std::int64_t> outputs;
  std::string metrics_json;
};

Outcome run_saturate(int num_threads, ExecutionProfiler* profiler) {
  const Graph g = graph::grid(16, 16);
  auto algos = make_saturate(g, 12);
  MetricsRegistry metrics;
  NetworkOptions opt;
  opt.num_threads = num_threads;
  opt.metrics = &metrics;
  opt.profiler = profiler;
  // The 256-vertex grid sits exactly at the default sparse-serial
  // threshold; these fixtures probe the dispatching round loop, so force
  // the parallel path (the sparse fallback has its own tests).
  opt.sparse_serial_threshold = 0;
  Network net(g, opt);
  Outcome out;
  out.stats = net.run(algos);
  for (const auto& a : algos) {
    out.outputs.push_back(static_cast<const SaturateAlgo*>(a.get())->output());
  }
  out.metrics_json = metrics.to_json();
  return out;
}

// --- The profiler only observes ---------------------------------------------

TEST(Profiler, ResultsAndMetricsBitIdenticalProfilingOnVsOff) {
  for (const int threads : {1, 2, 4, 8}) {
    const Outcome plain = run_saturate(threads, nullptr);
    ExecutionProfiler profiler;
    const Outcome profiled = run_saturate(threads, &profiler);
    EXPECT_EQ(profiled.stats.rounds, plain.stats.rounds) << threads;
    EXPECT_EQ(profiled.stats.messages_sent, plain.stats.messages_sent);
    EXPECT_EQ(profiled.stats.words_sent, plain.stats.words_sent);
    EXPECT_EQ(profiled.stats.max_edge_load, plain.stats.max_edge_load);
    EXPECT_EQ(profiled.outputs, plain.outputs) << threads << " threads";
    // Byte-identical snapshots: wall-clock data never leaks into the
    // MetricsRegistry (duration_ns lives in RunStats / the run report's
    // "wall" section only).
    EXPECT_EQ(profiled.metrics_json, plain.metrics_json)
        << threads << " threads";
    EXPECT_GT(profiler.rounds_profiled(), 0);
  }
}

TEST(Profiler, SteadyStateAllocationsStayZeroWithProfilerAttached) {
  for (const int threads : {1, 4}) {
    const Graph g = graph::grid(16, 16);
    ExecutionProfiler profiler;
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.profiler = &profiler;
    Network net(g, opt);
    // Warm run grows algorithm-internal capacity; the
    // audited run must then stay off the heap — profiler hooks included
    // (lanes and rings were sized at bind time, in the Network ctor).
    auto warm = make_saturate(g, 12);
    net.run(warm);
    auto audit = make_saturate(g, 12);
    const std::int64_t before = allocation_count();
    net.run(audit);
    const std::int64_t delta = allocation_count() - before;
    EXPECT_EQ(delta, 0) << threads << " threads";
  }
}

TEST(Profiler, RunStatsCarriesWallClockDuration) {
  ExecutionProfiler profiler;
  const Outcome out = run_saturate(2, &profiler);
  EXPECT_GT(out.stats.duration_ns, 0);
  // RunStats::operator+= folds durations like the other tallies.
  RunStats sum;
  sum += out.stats;
  sum += out.stats;
  EXPECT_EQ(sum.duration_ns, 2 * out.stats.duration_ns);
}

TEST(Profiler, RunReportSurfacesWallDuration) {
  MetricsRegistry metrics;
  NetworkOptions opt;
  opt.num_threads = 2;
  opt.metrics = &metrics;
  const Graph g = graph::grid(8, 8);
  Network net(g, opt);
  auto algos = make_saturate(g, 6);
  net.run(algos);
  std::ostringstream os;
  write_run_report(os, metrics, {});
  const jsonmin::Value doc = jsonmin::parse(os.str());
  EXPECT_EQ(doc.at("schema").string, "ecd-run-report-v1");
  const jsonmin::Value& wall = doc.at("wall");
  EXPECT_GT(wall.at("duration_ns").number, 0);
  EXPECT_TRUE(wall.at("phases").is_array());
  // The deterministic metrics snapshot must NOT pick up the duration: the
  // "metrics" section's keys stay wall-clock-free.
  EXPECT_EQ(metrics.to_json().find("duration"), std::string::npos);
}

// --- Summary accounting ------------------------------------------------------

TEST(Profiler, SerialRunSummaryIsDegenerate) {
  ExecutionProfiler profiler;
  run_saturate(1, &profiler);
  const ExecutionProfiler::Summary s = profiler.summary();
  EXPECT_EQ(s.num_shards, 1);
  EXPECT_EQ(s.runs, 1);
  EXPECT_GT(s.rounds, 0);
  EXPECT_GT(s.wall_ns, 0);
  EXPECT_GT(s.total.phase_ns[kProfileCompute], 0);
  // One shard: max busy == mean busy every round, and Amdahl at k=1 is 1x.
  EXPECT_DOUBLE_EQ(s.load_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(s.achievable_speedup, 1.0);
  ASSERT_EQ(s.shards.size(), 1u);
  EXPECT_DOUBLE_EQ(s.shards[0].busy_share, 1.0);
  // One shard runs every round inline: no dispatch hand-off to measure.
  EXPECT_TRUE(s.dispatch_latency.empty());
}

TEST(Profiler, ParallelRunSummaryAccounting) {
  ExecutionProfiler profiler;
  run_saturate(4, &profiler);
  const ExecutionProfiler::Summary s = profiler.summary();
  EXPECT_EQ(s.num_shards, 4);
  ASSERT_EQ(s.shards.size(), 4u);
  double share_sum = 0.0;
  for (const auto& sh : s.shards) {
    EXPECT_GT(sh.totals.rounds, 0) << "shard " << sh.shard;
    share_sum += sh.busy_share;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GE(s.barrier_wait_fraction, 0.0);
  EXPECT_LT(s.barrier_wait_fraction, 1.0);
  EXPECT_GE(s.load_imbalance, 1.0);
  EXPECT_GE(s.achievable_speedup, 1.0);
  EXPECT_LE(s.achievable_speedup, 4.0);
  EXPECT_GE(s.serial_fraction, 0.0);
  EXPECT_LE(s.serial_fraction, 1.0);
  // Every profiled parallel round dispatched to 4 shards.
  EXPECT_EQ(s.dispatch_latency.count(), 4 * s.rounds);
}

TEST(Profiler, AccumulatesAcrossRunsAndNetworksAndResets) {
  ExecutionProfiler profiler;
  run_saturate(2, &profiler);
  const std::int64_t after_first = profiler.rounds_profiled();
  run_saturate(4, &profiler);  // wider Network: bind() grows, never shrinks
  EXPECT_GT(profiler.rounds_profiled(), after_first);
  EXPECT_EQ(profiler.runs_profiled(), 2);
  EXPECT_EQ(profiler.summary().num_shards, 4);
  profiler.reset();
  EXPECT_EQ(profiler.rounds_profiled(), 0);
  EXPECT_EQ(profiler.runs_profiled(), 0);
  EXPECT_EQ(profiler.summary().rounds, 0);
  // Lanes survive a reset; the next run reuses them without rebinding.
  run_saturate(4, &profiler);
  EXPECT_EQ(profiler.runs_profiled(), 1);
  EXPECT_EQ(profiler.summary().num_shards, 4);
}

// --- Export structure --------------------------------------------------------

TEST(Profiler, ProfileReportHasStableStructure) {
  ExecutionProfiler profiler;
  run_saturate(4, &profiler);
  std::ostringstream os;
  ProfileReportContext ctx;
  ctx.title = "saturate grid16";
  ctx.info = {{"family", "grid"}, {"threads", "4"}};
  write_profile_report(os, profiler, ctx);
  const jsonmin::Value doc = jsonmin::parse(os.str());
  EXPECT_EQ(doc.at("schema").string, "ecd-profile-v1");
  EXPECT_EQ(doc.at("title").string, "saturate grid16");
  EXPECT_EQ(doc.at("info").at("family").string, "grid");
  const jsonmin::Value& p = doc.at("profile");
  EXPECT_EQ(p.at("num_shards").number, 4);
  EXPECT_EQ(p.at("runs").number, 1);
  EXPECT_GT(p.at("rounds").number, 0);
  EXPECT_GT(p.at("wall_ns").number, 0);
  const jsonmin::Value& totals = p.at("totals");
  for (const char* key : {"compute_ns", "deliver_ns", "fault_ns", "reduce_ns",
                          "barrier_ns"}) {
    EXPECT_TRUE(totals.find(key) != nullptr) << key;
  }
  EXPECT_EQ(totals.at("fault_ns").number, 0);  // fault-free workload
  const jsonmin::Value& derived = p.at("derived");
  for (const char* key : {"barrier_wait_fraction", "load_imbalance",
                          "serial_fraction", "achievable_speedup"}) {
    EXPECT_TRUE(derived.find(key) != nullptr) << key;
  }
  const jsonmin::Value& lat = p.at("dispatch_latency_ns");
  for (const char* key : {"count", "sum", "max", "p50", "p99"}) {
    EXPECT_TRUE(lat.find(key) != nullptr) << key;
  }
  EXPECT_GT(lat.at("count").number, 0);
  const jsonmin::Value& shards = p.at("shards");
  ASSERT_TRUE(shards.is_array());
  ASSERT_EQ(shards.items.size(), 4u);
  for (const jsonmin::Value& sh : shards.items) {
    EXPECT_TRUE(sh.find("shard") != nullptr);
    EXPECT_TRUE(sh.find("rounds") != nullptr);
    EXPECT_TRUE(sh.find("compute_ns") != nullptr);
    EXPECT_TRUE(sh.find("barrier_ns") != nullptr);
    EXPECT_TRUE(sh.find("busy_share") != nullptr);
  }
}

TEST(Profiler, ChromeTraceHasThreadTimelineStructure) {
  ExecutionProfiler profiler;
  run_saturate(4, &profiler);
  std::ostringstream os;
  profiler.write_chrome_trace(os);
  const jsonmin::Value doc = jsonmin::parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const jsonmin::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.items.empty());
  EXPECT_EQ(events.items[0].at("ph").string, "M");
  EXPECT_EQ(events.items[0].at("name").string, "process_name");
  std::set<double> named_tids;
  std::set<double> slice_tids;
  const std::set<std::string> slice_names{"compute", "barrier", "deliver",
                                          "reduce"};
  for (const jsonmin::Value& e : events.items) {
    const std::string& ph = e.at("ph").string;
    const double tid = e.at("tid").number;
    if (ph == "M") {
      if (e.at("name").string == "thread_name") named_tids.insert(tid);
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_TRUE(slice_names.count(e.at("name").string)) << e.at("name").string;
    EXPECT_GE(e.at("dur").number, 0);
    EXPECT_TRUE(e.find("ts") != nullptr);
    EXPECT_TRUE(e.at("args").find("round") != nullptr);
    // The reduction runs on the caller thread only (tid 0).
    if (e.at("name").string == "reduce") EXPECT_EQ(tid, 0);
    slice_tids.insert(tid);
  }
  // One named timeline per shard, and every shard emitted slices.
  EXPECT_EQ(named_tids.size(), 4u);
  EXPECT_EQ(slice_tids.size(), 4u);
}

TEST(Profiler, FormatProfileTableMentionsDerivedAggregates) {
  ExecutionProfiler profiler;
  run_saturate(2, &profiler);
  const std::string table = format_profile_table(profiler.summary());
  EXPECT_NE(table.find("busy_share"), std::string::npos);
  EXPECT_NE(table.find("barrier-wait fraction"), std::string::npos);
  EXPECT_NE(table.find("load imbalance"), std::string::npos);
  EXPECT_NE(table.find("achievable speedup"), std::string::npos);
  EXPECT_NE(table.find("dispatch latency"), std::string::npos);
}

// Ring wrap: aggregates keep covering every round even when the timeline
// only retains the most recent ring_capacity samples per shard.
TEST(Profiler, RingWrapKeepsAggregatesAndBoundsTimeline) {
  ExecutionProfiler::Options popt;
  popt.ring_capacity = 4;
  ExecutionProfiler profiler(popt);
  EXPECT_EQ(profiler.ring_capacity(), 4);
  run_saturate(1, &profiler);  // 13+ rounds > 4 ring slots
  const ExecutionProfiler::Summary s = profiler.summary();
  EXPECT_GT(s.rounds, 4);
  EXPECT_EQ(s.total.rounds, s.rounds);  // aggregates saw every round
  std::ostringstream os;
  profiler.write_chrome_trace(os);
  const jsonmin::Value doc = jsonmin::parse(os.str());
  std::int64_t compute_slices = 0;
  double max_round = -1;
  for (const jsonmin::Value& e : doc.at("traceEvents").items) {
    if (e.at("ph").string != "X" || e.at("name").string != "compute") continue;
    ++compute_slices;
    max_round = std::max(max_round, e.at("args").at("round").number);
  }
  EXPECT_EQ(compute_slices, 4);  // timeline bounded by the ring
  EXPECT_EQ(max_round, static_cast<double>(s.rounds - 1));  // newest kept
}

}  // namespace
}  // namespace ecd::congest
