// Tests for the always-on metrics registry (src/congest/metrics.h) and its
// Network integration: histogram/accumulator units, bit-identical
// snapshots across NetworkOptions::num_threads (the §13 parallel-safety
// contract, checked as literal JSON string equality), the critical-path
// estimate on a topology where the answer is known exactly, phase accrual,
// named instruments, and the ecd-run-report-v1 document consumed by
// `ecd_cli report`.
#include "src/congest/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/luby_mis.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "tools/json_min.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::VertexId;

// --- Units -----------------------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  EXPECT_EQ(LogHistogram::bucket_of(-3), 0);
  EXPECT_EQ(LogHistogram::bucket_of(0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1), 1);
  EXPECT_EQ(LogHistogram::bucket_of(2), 2);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2);
  EXPECT_EQ(LogHistogram::bucket_of(4), 3);
  EXPECT_EQ(LogHistogram::bucket_of(7), 3);
  EXPECT_EQ(LogHistogram::bucket_of(8), 4);
  EXPECT_EQ(LogHistogram::bucket_of(std::numeric_limits<std::int64_t>::max()),
            63);

  EXPECT_EQ(LogHistogram::bucket_upper_bound(0), 0);
  EXPECT_EQ(LogHistogram::bucket_upper_bound(1), 1);
  EXPECT_EQ(LogHistogram::bucket_upper_bound(2), 3);
  EXPECT_EQ(LogHistogram::bucket_upper_bound(3), 7);
  EXPECT_EQ(LogHistogram::bucket_upper_bound(63),
            std::numeric_limits<std::int64_t>::max());
  // Every value lands in the bucket whose bounds contain it.
  for (const std::int64_t v : {0LL, 1LL, 5LL, 100LL, 65535LL, 1LL << 40}) {
    const int b = LogHistogram::bucket_of(v);
    EXPECT_LE(v, LogHistogram::bucket_upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, LogHistogram::bucket_upper_bound(b - 1)) << v;
    }
  }
}

TEST(LogHistogram, RecordMergePercentile) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50), 0);
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 90 + 10 * 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.percentile(50), 1);
  // p99 falls in the bucket holding 1000; the estimate is capped at the
  // observed max, not the bucket's upper bound.
  EXPECT_EQ(h.percentile(99), 1000);

  LogHistogram other;
  other.record(0);
  other.record(1 << 20);
  h.merge(other);
  EXPECT_EQ(h.count(), 102);
  EXPECT_EQ(h.max(), 1 << 20);
  EXPECT_EQ(h.bucket_count(0), 1);

  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.sum(), 0);
}

TEST(RunStats, AccumulateSumsCountsAndMaxesLoad) {
  RunStats a;
  a.rounds = 3;
  a.messages_sent = 10;
  a.words_sent = 20;
  a.max_edge_load = 2;
  a.messages_dropped = 1;
  RunStats b;
  b.rounds = 4;
  b.messages_sent = 5;
  b.words_sent = 7;
  b.max_edge_load = 5;
  b.messages_delayed = 2;
  b.messages_duplicated = 3;
  b.vertices_crashed = 1;
  a += b;
  EXPECT_EQ(a.rounds, 7);
  EXPECT_EQ(a.messages_sent, 15);
  EXPECT_EQ(a.words_sent, 27);
  EXPECT_EQ(a.max_edge_load, 5);  // max, not sum
  EXPECT_EQ(a.messages_dropped, 1);
  EXPECT_EQ(a.messages_delayed, 2);
  EXPECT_EQ(a.messages_duplicated, 3);
  EXPECT_EQ(a.vertices_crashed, 1);
}

TEST(MetricsRegistry, NamedInstruments) {
  MetricsRegistry reg;
  MetricsRegistry::Counter* c = reg.counter("gather.retransmissions");
  c->increment();
  c->add(4);
  // Same name => same instrument; the pointer is stable.
  EXPECT_EQ(reg.counter("gather.retransmissions"), c);
  EXPECT_EQ(c->value(), 5);

  MetricsRegistry::Gauge* gauge = reg.gauge("queue.depth");
  gauge->set(7);
  gauge->set(3);
  EXPECT_EQ(gauge->value(), 3);
  EXPECT_EQ(gauge->max(), 7);

  LogHistogram* h = reg.histogram("walk.length");
  h->record(12);
  EXPECT_EQ(reg.histogram("walk.length")->count(), 1);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"gather.retransmissions\":5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue.depth\""), std::string::npos) << json;
}

TEST(MetricsRegistry, PhaseAccrualAndNesting) {
  MetricsRegistry reg;
  RunStats round;
  round.messages_sent = 5;
  round.words_sent = 9;
  round.max_edge_load = 2;

  reg.phase_begin("outer");
  reg.begin_run(4, 3);
  reg.record_round(round);
  reg.phase_begin("inner");
  reg.record_round(round);
  reg.record_tag_slot(metrics_tag_slot(kTagBroadcast), 5, 9);
  reg.phase_end();
  RunStats totals;
  totals.rounds = 2;
  totals.messages_sent = 10;
  totals.words_sent = 18;
  totals.max_edge_load = 2;
  reg.end_run(totals, 6);
  reg.phase_end();

  ASSERT_EQ(reg.phases().size(), 2u);
  const PhaseMetrics& outer = reg.phases()[0];
  const PhaseMetrics& inner = reg.phases()[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_TRUE(outer.closed);
  EXPECT_EQ(outer.stats.rounds, 2);      // both rounds accrued
  EXPECT_EQ(outer.stats.messages_sent, 10);
  EXPECT_EQ(outer.runs, 1);              // the run ended while outer was open
  EXPECT_EQ(outer.critical_path, 6);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.stats.rounds, 1);      // only the second round
  EXPECT_EQ(outer.begin_round, 0);
  EXPECT_EQ(inner.begin_round, 1);       // opened after the first round
  EXPECT_EQ(inner.runs, 0);              // run ended after inner closed
  EXPECT_EQ(inner.tags[metrics_tag_slot(kTagBroadcast)].messages, 5);
  // Tag traffic recorded inside inner also accrues to outer (containment).
  EXPECT_EQ(outer.tags[metrics_tag_slot(kTagBroadcast)].words, 9);

  // Unbalanced phase_end is ignored, not a crash.
  reg.phase_end();
  EXPECT_EQ(reg.phases().size(), 2u);
}

TEST(MetricsRegistry, TagSlotMapping) {
  EXPECT_EQ(metrics_tag_slot(kTagElection), kTagElection);
  EXPECT_EQ(metrics_tag_slot(kTagUserBase), kTagUserBase);
  EXPECT_EQ(metrics_tag_slot(kTagUserBase + kMetricsUserTagSlots - 1),
            kMetricsTagSlots - 2);
  // Deep user tags and invalid negatives share the overflow slot.
  EXPECT_EQ(metrics_tag_slot(kTagUserBase + kMetricsUserTagSlots),
            kMetricsOverflowSlot);
  EXPECT_EQ(metrics_tag_slot(-1), kMetricsOverflowSlot);
  EXPECT_EQ(metrics_slot_tag(kMetricsOverflowSlot), -1);
  EXPECT_EQ(metrics_slot_tag(kTagDiameter), kTagDiameter);
}

// --- Thread-count determinism ----------------------------------------------
//
// The §13 contract: a registry observing the same workload must produce a
// byte-identical snapshot at every NetworkOptions::num_threads value. The
// snapshot includes every histogram bucket, tag row, per-edge total and
// the critical path, so string equality is a complete check.

// Election flood + leader broadcast + diameter check over a planar graph:
// the multi-primitive "flood" workload.
std::string flood_snapshot(int threads) {
  graph::Rng rng(7);
  const Graph g = graph::random_maximal_planar(96, rng);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cluster[v] = v % 2;

  MetricsRegistry reg;
  NetworkOptions net;
  net.metrics = &reg;
  net.num_threads = threads;

  PhaseScope phase(net, "phase:flood");
  const auto leaders = elect_cluster_leaders(g, cluster, net);
  std::vector<std::int64_t> leader_value(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leaders.leader_of[v] == v) leader_value[v] = 9000 + v;
  }
  broadcast_from_leaders(g, cluster, leaders.leader_of, leader_value, net);
  check_cluster_diameter(g, cluster, 6, net);
  return reg.to_json();
}

TEST(MetricsDeterminism, FloodSnapshotBitIdenticalAcrossThreadCounts) {
  const std::string serial = flood_snapshot(1);
  EXPECT_FALSE(serial.empty());
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, flood_snapshot(threads)) << "threads=" << threads;
  }
}

std::string luby_snapshot(int threads) {
  graph::Rng rng(11);
  const Graph g = graph::random_planar(128, 256, rng);
  MetricsRegistry reg;
  NetworkOptions net;
  net.metrics = &reg;
  net.num_threads = threads;
  const auto result = baselines::luby_mis(g, 7, net);
  EXPECT_FALSE(result.independent_set.empty());
  return reg.to_json();
}

TEST(MetricsDeterminism, LubyMisSnapshotBitIdenticalAcrossThreadCounts) {
  const std::string serial = luby_snapshot(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, luby_snapshot(threads)) << "threads=" << threads;
  }
}

std::string faulted_gather_snapshot(int threads) {
  graph::Rng rng(23);
  const Graph g = graph::random_maximal_planar(64, rng);
  std::vector<int> cluster(g.num_vertices(), 0);
  const auto leaders = elect_cluster_leaders(g, cluster, {});

  MetricsRegistry reg;
  ReliableGatherOptions ropt;
  ropt.net.metrics = &reg;
  ropt.net.num_threads = threads;
  ropt.net.bandwidth_tokens = 4;
  ropt.net.faults.seed = 99;
  ropt.net.faults.drop_probability = 0.05;
  ropt.net.faults.duplicate_probability = 0.02;
  ropt.net.faults.delay_probability = 0.05;
  ropt.net.faults.max_delay_rounds = 2;
  ropt.seed = 1234;

  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 100 + v}});
  }
  const auto result =
      reliable_walk_gather(g, cluster, leaders.leader_of, tokens, ropt);
  EXPECT_TRUE(result.gather.complete);
  // The plan must actually have fired for this to test the fault counters.
  EXPECT_GT(reg.totals().messages_dropped, 0);
  return reg.to_json();
}

TEST(MetricsDeterminism, FaultedReliableGatherBitIdenticalAcrossThreadCounts) {
  const std::string serial = faulted_gather_snapshot(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, faulted_gather_snapshot(threads)) << "threads=" << threads;
  }
}

// --- Critical path ----------------------------------------------------------

// Broadcast from one end of a path graph: the wavefront travels n-1 hops,
// and the far endpoint's forward-on-receipt echoes one hop back toward the
// leader — the longest causal message chain is exactly (n-1) + 1.
TEST(MetricsCriticalPath, PathGraphBroadcastIsExact) {
  constexpr int kN = 33;
  std::vector<graph::Edge> edges;
  for (VertexId v = 0; v + 1 < kN; ++v) edges.push_back({v, v + 1});
  const Graph g = Graph::from_edges(kN, std::move(edges));
  std::vector<int> cluster(kN, 0);
  std::vector<VertexId> leader_of(kN, 0);  // leader at the left end
  std::vector<std::int64_t> leader_value(kN, 0);
  leader_value[0] = 42;

  for (const int threads : {1, 4}) {
    MetricsRegistry reg;
    NetworkOptions net;
    net.metrics = &reg;
    net.num_threads = threads;
    broadcast_from_leaders(g, cluster, leader_of, leader_value, net);
    EXPECT_EQ(reg.critical_path_longest_run(), kN) << "threads=" << threads;
    EXPECT_EQ(reg.critical_path_total(), kN) << "threads=" << threads;
  }
}

// --- Framework integration and the run report --------------------------------

TEST(RunReport, FaultedFrameworkEmitsSchemaValidReport) {
  graph::Rng rng(3);
  const Graph g = graph::random_maximal_planar(72, rng);

  MetricsRegistry reg;
  core::FrameworkOptions fopt;
  fopt.seed = 5;
  fopt.metrics = &reg;
  fopt.num_threads = 2;
  fopt.faults.seed = 17;
  fopt.faults.drop_probability = 0.03;
  const auto p = core::partition_and_gather(g, 0.3, fopt);
  EXPECT_TRUE(p.gather_complete);

  // The faulted path really ran and surfaced in the registry.
  EXPECT_GT(reg.totals().messages_dropped, 0);
  EXPECT_GT(reg.counter("gather.retransmissions")->value(), 0);
  EXPECT_GE(reg.counter("gather.epochs")->value(), 1);

  // Every pipeline phase opened a PhaseScope.
  std::vector<std::string> phase_names;
  for (const auto& phase : reg.phases()) {
    if (phase.depth == 0) phase_names.push_back(phase.name);
  }
  EXPECT_EQ(phase_names,
            (std::vector<std::string>{"phase:decomposition", "phase:election",
                                      "phase:orientation", "phase:gather",
                                      "phase:reconstruct"}));

  std::ostringstream os;
  RunReportContext ctx;
  ctx.title = "metrics_test faulted run";
  ctx.info = {{"family", "triangulation"}, {"n", "72"}};
  ctx.top_k_edges = 5;
  write_run_report(os, reg, ctx);

  const jsonmin::Value doc = jsonmin::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string, "ecd-run-report-v1");
  EXPECT_EQ(doc.at("title").string, "metrics_test faulted run");
  EXPECT_EQ(doc.at("info").at("family").string, "triangulation");

  const jsonmin::Value& metrics = doc.at("metrics");
  EXPECT_GT(metrics.at("totals").at("rounds").number, 0);
  EXPECT_GT(metrics.at("totals").at("dropped").number, 0);
  EXPECT_GT(metrics.at("runs").number, 0);
  EXPECT_GT(metrics.at("critical_path").at("total").number, 0);
  // Per-tag data is present and structured.
  const jsonmin::Value& tags = metrics.at("tags");
  ASSERT_TRUE(tags.is_array());
  EXPECT_FALSE(tags.items.empty());
  bool saw_walk_token = false;
  for (const jsonmin::Value& tag : tags.items) {
    EXPECT_TRUE(tag.find("id") && tag.find("name") && tag.find("messages") &&
                tag.find("words"));
    if (tag.at("name").string == "walk_token") saw_walk_token = true;
  }
  EXPECT_TRUE(saw_walk_token);
  // Top-k congested edges, bounded by the requested k.
  const jsonmin::Value& top_edges = metrics.at("top_edges");
  ASSERT_TRUE(top_edges.is_array());
  EXPECT_LE(top_edges.items.size(), 5u);
  EXPECT_FALSE(top_edges.items.empty());
  for (const jsonmin::Value& e : top_edges.items) {
    EXPECT_TRUE(e.find("from") && e.find("to") && e.find("messages") &&
                e.find("words") && e.find("peak_load"));
  }
  // Named instruments made it into the document.
  EXPECT_TRUE(metrics.at("counters").find("gather.retransmissions"));
  // Phases serialize with their stats.
  const jsonmin::Value& phases = metrics.at("phases");
  ASSERT_TRUE(phases.is_array());
  EXPECT_EQ(phases.items.size(), reg.phases().size());
}

// The same faulted framework run must be thread-count invariant end to end.
TEST(MetricsDeterminism, FaultedFrameworkSnapshotAcrossThreadCounts) {
  graph::Rng rng(3);
  const Graph g = graph::random_maximal_planar(72, rng);
  auto snapshot = [&](int threads) {
    MetricsRegistry reg;
    core::FrameworkOptions fopt;
    fopt.seed = 5;
    fopt.metrics = &reg;
    fopt.num_threads = threads;
    fopt.faults.seed = 17;
    fopt.faults.drop_probability = 0.03;
    core::partition_and_gather(g, 0.3, fopt);
    return reg.to_json();
  };
  const std::string serial = snapshot(1);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(serial, snapshot(threads)) << "threads=" << threads;
  }
}

TEST(MetricsRegistry, ResetClearsEverything) {
  MetricsRegistry reg;
  reg.begin_run(4, 3);
  RunStats round;
  round.messages_sent = 2;
  reg.record_round(round);
  reg.record_tag_slot(0, 2, 2);
  reg.record_edge(0, 1, 2, 2, 1);
  RunStats totals;
  totals.rounds = 1;
  reg.end_run(totals, 1);
  reg.counter("c")->increment();
  reg.phase_begin("p");
  reg.phase_end();
  reg.begin_run(4, 3);
  reg.record_violation(
      CongestionError(CongestionError::Kind::kBandwidth, 0, 0, 1, 2, 1));
  ASSERT_EQ(reg.rounds().size(), 1u);
  const std::size_t capacity = reg.rounds().capacity();
  reg.reset();
  EXPECT_EQ(reg.totals().rounds, 0);
  EXPECT_EQ(reg.runs_observed(), 0);
  EXPECT_EQ(reg.critical_path_total(), 0);
  EXPECT_TRUE(reg.phases().empty());
  EXPECT_TRUE(reg.top_edges(-1).empty());
  EXPECT_EQ(reg.tag_messages(0), 0);
  EXPECT_TRUE(reg.rounds().empty());
  EXPECT_TRUE(reg.violations().empty());
  // The per-round samples keep their storage for the next history.
  EXPECT_EQ(reg.rounds().capacity(), capacity);
  // Instruments survive reset as registered names but are zeroed.
  EXPECT_EQ(reg.counter("c")->value(), 0);
}

}  // namespace
}  // namespace ecd::congest
