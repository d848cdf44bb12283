// The observability layer (src/congest/trace.h, src/congest/metrics.h):
// reconciliation of the registry's totals against RunStats and the
// RoundLedger, phase nesting, the registry's exporters, enriched congestion
// errors, the event stream's thread-count invariance and sampling, and the
// flight recorder. See DESIGN.md §9 and §18.
#include <gtest/gtest.h>

#include <sstream>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/trace.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "tools/json_min.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

std::vector<int> single_cluster(const Graph& g) {
  return std::vector<int>(g.num_vertices(), 0);
}

// Runs a deterministic walk gather on `net` (its observers, thread count,
// sampling and faults).
GatherResult run_gather(const Graph& g, NetworkOptions net = {}) {
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 1000 + v}});
  }
  GatherOptions opt;
  opt.net = net;
  opt.net.bandwidth_tokens = 4;
  return random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
}

// partition_and_gather with the registry attached.
core::Partition observed_partition(const Graph& g, MetricsRegistry& metrics,
                                   TraceSink* sink = nullptr) {
  core::FrameworkOptions opt;
  opt.metrics = &metrics;
  opt.trace = sink;
  return core::partition_and_gather(g, 0.3, opt);
}

// Records the spans a sink sees, with their nesting depth.
class SpanRecorder final : public TraceSink {
 public:
  void on_span_begin(const std::string& name) override {
    spans.emplace_back(name, depth_++);
  }
  void on_span_end(const std::string& name) override {
    (void)name;
    --depth_;
  }
  std::vector<std::pair<std::string, int>> spans;

 private:
  int depth_ = 0;
};

TEST(Trace, NullSinkLeavesBehaviourUnchanged) {
  Rng rng(11);
  Graph g = graph::random_maximal_planar(50, rng);
  const auto plain = run_gather(g);
  FlightRecorder recorder;
  MetricsRegistry metrics;
  NetworkOptions net;
  net.trace = &recorder;
  net.metrics = &metrics;
  const auto traced = run_gather(g, net);
  // Identical seeds, identical schedule: observers must observe, not
  // perturb.
  EXPECT_EQ(plain.stats.rounds, traced.stats.rounds);
  EXPECT_EQ(plain.stats.messages_sent, traced.stats.messages_sent);
  EXPECT_EQ(plain.stats.words_sent, traced.stats.words_sent);
  EXPECT_EQ(plain.stats.max_edge_load, traced.stats.max_edge_load);
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(traced.complete);
  EXPECT_EQ(plain.delivered[0].size(), traced.delivered[0].size());
}

TEST(Trace, TotalsReconcileExactlyWithRunStats) {
  Rng rng(13);
  Graph g = graph::random_maximal_planar(60, rng);
  MetricsRegistry metrics;
  NetworkOptions net;
  net.metrics = &metrics;
  const auto r = run_gather(g, net);
  ASSERT_TRUE(r.complete);
  const RunStats& totals = metrics.totals();
  EXPECT_EQ(totals.rounds, r.stats.rounds);
  EXPECT_EQ(totals.messages_sent, r.stats.messages_sent);
  EXPECT_EQ(totals.words_sent, r.stats.words_sent);
  EXPECT_EQ(totals.max_edge_load, r.stats.max_edge_load);
}

TEST(Trace, TagTrafficSumsToTotalMessages) {
  Rng rng(17);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsRegistry metrics;
  NetworkOptions net;
  net.metrics = &metrics;
  run_gather(g, net);
  std::int64_t tagged_messages = 0, tagged_words = 0;
  for (const TagTraffic& t : metrics.tag_slots()) {
    tagged_messages += t.messages;
    tagged_words += t.words;
  }
  EXPECT_EQ(tagged_messages, metrics.totals().messages_sent);
  EXPECT_EQ(tagged_words, metrics.totals().words_sent);
  // The gather's traffic is walk tokens.
  EXPECT_GT(metrics.tag_messages(kTagWalkToken), 0);
  EXPECT_STREQ(tag_name(kTagWalkToken), "walk_token");
}

TEST(Trace, PerRoundSamplesSumToTotals) {
  Rng rng(19);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsRegistry metrics;
  NetworkOptions net;
  net.metrics = &metrics;
  run_gather(g, net);
  std::int64_t messages = 0, words = 0;
  int peak = 0;
  for (const RoundSample& s : metrics.rounds()) {
    messages += s.messages;
    words += s.words;
    peak = std::max(peak, s.max_edge_load);
  }
  EXPECT_EQ(static_cast<std::int64_t>(metrics.rounds().size()),
            metrics.totals().rounds);
  EXPECT_EQ(messages, metrics.totals().messages_sent);
  EXPECT_EQ(words, metrics.totals().words_sent);
  EXPECT_EQ(peak, metrics.totals().max_edge_load);
}

// One guard opens both observers: the sink's spans and the registry's
// phases are the same tree, and the primitives' phases nest inside the
// pipeline's, on the registry's round timeline.
TEST(Trace, SpansNestAndPrimitiveSpansSitInsidePhases) {
  Graph g = graph::grid(8, 8);
  MetricsRegistry metrics;
  SpanRecorder spans;
  const auto p = observed_partition(g, metrics, &spans);
  ASSERT_TRUE(p.gather_complete);

  std::vector<std::string> phase_names;
  std::vector<std::pair<std::string, int>> registry_spans;
  bool saw_nested_primitive = false;
  const auto& phases = metrics.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseMetrics& ph = phases[i];
    EXPECT_TRUE(ph.closed) << ph.name;
    registry_spans.emplace_back(ph.name, ph.depth);
    if (ph.depth == 0) phase_names.push_back(ph.name);
    if (ph.depth == 1 &&
        (ph.name == "leader_election" || ph.name == "walk_gather" ||
         ph.name == "orientation")) {
      saw_nested_primitive = true;
    }
    // A nested phase lies inside its parent's rounds.
    if (ph.depth == 0) continue;
    std::size_t parent = i;
    while (phases[parent].depth != ph.depth - 1) --parent;
    EXPECT_GE(ph.begin_round, phases[parent].begin_round) << ph.name;
    EXPECT_LE(ph.begin_round + ph.stats.rounds,
              phases[parent].begin_round + phases[parent].stats.rounds)
        << ph.name;
  }
  EXPECT_EQ(phase_names,
            (std::vector<std::string>{"phase:decomposition", "phase:election",
                                      "phase:orientation", "phase:gather",
                                      "phase:reconstruct"}));
  EXPECT_TRUE(saw_nested_primitive);
  EXPECT_EQ(spans.spans, registry_spans);
}

// For a partition_and_gather run with a registry attached, the top-level
// phases' round counts sum to the ledger's measured total and their
// message/word counts to the registry's totals.
TEST(Trace, PhaseSpansReconcileWithLedgerAndRunStats) {
  Rng rng(23);
  Graph g = graph::random_maximal_planar(120, rng);
  MetricsRegistry metrics;
  const auto p = observed_partition(g, metrics);
  ASSERT_TRUE(p.gather_complete);

  std::int64_t span_rounds = 0, span_messages = 0, span_words = 0;
  for (const auto& ph : metrics.phases()) {
    if (ph.depth != 0) continue;
    span_rounds += ph.stats.rounds;
    span_messages += ph.stats.messages_sent;
    span_words += ph.stats.words_sent;
  }
  EXPECT_EQ(span_rounds, p.ledger.measured_total());
  EXPECT_EQ(span_messages, metrics.totals().messages_sent);
  EXPECT_EQ(span_words, metrics.totals().words_sent);

  // Ledger entries carry the per-phase traffic, and their sums agree with
  // the registry's grand totals.
  std::int64_t ledger_messages = 0, ledger_words = 0;
  int ledger_max_load = 0;
  for (const auto& e : p.ledger.entries()) {
    if (!e.measured) continue;
    ledger_messages += e.stats.messages_sent;
    ledger_words += e.stats.words_sent;
    ledger_max_load = std::max(ledger_max_load, e.stats.max_edge_load);
  }
  EXPECT_EQ(ledger_messages, metrics.totals().messages_sent);
  EXPECT_EQ(ledger_words, metrics.totals().words_sent);
  EXPECT_EQ(ledger_max_load, metrics.totals().max_edge_load);
}

// Minimal structure-aware JSON checker: balanced {} and [] outside strings,
// valid escapes, and nothing after the top-level value.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false, seen_value = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; seen_value = true; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
    if (seen_value && depth == 0 && !std::isspace(static_cast<unsigned char>(c)) &&
        c != '}' && c != ']') {
      return false;
    }
  }
  return depth == 0 && !in_string && seen_value;
}

std::string jsonl_of(const MetricsRegistry& metrics) {
  std::ostringstream os;
  export_jsonl(metrics, os);
  return os.str();
}

std::string chrome_of(const MetricsRegistry& metrics) {
  std::ostringstream os;
  export_chrome_trace(metrics, os);
  return os.str();
}

TEST(Trace, JsonlExportIsParseablePerLine) {
  Rng rng(29);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsRegistry metrics;
  observed_partition(g, metrics);

  std::istringstream lines(jsonl_of(metrics));
  std::string line;
  int count = 0;
  bool saw_meta = false, saw_span = false, saw_tag = false, saw_edge = false;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(json_balanced(line)) << line;
    ++count;
    saw_meta |= line.find("\"type\":\"meta\"") != std::string::npos;
    saw_span |= line.find("\"type\":\"span\"") != std::string::npos;
    saw_tag |= line.find("\"type\":\"tag\"") != std::string::npos;
    saw_edge |= line.find("\"type\":\"edge\"") != std::string::npos;
  }
  EXPECT_GT(count, 10);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_tag);
  EXPECT_TRUE(saw_edge);
}

TEST(Trace, ChromeTraceExportIsParseable) {
  Rng rng(31);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsRegistry metrics;
  observed_partition(g, metrics);

  const std::string text = chrome_of(metrics);
  EXPECT_TRUE(json_balanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // phases
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(text.find("phase:gather"), std::string::npos);
}

TEST(Trace, HotspotReportNamesCongestedEdgesAndPercentiles) {
  Rng rng(37);
  Graph g = graph::random_maximal_planar(60, rng);
  MetricsRegistry metrics;
  observed_partition(g, metrics);

  const std::string report = hotspot_report(metrics, 5);
  EXPECT_NE(report.find("top congested directed edges"), std::string::npos);
  EXPECT_NE(report.find("p50="), std::string::npos);
  EXPECT_NE(report.find("p99="), std::string::npos);
  EXPECT_NE(report.find("phase:gather"), std::string::npos);
  // Percentiles of the per-round peak load are sane: p50 <= p99 <= peak.
  const LogHistogram& load = metrics.round_edge_load_histogram();
  EXPECT_LE(load.percentile(50), load.percentile(99));
  EXPECT_LE(load.percentile(99), metrics.totals().max_edge_load);
  EXPECT_GE(load.percentile(99), 1);
  // Top-k really is bounded and sorted.
  const auto top = metrics.top_edges(3);
  ASSERT_LE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].messages, top[i].messages);
  }
}

// Golden-structure check: the Chrome trace must be a real JSON document
// whose traceEvents array contains exactly one complete ("X") event per
// phase, each with a positive duration, plus two counter ("C") tracks per
// round sample. Parsed with the strict tools/ JSON parser, not just
// brace-balanced.
TEST(Trace, ChromeTraceGoldenStructure) {
  Rng rng(41);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsRegistry metrics;
  observed_partition(g, metrics);

  const std::string text = chrome_of(metrics);
  const jsonmin::Value doc = jsonmin::parse(text);
  ASSERT_TRUE(doc.is_object());
  const jsonmin::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::size_t complete_events = 0, counter_events = 0;
  for (const jsonmin::Value& ev : events.items) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").string;
    EXPECT_FALSE(ev.at("name").string.empty());
    EXPECT_GE(ev.at("ts").number, 0.0);
    if (ph == "X") {
      ++complete_events;
      // Zero-round phases are widened to dur 1 so they stay visible.
      EXPECT_GE(ev.at("dur").number, 1.0);
      const jsonmin::Value& args = ev.at("args");
      EXPECT_NE(args.find("rounds"), nullptr);
      EXPECT_NE(args.find("messages"), nullptr);
      EXPECT_NE(args.find("max_edge_load"), nullptr);
    } else if (ph == "C") {
      ++counter_events;
    } else {
      EXPECT_EQ(ph, "i");  // violation instants are the only other kind
    }
  }
  EXPECT_EQ(complete_events, metrics.phases().size());
  EXPECT_EQ(counter_events, 2 * metrics.rounds().size());
  // Every phase the registry recorded appears by name.
  for (const PhaseMetrics& ph : metrics.phases()) {
    EXPECT_NE(text.find("\"name\":\"" + ph.name + "\""), std::string::npos)
        << ph.name;
  }
}

// Feeds the registry synthetic traffic directly so edge totals tie exactly,
// then pins the documented tie-break: equal-message edges order by
// (from, to) ascending — both in top_edges() and in the hotspot report
// text.
TEST(Trace, HotspotTopKTieOrderingIsStable) {
  MetricsRegistry metrics;
  metrics.begin_run(8, 8);
  RunStats round;
  round.messages_sent = 4;
  round.words_sent = 8;
  round.max_edge_load = 1;
  for (int r = 0; r < 3; ++r) metrics.record_round(round);
  // Four directed edges, all with 3 messages / 6 words, fed in an order
  // deliberately different from the expected output order.
  const std::pair<VertexId, VertexId> edges[] = {
      {5, 1}, {2, 7}, {2, 3}, {0, 4}};
  for (const auto& [from, to] : edges) metrics.record_edge(from, to, 3, 6, 1);
  RunStats stats;
  stats.rounds = 3;
  stats.messages_sent = 12;
  stats.words_sent = 24;
  stats.max_edge_load = 1;
  metrics.end_run(stats, 1);

  const auto top = metrics.top_edges(3);  // k smaller than edge count
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].from, 0);
  EXPECT_EQ(top[0].to, 4);
  EXPECT_EQ(top[1].from, 2);
  EXPECT_EQ(top[1].to, 3);
  EXPECT_EQ(top[2].from, 2);
  EXPECT_EQ(top[2].to, 7);
  for (const EdgeLoadStats& e : top) {
    EXPECT_EQ(e.messages, 3);
    EXPECT_EQ(e.words, 6);
    EXPECT_EQ(e.peak_load, 1);
  }

  // The rendered report lists the same edges in the same stable order.
  const std::string report = hotspot_report(metrics, 3);
  const auto pos_04 = report.find("0->4");
  const auto pos_23 = report.find("2->3");
  const auto pos_27 = report.find("2->7");
  ASSERT_NE(pos_04, std::string::npos);
  ASSERT_NE(pos_23, std::string::npos);
  ASSERT_NE(pos_27, std::string::npos);
  EXPECT_EQ(report.find("5->1"), std::string::npos);  // cut by k=3
  EXPECT_LT(pos_04, pos_23);
  EXPECT_LT(pos_23, pos_27);
}

class DoubleSendAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    ctx.send(0, {{1}});
    ctx.send(0, {{2}});
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Trace, CongestionErrorCarriesRoundEdgeAndBudget) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  MetricsRegistry metrics;
  NetworkOptions opt;
  opt.metrics = &metrics;
  Network net(g, opt);
  try {
    PhaseScope phase(opt, "phase:violating");
    net.run(algos);
    FAIL() << "expected CongestionError";
  } catch (const CongestionError& err) {
    EXPECT_EQ(err.kind(), CongestionError::Kind::kBandwidth);
    EXPECT_EQ(err.round(), 0);
    EXPECT_EQ(err.from(), 0);
    EXPECT_EQ(err.to(), 1);
    EXPECT_EQ(err.used(), 2);
    EXPECT_EQ(err.budget(), 1);
    const std::string what = err.what();
    EXPECT_NE(what.find("edge 0->1"), std::string::npos) << what;
    EXPECT_NE(what.find("round 0"), std::string::npos) << what;
    EXPECT_NE(what.find("budget 1"), std::string::npos) << what;
  }
  // The registry recorded the violation before the throw, in the phase
  // that was open.
  ASSERT_EQ(metrics.violations().size(), 1u);
  EXPECT_EQ(metrics.violations()[0].used, 2);
  EXPECT_EQ(metrics.violations()[0].budget, 1);
  EXPECT_EQ(metrics.violations()[0].round, 0);
  ASSERT_EQ(metrics.phases().size(), 1u);
  EXPECT_EQ(metrics.phases()[0].violations, 1);
  EXPECT_TRUE(metrics.phases()[0].closed);
}

class FatSendAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    Message m;
    m.words.assign(kMaxMessageWords + 2, 7);
    ctx.send(0, std::move(m));
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Trace, MessageSizeErrorCarriesWordCounts) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<FatSendAlgo>());
  algos.push_back(std::make_unique<FatSendAlgo>());
  Network net(g);
  try {
    net.run(algos);
    FAIL() << "expected CongestionError";
  } catch (const CongestionError& err) {
    EXPECT_EQ(err.kind(), CongestionError::Kind::kMessageSize);
    EXPECT_EQ(err.used(), kMaxMessageWords + 2);
    EXPECT_EQ(err.budget(), kMaxMessageWords);
    EXPECT_NE(std::string(err.what()).find("O(log n)"), std::string::npos);
  }
}

TEST(Trace, ViolationsExportedInJsonl) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  MetricsRegistry metrics;
  NetworkOptions opt;
  opt.metrics = &metrics;
  Network net(g, opt);
  EXPECT_THROW(net.run(algos), CongestionError);
  const std::string text = jsonl_of(metrics);
  EXPECT_NE(text.find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"bandwidth\""), std::string::npos);
}

// --- Sharded trace lanes (DESIGN.md §18) -------------------------------------

// A flight recorder that keeps a whole run: its dump is the complete event
// stream, in the order the sink received it.
FlightRecorder::Options keep_everything() {
  FlightRecorder::Options o;
  o.ring_capacity = 1 << 17;
  o.keep_rounds = 1 << 30;
  return o;
}

std::string dump_of(const FlightRecorder& recorder) {
  EXPECT_EQ(recorder.events_dropped(), 0) << "the ring lost events";
  std::ostringstream os;
  recorder.dump_jsonl(os);
  return os.str();
}

// What the thread-invariance suites compare: the event stream, and the
// registry's exports of the same run.
struct Observed {
  std::string flight;
  std::string jsonl;
  std::string chrome;
};

void expect_identical(const Observed& got, const Observed& want) {
  EXPECT_EQ(got.flight, want.flight);
  EXPECT_EQ(got.jsonl, want.jsonl);
  EXPECT_EQ(got.chrome, want.chrome);
}

// Per-shard trace lanes merged in fixed shard-then-trace order at the round
// barrier make the event stream — the flight dump, byte for byte —
// independent of the thread count, and the registry's exports with it.
// sparse_serial_threshold 0 forces real dispatched rounds (the 90-vertex
// graph would otherwise ride the serial fallback throughout).
TEST(ShardedTrace, ExportsAreByteIdenticalAcrossThreadCounts) {
  Rng rng(43);
  const Graph g = graph::random_maximal_planar(90, rng);
  const auto observe = [&](int threads) {
    FlightRecorder recorder(keep_everything());
    MetricsRegistry metrics;
    NetworkOptions net;
    net.trace = &recorder;
    net.metrics = &metrics;
    net.num_threads = threads;
    net.sparse_serial_threshold = 0;
    EXPECT_TRUE(run_gather(g, net).complete);
    return Observed{dump_of(recorder), jsonl_of(metrics), chrome_of(metrics)};
  };
  const Observed ref = observe(1);
  EXPECT_NE(ref.flight.find("\"type\":\"edge_load\""), std::string::npos);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(observe(threads), ref);
  }
}

// Full-duplex chatter for a fixed number of rounds: every port loaded every
// round, so fault injection and churn have in-flight traffic to act on.
class ChatterAlgo final : public VertexAlgorithm {
 public:
  explicit ChatterAlgo(int rounds) : rounds_(rounds) {}
  void round(Context& ctx) override {
    if (ctx.round() < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{ctx.round() * 131 + p}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }

 private:
  int rounds_;
  bool done_ = false;
};

std::vector<std::unique_ptr<VertexAlgorithm>> make_chatter(const Graph& g,
                                                           int rounds) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(rounds));
  }
  return algos;
}

// Byte-identity must survive the delivery paths that mutate traffic midway:
// duplicated and delayed messages (fault layer) and a mid-run edge delete
// with its purge replay. The fault schedule is seed-deterministic across
// thread counts, so the event stream must be too.
TEST(ShardedTrace, FaultedAndChurnedExportsAreThreadCountInvariant) {
  const Graph g = graph::grid(8, 8);
  const auto observe = [&](int threads) {
    FlightRecorder recorder(keep_everything());
    MetricsRegistry metrics;
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.metrics = &metrics;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    opt.faults.seed = 0xabcdULL;
    opt.faults.duplicate_probability = 0.1;
    opt.faults.delay_probability = 0.2;
    opt.faults.max_delay_rounds = 2;
    opt.faults.churn = {{ChurnKind::kEdgeDelete, 3, 0, 1},
                        {ChurnKind::kEdgeInsert, 6, 0, 1}};
    Network net(g, opt);
    auto algos = make_chatter(g, 10);
    net.run(algos);
    return Observed{dump_of(recorder), jsonl_of(metrics), chrome_of(metrics)};
  };
  const Observed ref = observe(1);
  EXPECT_NE(ref.flight.find("\"type\":\"churn\""), std::string::npos);
  EXPECT_NE(ref.jsonl.find("\"type\":\"churn\""), std::string::npos);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(observe(threads), ref);
  }
}

// A violated parallel run must report the same violation the serial run
// reports: the lowest shard's first violation — which is the globally
// first violating vertex, because shard 0 owns vertex 0 and scans its
// members in order. The whole event stream and export tie, not just the
// violation line.
TEST(ShardedTrace, ViolationReportMatchesSerialAcrossThreadCounts) {
  const Graph g = graph::grid(4, 4);
  const auto observe = [&](int threads) {
    FlightRecorder recorder(keep_everything());
    MetricsRegistry metrics;
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.metrics = &metrics;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    Network net(g, opt);
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<DoubleSendAlgo>());
    }
    EXPECT_THROW(net.run(algos), CongestionError);
    EXPECT_EQ(metrics.violations().size(), 1u);
    return Observed{dump_of(recorder), jsonl_of(metrics), chrome_of(metrics)};
  };
  const Observed ref = observe(1);
  EXPECT_NE(ref.flight.find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(ref.jsonl.find("\"type\":\"violation\""), std::string::npos);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(observe(threads), ref);
  }
}

// --- Sampling filters (TraceConfig) ------------------------------------------

std::vector<jsonmin::Value> events_of(const std::string& dump,
                                      const std::string& type) {
  std::vector<jsonmin::Value> out;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    jsonmin::Value ev = jsonmin::parse(line);
    if (ev.at("type").string == type) out.push_back(std::move(ev));
  }
  return out;
}

// Sampling is a pure function of (round, receiver, tag): the filtered
// stream is deterministic, thread-count-invariant, and exactly the subset
// the filters describe. It thins the event stream only: a registry on the
// same run sees every round.
TEST(TraceSampling, FiltersAreDeterministicAndThreadInvariant) {
  const Graph g = graph::grid(8, 8);
  const auto run_sampled = [&](int threads, MetricsRegistry* metrics,
                               RunStats* stats) {
    FlightRecorder recorder(keep_everything());
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.metrics = metrics;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    opt.trace_config.round_period = 2;
    opt.trace_config.vertex_stride = 2;
    Network net(g, opt);
    auto algos = make_chatter(g, 9);
    const RunStats s = net.run(algos);
    if (stats) *stats = s;
    return dump_of(recorder);
  };
  MetricsRegistry metrics;
  RunStats stats;
  const std::string ref = run_sampled(1, &metrics, &stats);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_sampled(threads, nullptr, nullptr), ref);
  }

  // Golden subset shape: only even rounds sampled, only even receivers.
  const auto rounds = events_of(ref, "round");
  ASSERT_GT(rounds.size(), 0u);
  for (const jsonmin::Value& r : rounds) {
    EXPECT_EQ(static_cast<std::int64_t>(r.at("round").number) % 2, 0)
        << "unsampled round leaked";
  }
  EXPECT_LT(static_cast<std::int64_t>(rounds.size()), stats.rounds);
  const auto edges = events_of(ref, "edge_load");
  ASSERT_GT(edges.size(), 0u);
  std::int64_t edge_messages = 0;
  for (const jsonmin::Value& e : edges) {
    EXPECT_EQ(static_cast<std::int64_t>(e.at("to").number) % 2, 0)
        << "unsampled receiver leaked";
    edge_messages += static_cast<std::int64_t>(e.at("messages").number);
  }
  // Sampled-out events are filtered, not rerouted: the stream carried
  // strictly less than the run's true traffic, and the registry all of it.
  EXPECT_LT(edge_messages, stats.messages_sent);
  EXPECT_EQ(metrics.totals().rounds, stats.rounds);
  EXPECT_EQ(metrics.totals().messages_sent, stats.messages_sent);
}

TEST(TraceSampling, TagFilterKeepsOnlyTheRequestedTag) {
  Rng rng(47);
  const Graph g = graph::random_maximal_planar(50, rng);
  FlightRecorder recorder(keep_everything());
  NetworkOptions net;
  net.trace = &recorder;
  net.trace_config.tag_filter = kTagWalkToken;
  ASSERT_TRUE(run_gather(g, net).complete);
  const std::string dump = dump_of(recorder);
  const auto messages = events_of(dump, "message");
  ASSERT_FALSE(messages.empty());
  for (const jsonmin::Value& m : messages) {
    EXPECT_EQ(static_cast<int>(m.at("id").number), kTagWalkToken);
  }
  // Edge loads are tag-agnostic and stay complete.
  EXPECT_FALSE(events_of(dump, "edge_load").empty());
}

// --- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorderTest, RingWrapRetainsNewestEvents) {
  FlightRecorder::Options o;
  o.ring_capacity = 8;
  o.keep_rounds = 1000;  // only the capacity bound in play
  FlightRecorder fr(o);
  // 3 events per round (2 messages + the round marker), rounds 0..4:
  // 15 events through a ring of 8.
  for (int r = 0; r < 5; ++r) {
    fr.on_message(r, kTagDefault, 1);
    fr.on_message(r, kTagDefault, 2);
    fr.on_round_end(r, 2, 3, 1);
  }
  EXPECT_EQ(fr.events_retained(), 8);
  EXPECT_EQ(fr.events_dropped(), 7);
  EXPECT_EQ(fr.last_round(), 4);
  std::ostringstream os;
  fr.dump_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos);
  // The oldest retained event is from round 2; rounds 0 and 1 were
  // overwritten by the wrap.
  EXPECT_EQ(text.find("\"type\":\"message\",\"round\":0"), std::string::npos);
  EXPECT_EQ(text.find("\"type\":\"message\",\"round\":1"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"message\",\"round\":4"), std::string::npos);
  EXPECT_NE(text.find("\"retained\":8"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":7"), std::string::npos);
}

TEST(FlightRecorderTest, KeepRoundsTrimsBehindTheNewestRound) {
  FlightRecorder::Options o;
  o.ring_capacity = 1 << 12;  // capacity never binds
  o.keep_rounds = 3;
  FlightRecorder fr(o);
  for (int r = 0; r < 10; ++r) {
    fr.on_message(r, kTagDefault, 1);
    fr.on_edge_load(r, 0, 1, 1, 1);
    fr.on_round_end(r, 1, 1, 1);
  }
  // Rounds 7, 8, 9 survive: 3 rounds x 3 events.
  EXPECT_EQ(fr.events_retained(), 9);
  EXPECT_EQ(fr.events_dropped(), 21);
  std::ostringstream os;
  fr.dump_jsonl(os);
  EXPECT_EQ(os.str().find("\"round\":6,"), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"round\",\"round\":7"),
            std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"round\",\"round\":9"),
            std::string::npos);
}

// The post-mortem contract: a CongestionError auto-dumps the ring — last K
// rounds plus the violation — before the exception reaches the caller.
TEST(FlightRecorderTest, AutoDumpsRingOnCongestionAbort) {
  const Graph g = graph::path(2);
  FlightRecorder fr;
  std::ostringstream dump;
  fr.set_auto_dump(&dump);
  NetworkOptions opt;
  opt.trace = &fr;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  EXPECT_THROW(net.run(algos), CongestionError);
  const std::string text = dump.str();
  EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"bandwidth\""), std::string::npos);
  EXPECT_NE(text.find("\"used\":2"), std::string::npos);
  EXPECT_NE(text.find("\"budget\":1"), std::string::npos);
}

TEST(FlightRecorderTest, RecordsRunLifecycleAndStaysWithinCapacity) {
  const Graph g = graph::grid(6, 6);
  FlightRecorder::Options o;
  o.ring_capacity = 64;
  o.keep_rounds = 2;
  FlightRecorder fr(o);
  NetworkOptions opt;
  opt.trace = &fr;
  Network net(g, opt);
  auto algos = make_chatter(g, 6);
  net.run(algos);
  EXPECT_LE(fr.events_retained(), 64);
  EXPECT_GT(fr.events_retained(), 0);
  EXPECT_GT(fr.events_dropped(), 0);
  std::ostringstream os;
  fr.dump_jsonl(os);
  EXPECT_NE(os.str().find("\"type\":\"run_end\""), std::string::npos);
}

TEST(Trace, SpanGuardToleratesNullSink) {
  // A PhaseScope on options without observers is a no-op.
  { PhaseScope nothing(NetworkOptions{}, "nothing"); }
  MetricsRegistry metrics;
  SpanRecorder spans;
  NetworkOptions net;
  net.trace = &spans;
  net.metrics = &metrics;
  {
    PhaseScope outer(net, "outer");
    { PhaseScope inner(net, "inner"); }
  }
  ASSERT_EQ(metrics.phases().size(), 2u);
  EXPECT_EQ(metrics.phases()[0].name, "outer");
  EXPECT_EQ(metrics.phases()[0].depth, 0);
  EXPECT_EQ(metrics.phases()[1].name, "inner");
  EXPECT_EQ(metrics.phases()[1].depth, 1);
  EXPECT_TRUE(metrics.phases()[0].closed);
  EXPECT_TRUE(metrics.phases()[1].closed);
  EXPECT_EQ(spans.spans, (std::vector<std::pair<std::string, int>>{
                             {"outer", 0}, {"inner", 1}}));
}

}  // namespace
}  // namespace ecd::congest
