// Topology churn in the fault layer (DESIGN.md §17).
//
// The churn schedule is data, not draws: FaultPlan::churn fixes every
// topology event at Network construction, events fire between rounds on
// the caller thread, and the port table is widened up front so surviving
// edges keep their ports across any event sequence. These suites pin the
// semantics on tiny hand-checked graphs (exact received counts, arrival
// rounds and purge totals), then the contracts that make churn usable at
// scale: bit-identical schedules across thread counts and the sparse
// fallback, warm-run equality with fresh construction (including after an
// aborted run), set_fault_seed revalidation, and the sweep engine's
// churn_permille axis reducing to a byte-identical aggregate at any
// worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/congest/fault.h"
#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/trace.h"
#include "src/core/sweep.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "tools/json_min.h"

namespace ecd {
namespace {

using congest::ChurnEvent;
using congest::ChurnKind;
using congest::CongestionError;
using congest::CrashEvent;
using congest::FaultPlan;
using congest::Message;
using congest::Network;
using congest::NetworkOptions;
using congest::RunStats;
using congest::VertexAlgorithm;
using graph::Graph;
using graph::VertexId;

Graph path3() { return Graph::from_edges(3, {{0, 1}, {1, 2}}); }

// Sends its id on every port (live or not) for `rounds` rounds, recording
// which rounds it executed, the first round each port delivered anything,
// an order-sensitive digest, and a per-round port_live probe.
class ProbeAlgo final : public VertexAlgorithm {
 public:
  explicit ProbeAlgo(int rounds) : rounds_(rounds) {}

  void round(congest::Context& ctx) override {
    executed_.push_back(ctx.round());
    if (first_arrival_.empty()) first_arrival_.assign(ctx.num_ports(), -1);
    if (live_at_.empty()) live_at_.assign(ctx.num_ports(), -1);
    for (int p = 0; p < ctx.num_ports(); ++p) {
      if (ctx.port_live(p) && live_at_[p] < 0) live_at_[p] = ctx.round();
      for (const Message& m : ctx.inbox(p)) {
        if (first_arrival_[p] < 0) first_arrival_[p] = ctx.round();
        digest_ = digest_ * 0x100000001b3ULL ^
                  static_cast<std::uint64_t>(m.words[0]);
        ++received_;
      }
    }
    if (ctx.round() < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{ctx.id()}});
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }

  const std::vector<std::int64_t>& executed() const { return executed_; }
  const std::vector<std::int64_t>& first_arrival() const {
    return first_arrival_;
  }
  const std::vector<std::int64_t>& live_at() const { return live_at_; }
  std::int64_t received() const { return received_; }
  std::uint64_t digest() const { return digest_; }

 private:
  int rounds_;
  std::vector<std::int64_t> executed_;
  std::vector<std::int64_t> first_arrival_;  // -1 = port never delivered
  std::vector<std::int64_t> live_at_;        // first round port_live() held
  std::int64_t received_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
  bool done_ = false;
};

struct ProbeOutcome {
  RunStats stats;
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> received;
};

std::vector<std::unique_ptr<VertexAlgorithm>> make_probes(const Graph& g,
                                                          int rounds) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ProbeAlgo>(rounds));
  }
  return algos;
}

ProbeOutcome collect(const RunStats& stats,
                     const std::vector<std::unique_ptr<VertexAlgorithm>>& a) {
  ProbeOutcome out;
  out.stats = stats;
  for (const auto& algo : a) {
    const auto& p = static_cast<const ProbeAlgo&>(*algo);
    out.digests.push_back(p.digest());
    out.received.push_back(p.received());
  }
  return out;
}

ProbeOutcome run_probes(const Graph& g, const FaultPlan& plan,
                        int num_threads, int rounds = 12,
                        int sparse_threshold = 0) {
  NetworkOptions opt;
  opt.num_threads = num_threads;
  opt.sparse_serial_threshold = sparse_threshold;
  opt.faults = plan;
  Network net(g, opt);
  auto algos = make_probes(g, rounds);
  const RunStats stats = net.run(algos);
  return collect(stats, algos);
}

void expect_same_outcome(const ProbeOutcome& a, const ProbeOutcome& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.words_sent, b.stats.words_sent);
  EXPECT_EQ(a.stats.max_edge_load, b.stats.max_edge_load);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.messages_duplicated, b.stats.messages_duplicated);
  EXPECT_EQ(a.stats.messages_delayed, b.stats.messages_delayed);
  EXPECT_EQ(a.stats.vertices_crashed, b.stats.vertices_crashed);
  EXPECT_EQ(a.stats.churn_events, b.stats.churn_events);
  EXPECT_EQ(a.stats.messages_purged, b.stats.messages_purged);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.received, b.received);
}

// --- Construction-time validation -------------------------------------------

TEST(ChurnConstruction, DeleteOfUnknownEdgeThrows) {
  const Graph g = path3();
  FaultPlan plan;
  NetworkOptions opt;
  // {0, 2} is neither a graph edge nor inserted by the plan.
  plan.churn = {{ChurnKind::kEdgeDelete, 1, 0, 2}};
  opt.faults = plan;
  EXPECT_THROW(Network(g, opt), std::invalid_argument);

  // The same delete is fine once the plan also inserts the edge.
  plan.churn = {{ChurnKind::kEdgeInsert, 1, 0, 2},
                {ChurnKind::kEdgeDelete, 3, 0, 2}};
  opt.faults = plan;
  EXPECT_NO_THROW(Network(g, opt));
}

TEST(ChurnConstruction, ValidationRejectsMalformedEvents) {
  FaultPlan plan;
  plan.churn = {{ChurnKind::kEdgeDelete, 1, 0, 7}};  // vertex out of range
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
  plan.churn = {{ChurnKind::kEdgeInsert, 1, 2, 2}};  // self loop
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
  plan.churn = {{ChurnKind::kNodeLeave, -1, 0, -1}};  // negative round
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
  plan.churn = {{ChurnKind::kNodeJoin, 0, -1, -1}};  // negative vertex
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
}

// --- Event semantics on hand-checked graphs ----------------------------------

TEST(ChurnSemantics, EdgeDeleteStopsTrafficAndCountsPurgedSends) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  FaultPlan plan;
  plan.churn = {{ChurnKind::kEdgeDelete, 3, 0, 1}};
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/6);
  const RunStats stats = net.run(algos);

  // Sends fire in rounds 0..5 and arrive one round later; the delete fires
  // before round 3's compute, so the round-2 sends (already in round 3's
  // inbox) still land and everything after is discarded at send().
  for (const auto& a : algos) {
    EXPECT_EQ(static_cast<const ProbeAlgo&>(*a).received(), 3);
  }
  EXPECT_EQ(stats.churn_events, 1);
  EXPECT_EQ(stats.messages_purged, 2 * 3);  // both endpoints, rounds 3..5
}

TEST(ChurnSemantics, InsertedEdgeCarriesTrafficFromItsRound) {
  const Graph g = path3();  // 0-1-2; {0, 2} does not exist yet
  FaultPlan plan;
  plan.churn = {{ChurnKind::kEdgeInsert, 4, 0, 2}};
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/8);
  const RunStats stats = net.run(algos);

  // Port numbering: initial CSR ports first, insert-only ports after —
  // vertex 0's port 0 is still neighbor 1, the plan's edge rides port 1.
  const auto& v0 = static_cast<const ProbeAlgo&>(*algos[0]);
  const auto& v2 = static_cast<const ProbeAlgo&>(*algos[2]);
  ASSERT_EQ(v0.first_arrival().size(), 2u);
  ASSERT_EQ(v2.first_arrival().size(), 2u);

  // The initial edge is live from round 0; the inserted port goes live at
  // round 4, and its first message (sent in round 4) arrives in round 5.
  EXPECT_EQ(v0.live_at()[0], 0);
  EXPECT_EQ(v0.live_at()[1], 4);
  EXPECT_EQ(v0.first_arrival()[0], 1);
  EXPECT_EQ(v0.first_arrival()[1], 5);
  EXPECT_EQ(v2.first_arrival()[1], 5);

  EXPECT_EQ(stats.churn_events, 1);
  // Rounds 0..3 sends on the not-yet-live port, from both endpoints.
  EXPECT_EQ(stats.messages_purged, 2 * 4);
}

TEST(ChurnSemantics, NodeLeaveStopsExecutionAndJoinResumesWithoutEdges) {
  const Graph g = path3();
  FaultPlan plan;
  plan.churn = {{ChurnKind::kNodeLeave, 2, 1, -1},
                {ChurnKind::kNodeJoin, 5, 1, -1}};
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/8);
  const RunStats stats = net.run(algos);

  // The leave fires before round 2's compute and the join before round
  // 5's, so vertex 1 executes rounds {0, 1, 5, 6, 7, 8} exactly.
  const auto& v1 = static_cast<const ProbeAlgo&>(*algos[1]);
  EXPECT_EQ(v1.executed(),
            (std::vector<std::int64_t>{0, 1, 5, 6, 7, 8}));
  // kNodeJoin restores the vertex, not its links: nothing vertex 1 sends
  // after rejoining arrives anywhere, so 0 and 2 only ever see the sends
  // of rounds 0 and 1.
  EXPECT_EQ(static_cast<const ProbeAlgo&>(*algos[0]).received(), 2);
  EXPECT_EQ(static_cast<const ProbeAlgo&>(*algos[2]).received(), 2);
  EXPECT_EQ(stats.churn_events, 2);
  EXPECT_GT(stats.messages_purged, 0);
}

TEST(ChurnFaults, DelayedMessagesOnADeadPortArePurgedAndTheRunTerminates) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.delay_probability = 1.0;  // every message is held back 1..3 rounds
  plan.max_delay_rounds = 3;
  plan.churn = {{ChurnKind::kEdgeDelete, 2, 0, 1}};
  NetworkOptions opt;
  opt.faults = plan;
  opt.max_rounds = 100;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/6);
  // The load-bearing assertion is termination: a delayed message parked on
  // the deleted port must be purged, not waited for.
  const RunStats stats = net.run(algos);
  EXPECT_GT(stats.messages_delayed, 0);
  EXPECT_GT(stats.messages_purged, 0);
  EXPECT_LT(stats.rounds, 20);
}

// --- Determinism across execution shapes -------------------------------------

FaultPlan stress_plan(const Graph& g) {
  FaultPlan plan;
  plan.seed = 0xfeedULL;
  plan.drop_probability = 0.05;
  plan.duplicate_probability = 0.04;
  plan.delay_probability = 0.06;
  plan.max_delay_rounds = 3;
  plan.crashes = {{7, 4}, {31, 6}};
  plan.churn = core::make_churn_plan(g, /*topo_seed=*/11,
                                     /*churn_permille=*/120);
  return plan;
}

TEST(ChurnDeterminism, IdenticalAcrossThreadCountsAndSparseFallback) {
  const Graph g = [] {
    graph::Rng rng(7);
    return graph::random_maximal_planar(150, rng);
  }();
  const FaultPlan plan = stress_plan(g);
  const ProbeOutcome serial = run_probes(g, plan, /*num_threads=*/1);
  // The schedule actually fired, or the fixture proves nothing.
  EXPECT_GT(serial.stats.churn_events, 0);
  EXPECT_GT(serial.stats.messages_purged, 0);
  for (const int t : {2, 4, 8}) {
    SCOPED_TRACE(t);
    expect_same_outcome(serial, run_probes(g, plan, t));
  }
  // Sparse serial fallback: a threshold above n forces every round onto
  // the calling thread regardless of num_threads.
  for (const int t : {1, 4}) {
    SCOPED_TRACE(t);
    expect_same_outcome(
        serial, run_probes(g, plan, t, /*rounds=*/12,
                           /*sparse_threshold=*/1'000'000));
  }
}

// --- Reuse: warm runs, aborted runs, reseeding -------------------------------

TEST(ChurnReuse, WarmRunsBitIdenticalToColdUnderChurnAndCrashes) {
  const Graph g = [] {
    graph::Rng rng(3);
    return graph::random_maximal_planar(100, rng);
  }();
  const FaultPlan plan = stress_plan(g);
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);

  auto first = make_probes(g, 12);
  const ProbeOutcome cold = collect(net.run(first), first);
  // Second run on the same Network: reset_for_run must rewind the churn
  // cursor, port liveness and vertex presence along with the crash
  // schedule — any carry-over shows up in the digests.
  auto second = make_probes(g, 12);
  const ProbeOutcome warm = collect(net.run(second), second);
  expect_same_outcome(cold, warm);
  expect_same_outcome(cold, run_probes(g, plan, /*num_threads=*/1));
}

// Behaves until `bad_round`, then oversends on port 0 to trip the per-edge
// bandwidth budget mid-run.
class OversendAlgo final : public VertexAlgorithm {
 public:
  OversendAlgo(bool armed, std::int64_t bad_round)
      : armed_(armed), bad_round_(bad_round) {}
  void round(congest::Context& ctx) override {
    if (armed_ && ctx.round() == bad_round_) {
      for (int i = 0; i < 8; ++i) ctx.send(0, {{i}});
    }
  }
  bool finished() const override { return false; }

 private:
  bool armed_;
  std::int64_t bad_round_;
};

TEST(ChurnReuse, AbortedRunThenChurnRunMatchesFreshConstruction) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  FaultPlan plan;
  plan.churn = {{ChurnKind::kEdgeDelete, 1, 1, 2},
                {ChurnKind::kNodeLeave, 2, 3, -1},
                {ChurnKind::kEdgeInsert, 4, 1, 2},
                {ChurnKind::kNodeJoin, 5, 3, -1}};
  NetworkOptions opt;
  opt.faults = plan;
  opt.bandwidth_tokens = 2;
  Network net(g, opt);

  // Abort at round 3: two churn events have already fired, the port table
  // and presence flags are mid-schedule, and the mailboxes hold round-3
  // state.
  std::vector<std::unique_ptr<VertexAlgorithm>> bad;
  for (VertexId v = 0; v < 4; ++v) {
    bad.push_back(std::make_unique<OversendAlgo>(v == 0, 3));
  }
  EXPECT_THROW(net.run(bad), CongestionError);

  // The next run on the same Network must match a fresh one exactly.
  auto rerun = make_probes(g, 10);
  const ProbeOutcome recovered = collect(net.run(rerun), rerun);
  expect_same_outcome(recovered, run_probes(g, plan, /*num_threads=*/1,
                                            /*rounds=*/10));
  EXPECT_EQ(recovered.stats.churn_events, 4);
}

TEST(SetFaultSeed, ThrowsWithoutAnActiveFaultPlan) {
  const Graph g = path3();
  Network net(g, {});
  EXPECT_THROW(net.set_fault_seed(7), std::invalid_argument);
}

TEST(SetFaultSeed, ReseededRunEqualsFreshConstructionWithThatSeed) {
  const Graph g = [] {
    graph::Rng rng(5);
    return graph::random_maximal_planar(80, rng);
  }();
  FaultPlan plan = stress_plan(g);
  plan.seed = 1;
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  auto warmup = make_probes(g, 12);
  net.run(warmup);

  net.set_fault_seed(0xabcdULL);
  auto reseeded = make_probes(g, 12);
  const ProbeOutcome warm = collect(net.run(reseeded), reseeded);
  FaultPlan fresh_plan = plan;
  fresh_plan.seed = 0xabcdULL;
  expect_same_outcome(warm, run_probes(g, fresh_plan, /*num_threads=*/1));
}

// --- The sweep engine's churn axis -------------------------------------------

TEST(ChurnSweep, MakeChurnPlanIsPureSortedAndValid) {
  const Graph g = graph::grid(8, 8);
  const auto plan = core::make_churn_plan(g, 42, 100);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan, core::make_churn_plan(g, 42, 100));
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].round, plan[i].round);
  }
  FaultPlan fp;
  fp.churn = plan;
  EXPECT_NO_THROW(fp.validate(g.num_vertices()));
  // Rate scales the schedule; zero disables it.
  EXPECT_GT(core::make_churn_plan(g, 42, 300).size(), plan.size());
  EXPECT_TRUE(core::make_churn_plan(g, 42, 0).empty());
  // A different topo_seed is a different schedule.
  EXPECT_NE(plan, core::make_churn_plan(g, 43, 100));
}

core::SweepSpec churn_sweep_spec() {
  core::SweepSpec spec;
  spec.families = {"grid"};
  spec.sizes = {49};
  spec.topo_seeds = {1};
  spec.run_seeds = {1, 2, 3};
  spec.algorithms = {"flood", "mis"};
  spec.threads = {1};
  spec.fault_permille = {0, 20};
  spec.churn_permille = {0, 60};
  return spec;
}

TEST(ChurnSweep, AggregateByteIdenticalAcrossWorkersAndWarmRepeats) {
  const core::SweepSpec spec = churn_sweep_spec();
  EXPECT_EQ(spec.num_cells(), 24);

  core::SweepEngine one;
  core::SweepOptions opt;
  opt.workers = 1;
  const std::string agg1 = one.run(spec, opt).aggregate_json();
  // Warm repeat on the same engine: every Network is cached, the
  // aggregate must not move.
  const auto& warm = one.run(spec, opt);
  EXPECT_EQ(warm.networks_built, 0);
  EXPECT_EQ(warm.aggregate_json(), agg1);

  core::SweepEngine four;
  opt.workers = 4;
  EXPECT_EQ(four.run(spec, opt).aggregate_json(), agg1);

  // Cold mode (fresh construction per run) is the reference the caches
  // must reproduce.
  core::SweepEngine cold;
  opt.workers = 1;
  opt.reuse = false;
  EXPECT_EQ(cold.run(spec, opt).aggregate_json(), agg1);

  // The nonzero churn cells actually churned, and the totals surface it.
  const jsonmin::Value doc = jsonmin::parse(agg1);
  EXPECT_GT(doc.at("totals").at("churn_events").number, 0.0);
  EXPECT_GE(doc.at("totals").at("purged").number, 0.0);
}

// --- Churn events through the trace layer (DESIGN.md §18) --------------------

// Raw recorder: keeps every churn callback verbatim so the tests below can
// pin the exact emission order and payloads.
class ChurnEventRecorder : public congest::TraceSink {
 public:
  struct Event {
    std::int64_t round;
    ChurnKind kind;
    graph::VertexId u, v;
  };
  struct Purge {
    std::int64_t round;
    graph::VertexId from, to;
    int count;
  };

  void on_churn_event(std::int64_t round, ChurnKind kind, graph::VertexId u,
                      graph::VertexId v) override {
    events.push_back({round, kind, u, v});
  }
  void on_churn(std::int64_t round, int count) override {
    lumps.push_back({round, count});
  }
  void on_churn_purge(std::int64_t round, graph::VertexId from,
                      graph::VertexId to, int count) override {
    purges.push_back({round, from, to, count});
    purged_total += count;
  }

  std::vector<Event> events;
  std::vector<std::pair<std::int64_t, int>> lumps;
  std::vector<Purge> purges;
  std::int64_t purged_total = 0;
};

// The schedule the pinned-emission tests run: leave(1)@2, insert(0,2)@4,
// join(1)@5 on the 3-path — one event of each surviving kind, each on its
// own round.
FaultPlan traced_churn_plan() {
  FaultPlan plan;
  plan.churn = {{ChurnKind::kNodeLeave, 2, 1, 0},
                {ChurnKind::kEdgeInsert, 4, 0, 2},
                {ChurnKind::kNodeJoin, 5, 1, 0}};
  return plan;
}

TEST(ChurnTrace, EventsEmitPerEventInScheduleOrderWithEndpoints) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  NetworkOptions opt;
  opt.faults = traced_churn_plan();
  ChurnEventRecorder rec;
  opt.trace = &rec;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/8);
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.churn_events, 3);

  // One on_churn_event per scheduled event, in schedule order. Node events
  // carry u with v == kInvalidVertex; the edge insert carries both
  // endpoints as (port owner, port peer) of the new edge's first port.
  ASSERT_EQ(rec.events.size(), 3u);
  EXPECT_EQ(rec.events[0].round, 2);
  EXPECT_EQ(rec.events[0].kind, ChurnKind::kNodeLeave);
  EXPECT_EQ(rec.events[0].u, 1);
  EXPECT_EQ(rec.events[0].v, graph::kInvalidVertex);
  EXPECT_EQ(rec.events[1].round, 4);
  EXPECT_EQ(rec.events[1].kind, ChurnKind::kEdgeInsert);
  EXPECT_EQ(rec.events[1].u, 0);
  EXPECT_EQ(rec.events[1].v, 2);
  EXPECT_EQ(rec.events[2].round, 5);
  EXPECT_EQ(rec.events[2].kind, ChurnKind::kNodeJoin);
  EXPECT_EQ(rec.events[2].u, 1);
  EXPECT_EQ(rec.events[2].v, graph::kInvalidVertex);

  // Each fired round also got its lump summary, after the per-event calls.
  EXPECT_EQ(rec.lumps, (std::vector<std::pair<std::int64_t, int>>{
                           {2, 1}, {4, 1}, {5, 1}}));
  // Nothing on this schedule dies under pending traffic: post-churn sends
  // to dead ports are dropped at send() and are *not* per-edge purges.
  EXPECT_TRUE(rec.purges.empty());
}

TEST(ChurnTrace, RegistryPinsChurnTotalsAndExportsTheChurnLine) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  NetworkOptions opt;
  opt.faults = traced_churn_plan();
  congest::MetricsRegistry metrics;
  opt.metrics = &metrics;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/8);
  const RunStats stats = net.run(algos);

  // The registry's churn totals are the run's: three events, and every
  // message churn discarded. Here all 26 are dead-port sends: on the
  // (0,2) edge before its insert (2 x 4 rounds), and on vertex 1's edges
  // after it left, from 0 and 2 (2 x 6) and from 1 once it rejoined (2 x 3).
  EXPECT_EQ(metrics.totals().churn_events, 3);
  EXPECT_EQ(stats.messages_purged, 26);
  EXPECT_EQ(metrics.totals().messages_purged, stats.messages_purged);

  std::ostringstream os;
  congest::export_jsonl(metrics, os);
  EXPECT_NE(os.str().find(
                "{\"type\":\"churn\",\"churn_events\":3,\"purged\":26}"),
            std::string::npos)
      << os.str();
}

TEST(ChurnTrace, DeliveryPurgesAreTracedPerEdgeButSendDropsAreNot) {
  // The one schedule that produces true delivery-time purges: every
  // message is delayed 1..3 rounds, and the only edge dies at round 2 with
  // traffic parked on it (the ChurnFaults termination scenario, traced).
  const Graph g = Graph::from_edges(2, {{0, 1}});
  FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.delay_probability = 1.0;
  plan.max_delay_rounds = 3;
  plan.churn = {{ChurnKind::kEdgeDelete, 2, 0, 1}};
  NetworkOptions opt;
  opt.faults = plan;
  opt.max_rounds = 100;
  ChurnEventRecorder rec;
  opt.trace = &rec;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/6);
  const RunStats stats = net.run(algos);

  // The parked messages were purged as per-edge trace events...
  ASSERT_FALSE(rec.purges.empty());
  for (const auto& p : rec.purges) {
    EXPECT_GE(p.round, 2);
    EXPECT_TRUE((p.from == 0 && p.to == 1) || (p.from == 1 && p.to == 0));
    EXPECT_GT(p.count, 0);
  }
  // ...and RunStats' purge total covers them. The two need not be equal:
  // the probes keep sending on the dead port after the delete, and those
  // dead-port send drops count in RunStats but are not per-edge purges.
  EXPECT_GT(rec.purged_total, 0);
  EXPECT_LE(rec.purged_total, stats.messages_purged);
}

TEST(ChurnTrace, SendDropsCountInRunStatsButNotAsPurgeEvents) {
  // The inverse pin: the EdgeDeleteStopsTraffic scenario purges 6 messages
  // in RunStats, every one a dead-port send drop — the trace layer must
  // report zero per-edge purge events for it.
  const Graph g = Graph::from_edges(2, {{0, 1}});
  FaultPlan plan;
  plan.churn = {{ChurnKind::kEdgeDelete, 3, 0, 1}};
  NetworkOptions opt;
  opt.faults = plan;
  ChurnEventRecorder rec;
  opt.trace = &rec;
  Network net(g, opt);
  auto algos = make_probes(g, /*rounds=*/6);
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.messages_purged, 6);
  ASSERT_EQ(rec.events.size(), 1u);
  EXPECT_EQ(rec.events[0].kind, ChurnKind::kEdgeDelete);
  EXPECT_TRUE(rec.purges.empty());
  EXPECT_EQ(rec.purged_total, 0);
}

}  // namespace
}  // namespace ecd
