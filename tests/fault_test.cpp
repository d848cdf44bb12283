// Deterministic fault injection (DESIGN.md §12).
//
// The load-bearing property is the determinism contract: a fault schedule is
// a pure function of (FaultPlan::seed, round, port, slot), so two runs with
// the same plan — at any thread count — deliver, drop, duplicate, and delay
// exactly the same messages. The first suite pins that down with
// field-by-field RunStats comparisons across num_threads in {1, 2, 4, 8};
// later suites cover crash-stop semantics and the reliable gather built on
// top of the faulty substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/congest/fault.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/trace.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace ecd {
namespace {

using congest::CrashEvent;
using congest::FaultPlan;
using congest::Message;
using congest::Network;
using congest::NetworkOptions;
using congest::RunStats;
using congest::VertexAlgorithm;
using graph::Graph;
using graph::VertexId;

// Every vertex sends its id to every neighbor each round for a fixed number
// of rounds, accumulating a digest of everything it receives. Termination is
// by round count, so the algorithm tolerates arbitrary message faults — the
// digest changes, the protocol does not wedge.
class ChatterAlgo : public congest::VertexAlgorithm {
 public:
  explicit ChatterAlgo(int rounds) : rounds_(rounds) {}

  void round(congest::Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        // Order-sensitive digest: delivery order differences change it.
        digest_ = digest_ * 0x100000001b3ULL ^
                  static_cast<std::uint64_t>(m.words[0]);
        ++received_;
      }
    }
    if (executed_ < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{ctx.id()}, congest::kTagDefault});
      }
    }
    ++executed_;
  }

  bool finished() const override { return executed_ > rounds_ + 2; }

  std::uint64_t digest() const { return digest_; }
  std::int64_t received() const { return received_; }

 private:
  int rounds_ = 0;
  int executed_ = 0;
  std::int64_t received_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

struct ChatterOutcome {
  RunStats stats;
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> received;
};

ChatterOutcome run_chatter(const Graph& g, const FaultPlan& plan,
                           int num_threads, int rounds = 12,
                           int bandwidth = 1, int sparse_threshold = 0,
                           bool enforce_bandwidth = true) {
  NetworkOptions opt;
  opt.bandwidth_tokens = bandwidth;
  // Off is the LOCAL model: the same mailboxes without a token budget.
  opt.enforce_bandwidth = enforce_bandwidth;
  opt.num_threads = num_threads;
  opt.faults = plan;
  // These fixtures probe the dispatching round loop: the chatter graphs sit
  // below the default sparse-serial threshold, so leave it off unless a
  // test asks for the fallback regime explicitly.
  opt.sparse_serial_threshold = sparse_threshold;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(rounds));
  }
  ChatterOutcome out;
  out.stats = net.run(algos);
  for (const auto& a : algos) {
    const auto& c = static_cast<const ChatterAlgo&>(*a);
    out.digests.push_back(c.digest());
    out.received.push_back(c.received());
  }
  return out;
}

void expect_same_outcome(const ChatterOutcome& a, const ChatterOutcome& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.words_sent, b.stats.words_sent);
  EXPECT_EQ(a.stats.max_edge_load, b.stats.max_edge_load);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.messages_duplicated, b.stats.messages_duplicated);
  EXPECT_EQ(a.stats.messages_delayed, b.stats.messages_delayed);
  EXPECT_EQ(a.stats.vertices_crashed, b.stats.vertices_crashed);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.received, b.received);
}

// FNV-1a over every vertex's digest and received count, in vertex order.
std::uint64_t outcome_hash(const ChatterOutcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t v = 0; v < o.digests.size(); ++v) {
    mix(o.digests[v]);
    mix(static_cast<std::uint64_t>(o.received[v]));
  }
  return h;
}

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.drop_probability = 0.08;
  plan.duplicate_probability = 0.05;
  plan.delay_probability = 0.07;
  plan.max_delay_rounds = 3;
  return plan;
}

TEST(FaultDeterminism, IdenticalAcrossThreadCounts) {
  const Graph g = []{ graph::Rng rng(7); return graph::random_maximal_planar(150, rng); }();
  const FaultPlan plan = mixed_plan();
  const ChatterOutcome serial = run_chatter(g, plan, /*num_threads=*/1);
  // Faults actually fired, or the fixture proves nothing.
  EXPECT_GT(serial.stats.messages_dropped, 0);
  EXPECT_GT(serial.stats.messages_duplicated, 0);
  EXPECT_GT(serial.stats.messages_delayed, 0);
  for (const int t : {2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    expect_same_outcome(serial, run_chatter(g, plan, t));
  }
}

TEST(FaultDeterminism, SparseFallbackIdenticalUnderFaultsAndCrashes) {
  // Crashes shrink the active set below the sparse-serial threshold while
  // delayed messages are still in transit, so the run crosses between the
  // dispatching loop and the serial fallback mid-flight — the fallback must
  // retire crash events and injected traffic exactly like the parallel
  // path, at every thread count.
  const Graph g = []{ graph::Rng rng(7); return graph::random_maximal_planar(150, rng); }();
  FaultPlan plan = mixed_plan();
  plan.crashes = {{3, 1}, {11, 3}, {42, 6}, {97, 9}};
  const ChatterOutcome reference =
      run_chatter(g, plan, /*num_threads=*/1);
  EXPECT_EQ(reference.stats.vertices_crashed, 4);
  // Pinned to the outcome the simulator's former dedicated one-shard loop
  // produced: the cross-thread comparisons below would miss a change that
  // hits every thread count alike.
  EXPECT_EQ(reference.stats.rounds, 15);
  EXPECT_EQ(reference.stats.messages_sent, 9825);
  EXPECT_EQ(reference.stats.words_sent, 9825);
  EXPECT_EQ(reference.stats.max_edge_load, 4);
  EXPECT_EQ(reference.stats.messages_dropped, 831);
  EXPECT_EQ(reference.stats.messages_duplicated, 505);
  EXPECT_EQ(reference.stats.messages_delayed, 756);
  EXPECT_EQ(outcome_hash(reference), 0xe88a787fc9975f63ULL);
  for (const int t : {1, 4}) {
    SCOPED_TRACE(t);
    // Enforcement off lifts the budget, so regions grow on demand instead
    // of holding a reserved worst case; the outcome must not change.
    expect_same_outcome(reference,
                        run_chatter(g, plan, t, 12, 1, /*sparse_threshold=*/0,
                                    /*enforce_bandwidth=*/false));
  }
  for (const int t : {1, 2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    // Default threshold (150 vertices < 256): every round falls back.
    expect_same_outcome(reference, run_chatter(g, plan, t, 12, 1,
                                               /*sparse_threshold=*/256));
    // Tiny threshold: only the crash-drained tail falls back.
    expect_same_outcome(reference, run_chatter(g, plan, t, 12, 1,
                                               /*sparse_threshold=*/8));
  }
}

TEST(FaultDeterminism, RerunOnSameNetworkIsIdentical) {
  const Graph g = graph::torus_grid(8, 8);
  NetworkOptions opt;
  opt.faults = mixed_plan();
  Network net(g, opt);
  RunStats first;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<ChatterAlgo>(10));
    }
    const RunStats stats = net.run(algos);
    if (rep == 0) {
      first = stats;
    } else {
      EXPECT_EQ(first.messages_sent, stats.messages_sent);
      EXPECT_EQ(first.messages_dropped, stats.messages_dropped);
      EXPECT_EQ(first.messages_duplicated, stats.messages_duplicated);
      EXPECT_EQ(first.messages_delayed, stats.messages_delayed);
    }
  }
}

TEST(FaultDeterminism, SeedChangesSchedule) {
  const Graph g = graph::torus_grid(8, 8);
  FaultPlan plan = mixed_plan();
  const ChatterOutcome a = run_chatter(g, plan, 1);
  plan.seed ^= 0x9e3779b97f4a7c15ULL;
  const ChatterOutcome b = run_chatter(g, plan, 1);
  EXPECT_NE(a.digests, b.digests);
}

TEST(FaultDeterminism, DisabledPlanMatchesFaultFreeRun) {
  const Graph g = graph::torus_grid(6, 6);
  const ChatterOutcome clean = run_chatter(g, FaultPlan{}, 1);
  EXPECT_EQ(clean.stats.messages_dropped, 0);
  EXPECT_EQ(clean.stats.messages_delayed, 0);
  // A run whose window excludes every round behaves identically to a clean
  // run even though the fault machinery is active.
  FaultPlan windowed = mixed_plan();
  windowed.first_faulty_round = 1'000'000;
  expect_same_outcome(clean, run_chatter(g, windowed, 1));
}

// --- Semantics of the individual fault kinds ------------------------------

// Two vertices on one edge; vertex 0 sends `count` messages with sequence
// numbers, vertex 1 records (round, payload) of everything it receives.
class SeqSenderAlgo : public congest::VertexAlgorithm {
 public:
  explicit SeqSenderAlgo(int count) : count_(count) {}
  void round(congest::Context& ctx) override {
    if (sent_ < count_) ctx.send(0, {{sent_++}, congest::kTagDefault});
    ++executed_;
  }
  bool finished() const override { return executed_ > count_ + 8; }

 private:
  int count_ = 0;
  std::int64_t sent_ = 0;
  int executed_ = 0;
};

class SeqReceiverAlgo : public congest::VertexAlgorithm {
 public:
  void round(congest::Context& ctx) override {
    for (const Message& m : ctx.inbox(0)) {
      log_.push_back({ctx.round(), m.words[0]});
    }
    ++executed_;
  }
  bool finished() const override { return executed_ > 0; }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& log() const {
    return log_;
  }

 private:
  int executed_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> log_;
};

std::vector<std::pair<std::int64_t, std::int64_t>> run_edge(
    const FaultPlan& plan, int count, RunStats* stats_out = nullptr) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SeqSenderAlgo>(count));
  algos.push_back(std::make_unique<SeqReceiverAlgo>());
  const RunStats stats = net.run(algos);
  if (stats_out) *stats_out = stats;
  return static_cast<const SeqReceiverAlgo&>(*algos[1]).log();
}

TEST(FaultSemantics, DropsVanishAndAreCounted) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 0.5;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_dropped, 0);
  EXPECT_EQ(static_cast<int>(log.size()) + stats.messages_dropped, 40);
  // Surviving messages arrive exactly when they would have, in order.
  for (const auto& [round, payload] : log) {
    EXPECT_EQ(round, payload + 1);
  }
}

TEST(FaultSemantics, DuplicatesArriveTwiceSameRound) {
  FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_probability = 0.5;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_duplicated, 0);
  EXPECT_EQ(static_cast<int>(log.size()),
            40 + static_cast<int>(stats.messages_duplicated));
  // Every payload arrives at least once at its natural round; a duplicated
  // payload appears exactly twice, both copies in the same round.
  for (std::int64_t s = 0; s < 40; ++s) {
    int copies = 0;
    for (const auto& [round, payload] : log) {
      if (payload == s) {
        EXPECT_EQ(round, s + 1);
        ++copies;
      }
    }
    EXPECT_GE(copies, 1);
    EXPECT_LE(copies, 2);
  }
}

TEST(FaultSemantics, DelayedMessagesArriveLateAndBounded) {
  FaultPlan plan;
  plan.seed = 23;
  plan.delay_probability = 0.5;
  plan.max_delay_rounds = 4;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_delayed, 0);
  // Nothing is lost: delay reorders but never drops.
  EXPECT_EQ(static_cast<int>(log.size()), 40);
  std::set<std::int64_t> seen;
  int late = 0;
  for (const auto& [round, payload] : log) {
    seen.insert(payload);
    EXPECT_GE(round, payload + 1);
    EXPECT_LE(round, payload + 1 + plan.max_delay_rounds);
    if (round != payload + 1) ++late;
  }
  EXPECT_EQ(static_cast<int>(seen.size()), 40);
  EXPECT_EQ(late, static_cast<int>(stats.messages_delayed));
}

TEST(FaultSemantics, DelayedMessageOutlivesSenderTermination) {
  // One message, forced delay of up to 6 rounds, sender finishes right
  // after sending: the run must keep going until the message lands.
  FaultPlan plan;
  plan.seed = 5;
  plan.delay_probability = 1.0;
  plan.max_delay_rounds = 6;
  const auto log = run_edge(plan, 1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].first, 2);  // at least one round late
}

TEST(FaultSemantics, BandwidthBudgetIgnoresInjectedPrefix) {
  // With delay_probability = 1 every message is held back one round and
  // redelivered while the sender keeps sending at full budget. If the
  // injected prefix counted against the sender's budget this would throw
  // CongestionError; it must not.
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_probability = 1.0;
  plan.max_delay_rounds = 1;
  RunStats stats;
  const auto log = run_edge(plan, 30, &stats);
  EXPECT_EQ(static_cast<int>(log.size()), 30);
  EXPECT_EQ(stats.messages_delayed, 30);
}

// --- Crash-stop -----------------------------------------------------------

TEST(FaultCrash, CrashedVertexStopsExecutingButTrafficSurvives) {
  // Path 0-1-2. Vertex 1 crashes at round 3: its messages already sent at
  // rounds <= 2 still arrive, it never sends again, and the run terminates
  // (a crashed vertex counts as finished).
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 3});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < 3; ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(10));
  }
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.vertices_crashed, 1);
  const auto& end0 = static_cast<const ChatterAlgo&>(*algos[0]);
  // Vertex 0 hears from vertex 1 in rounds 1..3 only (sends of rounds
  // 0..2), then silence.
  EXPECT_EQ(end0.received(), 3);
}

TEST(FaultCrash, CrashAtRoundZeroIsSilent) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 0});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < 3; ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(5));
  }
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.vertices_crashed, 1);
  EXPECT_EQ(static_cast<const ChatterAlgo&>(*algos[0]).received(), 0);
  EXPECT_EQ(static_cast<const ChatterAlgo&>(*algos[2]).received(), 0);
}

TEST(FaultCrash, CrashScheduleIdenticalAcrossThreadCounts) {
  const Graph g = []{ graph::Rng rng(3); return graph::random_maximal_planar(120, rng); }();
  FaultPlan plan = mixed_plan();
  plan.crashes = {{5, 2}, {17, 4}, {33, 0}, {80, 7}};
  const ChatterOutcome serial = run_chatter(g, plan, 1);
  EXPECT_EQ(serial.stats.vertices_crashed, 4);
  for (const int t : {2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    expect_same_outcome(serial, run_chatter(g, plan, t));
  }
}

// --- Reliable random-walk gather ------------------------------------------

congest::LeaderElectionResult clean_leaders(const Graph& g,
                                            const std::vector<int>& cl) {
  return congest::elect_cluster_leaders(g, cl);
}

std::vector<std::vector<congest::GatherToken>> one_token_per_vertex(
    const Graph& g) {
  std::vector<std::vector<congest::GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, v * 7 + 1}});
  }
  return tokens;
}

std::multiset<std::int64_t> delivered_origins(
    const congest::GatherResult& gather) {
  std::multiset<std::int64_t> out;
  for (const auto& cluster : gather.delivered) {
    for (const auto& payload : cluster) out.insert(payload[0]);
  }
  return out;
}

TEST(ReliableGather, MatchesFaultFreeDeliveryUnderOnePercentDrop) {
  const Graph g = graph::torus_grid(7, 7);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 99;
  opt.net.faults.drop_probability = 0.01;
  // Long epoch: the slowest of 49 lazy walks can legitimately need upwards
  // of 512 rounds on this torus, and the single-epoch assertion below is
  // the point of the test.
  opt.epoch_rounds = 4096;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_EQ(r.epochs, 1);
  EXPECT_EQ(r.reelections, 0);
  // Exactly one payload per origin — nothing lost, nothing double-counted.
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, HeavyDropForcesRetransmissionsButLosesNothing) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 4242;
  opt.net.faults.drop_probability = 0.30;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_GT(r.gather.stats.messages_dropped, 0);
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, DuplicatesAndDelaysNeverDoubleDeliver) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 31;
  opt.net.faults.duplicate_probability = 0.2;
  opt.net.faults.delay_probability = 0.2;
  opt.net.faults.max_delay_rounds = 3;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, LeaderCrashTriggersReelectionAndRedelivery) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  const VertexId old_leader = leaders.leader_of[0];
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.epoch_rounds = 256;
  // Kill the leader early enough that most tokens are still in flight.
  opt.net.faults.crashes.push_back(congest::CrashEvent{old_leader, 3});
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_GE(r.reelections, 1);
  EXPECT_GE(r.epochs, 2);
  // The replacement leader is alive and is not the crashed vertex.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == old_leader) continue;
    EXPECT_NE(r.final_leader_of[v], old_leader);
  }
  // Every live origin's token is delivered exactly once. The crashed
  // leader's own token was absorbed at round 0 (before its crash at round
  // 3), then invalidated with the leader; with its origin dead it is
  // orphaned — excluded from completeness and absent from `delivered`.
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != old_leader) expected.insert(v);
  }
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

// The gather's stats are the sum of every run it made, epochs and
// re-elections, as RunStats::operator+= adds them: the wall time the ledger
// reports for the gather included, and the churn events that fired.
TEST(ReliableGather, StatsAddUpEveryRun) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  const VertexId old_leader = leaders.leader_of[0];
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.epoch_rounds = 256;
  opt.net.faults.crashes.push_back(congest::CrashEvent{old_leader, 3});
  // One link away from the leader goes down.
  const auto far = std::find_if(
      g.edges().begin(), g.edges().end(), [&](const graph::Edge& e) {
        return e.u != old_leader && e.v != old_leader;
      });
  ASSERT_NE(far, g.edges().end());
  opt.net.faults.churn.push_back(
      {congest::ChurnKind::kEdgeDelete, 0, far->u, far->v});
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  ASSERT_GE(r.epochs, 2);
  ASSERT_GE(r.reelections, 1);
  EXPECT_GT(r.gather.stats.duration_ns, 0);
  EXPECT_GE(r.gather.stats.churn_events, 1);
  EXPECT_GE(r.gather.stats.vertices_crashed, 1);
}

// Under drops, tokens are re-seeded and a registration forgets the records
// of its failed epochs: every record's port still leads to the origin or to
// an earlier record of a smaller round, each list ends at its absorbing
// leader, and every word the return sends comes back.
TEST(ReliableGather, TracesStayRoutableForReverseDelivery) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 17;
  opt.net.faults.drop_probability = 0.05;
  opt.epoch_rounds = 24;
  opt.max_epochs = 64;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  ASSERT_TRUE(r.gather.complete);
  ASSERT_GT(r.epochs, 1);
  for (VertexId origin = 0; origin < g.num_vertices(); ++origin) {
    const std::vector<congest::FirstArrival>& list =
        r.gather.first_arrivals[origin];
    for (std::size_t j = 0; j < list.size(); ++j) {
      const VertexId from = g.neighbors(list[j].at)[list[j].port];
      bool earlier = from == origin;
      for (std::size_t k = 0; k < j; ++k) {
        earlier = earlier ||
                  (list[k].at == from && list[k].round < list[j].round);
      }
      EXPECT_TRUE(earlier) << "origin " << origin << " record " << j;
    }
    const VertexId last = list.empty() ? origin : list.back().at;
    EXPECT_EQ(r.final_leader_of[last], last) << "origin " << origin;
  }
  std::vector<std::int64_t> words(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) words[v] = 11 * v + 2;
  const auto back = congest::return_along_paths(g, r.gather, words);
  EXPECT_EQ(back.word, words);
  EXPECT_EQ(back.arrived, std::vector<char>(g.num_vertices(), 1));
}

// Counts the messages that cross edge {u, v} in either direction.
class EdgeWatch final : public congest::TraceSink {
 public:
  EdgeWatch(VertexId u, VertexId v) : u_(u), v_(v) {}
  void on_edge_load(std::int64_t, VertexId from, VertexId to, int messages,
                    std::int64_t) override {
    if ((from == u_ && to == v_) || (from == v_ && to == u_)) {
      crossings += messages;
    }
  }
  std::int64_t crossings = 0;

 private:
  VertexId u_, v_;
};

// The plan's churn runs on the gather's cumulative timeline, as its crashes
// do: an edge deleted at round 0 stays deleted through every epoch and the
// re-election, and the deletion and the leader's crash each count once.
TEST(ReliableGather, ChurnFiresOnceOnTheCumulativeTimeline) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  const VertexId old_leader = leaders.leader_of[0];
  const graph::Edge cut = g.edge(0);
  EdgeWatch watch(cut.u, cut.v);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.trace = &watch;
  opt.epoch_rounds = 256;
  opt.net.faults.crashes.push_back(congest::CrashEvent{old_leader, 3});
  opt.net.faults.churn.push_back(
      {congest::ChurnKind::kEdgeDelete, 0, cut.u, cut.v});
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  ASSERT_GE(r.epochs, 2);
  ASSERT_GE(r.reelections, 1);
  EXPECT_EQ(r.gather.stats.churn_events, 1);
  EXPECT_EQ(r.gather.stats.vertices_crashed, 1);
  EXPECT_EQ(watch.crossings, 0);
}

// A fresh hop never picks an edge churn has deleted: such a hop would be
// dropped on the dead port, never acked, and retransmitted into it until
// the epoch ends. So a gather with one edge deleted at round 0 sends nothing
// into it (no purges, no retransmissions) and needs no more epochs than the
// same gather on the whole torus.
TEST(ReliableGather, FreshHopsSkipEdgesChurnDeleted) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  const graph::Edge cut = g.edge(0);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  const auto whole = congest::reliable_walk_gather(
      g, cl, leaders.leader_of, one_token_per_vertex(g), opt);
  ASSERT_TRUE(whole.gather.complete);

  opt.net.faults.churn.push_back(
      {congest::ChurnKind::kEdgeDelete, 0, cut.u, cut.v});
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_EQ(r.gather.stats.churn_events, 1);
  EXPECT_EQ(r.gather.stats.messages_purged, 0);
  EXPECT_EQ(r.retransmissions, 0);
  EXPECT_LE(r.epochs, whole.epochs);
}

// The reliable gather indexes its per-vertex inputs by vertex: a list of
// another length is refused before any run, not read out of bounds.
TEST(ReliableGather, RejectsInputsThatAreNotOnePerVertex) {
  const Graph g = graph::path(6);
  const std::vector<int> cl(6, 0);
  const std::vector<VertexId> leader(6, 0);
  const auto tokens = one_token_per_vertex(g);
  const std::vector<std::vector<congest::GatherToken>> three(
      tokens.begin(), tokens.begin() + 3);
  EXPECT_THROW(congest::reliable_walk_gather(g, cl, leader, three),
               std::invalid_argument);
  EXPECT_THROW(
      congest::reliable_walk_gather(g, std::vector<int>(5, 0), leader, tokens),
      std::invalid_argument);
  EXPECT_THROW(congest::reliable_walk_gather(
                   g, cl, std::vector<VertexId>(7, 0), tokens),
               std::invalid_argument);
  EXPECT_TRUE(
      congest::reliable_walk_gather(g, cl, leader, tokens).gather.complete);
}

// --- End-to-end: the framework pipeline under faults ----------------------

TEST(FrameworkFaulted, PartitionAndGatherMatchesFaultFreeUnderOnePercentDrop) {
  graph::Rng rng(11);
  const Graph g = graph::random_maximal_planar(80, rng);
  core::FrameworkOptions clean;
  clean.seed = 5;
  const core::Partition base = core::partition_and_gather(g, 0.3, clean);
  ASSERT_TRUE(base.gather_complete);

  core::FrameworkOptions faulted = clean;
  faulted.faults.seed = 77;
  faulted.faults.drop_probability = 0.01;
  faulted.gather_epoch_rounds = 4096;
  core::Partition p = core::partition_and_gather(g, 0.3, faulted);
  ASSERT_TRUE(p.gather_complete);
  EXPECT_GE(p.gather_epochs, 1);
  EXPECT_EQ(p.gather_reelections, 0);

  // Same decomposition and leaders, so the leaders must reconstruct the
  // same cluster subgraphs from the (reliably) gathered tokens: the tokens
  // take other routes and arrive in another order, and the leader numbers
  // its cluster canonically, so the two subgraphs are equal field for field.
  ASSERT_EQ(p.clusters.size(), base.clusters.size());
  for (std::size_t c = 0; c < p.clusters.size(); ++c) {
    EXPECT_EQ(p.clusters[c].leader, base.clusters[c].leader);
    EXPECT_EQ(p.clusters[c].leader_local, base.clusters[c].leader_local);
    EXPECT_EQ(p.clusters[c].subgraph.to_parent,
              base.clusters[c].subgraph.to_parent);
    EXPECT_EQ(p.clusters[c].subgraph.edge_to_parent,
              base.clusters[c].subgraph.edge_to_parent);
    EXPECT_TRUE(p.clusters[c].subgraph == base.clusters[c].subgraph)
        << "cluster " << c;
    // None of the token payloads may be lost, duplicated, or altered.
    auto sorted = [](const core::Partition& part, std::size_t cc) {
      auto d = part.gather.delivered[cc];
      std::sort(d.begin(), d.end());
      return d;
    };
    EXPECT_EQ(sorted(p, c), sorted(base, c));
  }

  // Per-vertex answers ride the reversed first-arrival paths of the faulted
  // run back; return_results throws if any vertex's word is dropped or
  // mixed up.
  std::vector<std::int64_t> word(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) word[v] = v * 13 + 1;
  EXPECT_GT(core::return_results(p, word, "faulted return"), 0);
}

// --- Plan validation ------------------------------------------------------

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  const auto expect_rejected = [&](FaultPlan plan) {
    NetworkOptions opt;
    opt.faults = std::move(plan);
    EXPECT_THROW(Network(g, opt), std::invalid_argument);
  };
  FaultPlan negative;
  negative.drop_probability = -0.1;
  expect_rejected(negative);
  FaultPlan excessive;
  excessive.drop_probability = 0.6;
  excessive.delay_probability = 0.5;
  expect_rejected(excessive);
  FaultPlan bad_delay;
  bad_delay.delay_probability = 0.1;
  bad_delay.max_delay_rounds = 0;
  expect_rejected(bad_delay);
  FaultPlan bad_vertex;
  bad_vertex.crashes.push_back(CrashEvent{7, 0});
  expect_rejected(bad_vertex);
  FaultPlan bad_window;
  bad_window.drop_probability = 0.1;
  bad_window.first_faulty_round = 10;
  bad_window.last_faulty_round = 5;
  expect_rejected(bad_window);
}

}  // namespace
}  // namespace ecd
