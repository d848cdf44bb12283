#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/congest/metrics.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "tests/oracles/return_oracles.h"

namespace ecd::core {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// The decisive faithfulness check: the cluster subgraph reconstructed by
// the leader *from delivered tokens* must equal the induced subgraph
// G[V_i] layout for layout: the same local vertex numbering, the same edges
// in the same order with the same parent ids, and the same attributes. The
// leader numbers canonically, so no walk route can change any of them.
void check_reconstruction(const Graph& g, const Partition& p) {
  ASSERT_TRUE(p.gather_complete);
  for (const Cluster& cluster : p.clusters) {
    const graph::InducedSubgraph& got = cluster.subgraph;
    const auto reference = graph::induced_subgraph(g, cluster.members);
    ASSERT_EQ(got.to_parent, reference.to_parent);
    ASSERT_EQ(got.edge_to_parent, reference.edge_to_parent);
    const auto edges = got.graph.edges();
    const auto reference_edges = reference.graph.edges();
    ASSERT_EQ(std::vector<graph::Edge>(edges.begin(), edges.end()),
              std::vector<graph::Edge>(reference_edges.begin(),
                                       reference_edges.end()));
    ASSERT_EQ(got.graph.is_weighted(), reference.graph.is_weighted());
    ASSERT_EQ(got.graph.is_signed(), reference.graph.is_signed());
    for (graph::EdgeId e = 0; e < got.graph.num_edges(); ++e) {
      EXPECT_EQ(got.graph.weight(e), reference.graph.weight(e)) << "edge " << e;
      if (g.is_signed()) {
        EXPECT_EQ(got.graph.sign(e), reference.graph.sign(e)) << "edge " << e;
      }
    }
    EXPECT_TRUE(got == reference);
    // Leader is a member and its local id is correct.
    ASSERT_GE(cluster.leader_local, 0);
    EXPECT_EQ(cluster.subgraph.to_parent[cluster.leader_local],
              cluster.leader);
  }
}

TEST(Framework, GathersGridTopologyExactly) {
  Graph g = graph::grid(12, 12);
  const auto p = partition_and_gather(g, 0.3);
  check_reconstruction(g, p);
  EXPECT_LE(p.decomposition.inter_cluster_edges,
            0.3 * std::min(g.num_vertices(), g.num_edges()) + 1e-9);
}

TEST(Framework, GathersWeightedSignedPlanarTopology) {
  Rng rng(5);
  Graph base = graph::random_maximal_planar(120, rng);
  Graph g = base.with_weights(graph::random_weights(base, 1000, rng))
                .with_signs(graph::planted_signs(base, 12, 0.1, rng));
  const auto p = partition_and_gather(g, 0.25);
  check_reconstruction(g, p);
}

TEST(Framework, InterClusterBudgetAgainstMinVE) {
  // Theorem 2.6 promises <= eps * min(|V|, |E|): check on a triangulation
  // where |E| = 3n - 6 > |V| so the |V| bound binds.
  Rng rng(7);
  Graph g = graph::random_maximal_planar(200, rng);
  const double eps = 0.2;
  const auto p = partition_and_gather(g, eps);
  EXPECT_LE(p.decomposition.inter_cluster_edges,
            eps * std::min(g.num_vertices(), g.num_edges()) + 1e-9);
}

TEST(Framework, LeaderIsMaxClusterDegreeVertex) {
  Graph g = graph::grid(10, 10);
  const auto p = partition_and_gather(g, 0.3);
  for (const Cluster& cluster : p.clusters) {
    int max_deg = 0;
    for (int i = 0; i < cluster.subgraph.graph.num_vertices(); ++i) {
      max_deg = std::max(max_deg, cluster.subgraph.graph.degree(i));
    }
    EXPECT_EQ(cluster.subgraph.graph.degree(cluster.leader_local), max_deg);
  }
}

TEST(Framework, LedgerHasModeledAndMeasuredEntries) {
  Graph g = graph::grid(8, 8);
  auto p = partition_and_gather(g, 0.3);
  EXPECT_GT(p.ledger.modeled_total(), 0);
  EXPECT_GT(p.ledger.measured_total(), 0);
  const auto before = p.ledger.measured_total();
  std::vector<std::int64_t> words(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) words[v] = 3 * v + 1;
  const auto rounds = return_results(p, words, "result return");
  EXPECT_GT(rounds, 0);
  EXPECT_GT(p.ledger.measured_total(), before);
}

TEST(Framework, HighDegreeDiagnosticsLemma23) {
  // Lemma 2.3: deg(v*) = Ω(φ²)·|V_i| on H-minor-free inputs. The ratio
  // deg(v*) / (φ²·|V_i|) must be bounded away from 0 — in fact huge, since
  // φ is tiny.
  Rng rng(9);
  Graph g = graph::random_maximal_planar(300, rng);
  const auto p = partition_and_gather(g, 0.2);
  for (const auto& d : high_degree_diagnostics(p)) {
    EXPECT_GT(d.ratio, 1.0) << "cluster " << d.cluster;
  }
}

TEST(Framework, DeterministicModeReproducible) {
  Graph g = graph::grid(9, 9);
  FrameworkOptions opt;
  opt.deterministic = true;
  const auto p1 = partition_and_gather(g, 0.3, opt);
  const auto p2 = partition_and_gather(g, 0.3, opt);
  EXPECT_EQ(p1.decomposition.cluster_of, p2.decomposition.cluster_of);
  EXPECT_EQ(p1.leader_of, p2.leader_of);
}

TEST(Framework, WorksOnDisconnectedInput) {
  Rng rng(11);
  Graph g = graph::disjoint_union(
      {graph::grid(5, 5), graph::cycle(20), graph::random_tree(30, rng)});
  const auto p = partition_and_gather(g, 0.3);
  check_reconstruction(g, p);
}

TEST(Framework, SingletonVerticesAreTheirOwnLeaders) {
  // A graph with an isolated vertex.
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}});
  const auto p = partition_and_gather(g, 0.5);
  check_reconstruction(g, p);
  bool found_singleton = false;
  for (const Cluster& c : p.clusters) {
    if (c.members.size() == 1 && c.members[0] == 3) {
      found_singleton = true;
      EXPECT_EQ(c.leader, 3);
    }
  }
  EXPECT_TRUE(found_singleton);
}

TEST(Framework, DistributedDecompositionModeIsFullyMeasured) {
  Graph g = graph::grid(10, 10);
  FrameworkOptions opt;
  opt.decomposition_mode = DecompositionMode::kDistributed;
  const auto p = partition_and_gather(g, 0.3, opt);
  check_reconstruction(g, p);
  // No modeled entries remain: the whole pipeline executed on the simulator.
  EXPECT_EQ(p.ledger.modeled_total(), 0);
  EXPECT_GT(p.ledger.measured_total(), 0);
  bool has_measured_decomposition = false;
  for (const auto& e : p.ledger.entries()) {
    if (e.measured && e.label.starts_with("expander decomposition")) {
      has_measured_decomposition = true;
    }
  }
  EXPECT_TRUE(has_measured_decomposition);
}

// The distributed decomposition runs on the caller's NetworkOptions, like
// every other simulated phase: its runs shard at any thread count without
// changing the result, an attached registry and profiler see them, and the
// ledger records their full RunStats, not just rounds.
TEST(Framework, DistributedDecompositionRunsOnTheCallersNetworkOptions) {
  const Graph g = graph::grid(10, 10);
  FrameworkOptions opt;
  opt.decomposition_mode = DecompositionMode::kDistributed;
  const Partition serial = partition_and_gather(g, 0.3, opt);

  congest::MetricsRegistry metrics;
  congest::ExecutionProfiler profiler;
  opt.num_threads = 4;
  opt.sparse_serial_threshold = 0;  // shard every round
  opt.metrics = &metrics;
  opt.profiler = &profiler;
  const Partition sharded = partition_and_gather(g, 0.3, opt);
  EXPECT_EQ(sharded.decomposition.cluster_of, serial.decomposition.cluster_of);
  EXPECT_EQ(sharded.leader_of, serial.leader_of);

  const auto decomposition_stats = [](const Partition& p) {
    for (const auto& e : p.ledger.entries()) {
      if (e.label == "expander decomposition (distributed sweep)") {
        return e.stats;
      }
    }
    ADD_FAILURE() << "no distributed decomposition entry";
    return congest::RunStats{};
  };
  const congest::RunStats one = decomposition_stats(serial);
  const congest::RunStats four = decomposition_stats(sharded);
  EXPECT_GT(one.messages_sent, 0);
  EXPECT_GT(one.words_sent, 0);
  EXPECT_EQ(four.rounds, one.rounds);
  EXPECT_EQ(four.messages_sent, one.messages_sent);
  EXPECT_EQ(four.words_sent, one.words_sent);
  EXPECT_EQ(four.max_edge_load, one.max_edge_load);

  const auto phase = std::find_if(
      metrics.phases().begin(), metrics.phases().end(),
      [](const auto& ph) { return ph.name == "phase:decomposition"; });
  ASSERT_NE(phase, metrics.phases().end());
  EXPECT_GT(phase->runs, 0);
  EXPECT_EQ(phase->stats.rounds, four.rounds);
  EXPECT_EQ(phase->stats.messages_sent, four.messages_sent);
  // The profiler saw every run the registry saw, on four shards.
  EXPECT_EQ(profiler.summary().runs, metrics.runs_observed());
  EXPECT_EQ(profiler.summary().num_shards, 4);
}

// solve_clusters hands each leader its cluster once, in cluster order, and
// returns every vertex the word its leader computed for it, along the
// reversed first-arrival paths.
TEST(Framework, SolveClustersReturnsEachLeadersWords) {
  Graph g = graph::grid(16, 16);
  FrameworkOptions opt;
  opt.decomposition.phi = 0.08;  // several clusters
  Partition p = partition_and_gather(g, 0.35, opt);
  ASSERT_GT(p.clusters.size(), 1u);
  const auto entries = p.ledger.entries().size();
  std::vector<const Cluster*> seen;
  const auto words = solve_clusters(p, [&](const Cluster& cluster) {
    seen.push_back(&cluster);
    std::vector<std::int64_t> local(cluster.subgraph.to_parent.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = 3 * cluster.subgraph.to_parent[i] + cluster.leader;
    }
    return local;
  });
  ASSERT_EQ(seen.size(), p.clusters.size());
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_EQ(seen[c], &p.clusters[c]);
  }
  ASSERT_EQ(words.size(), static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(words[v], 3 * v + p.leader_of[v]) << "vertex " << v;
  }
  ASSERT_EQ(p.ledger.entries().size(), entries + 1);
  EXPECT_EQ(p.ledger.entries().back().label, "result return (reversed walks)");
  EXPECT_GT(p.ledger.entries().back().stats.rounds, 0);

  // A solve must answer for every vertex of its cluster.
  EXPECT_THROW(solve_clusters(p, [](const Cluster&) {
                 return std::vector<std::int64_t>{};
               }),
               std::logic_error);
  EXPECT_EQ(p.ledger.entries().size(), entries + 1);
}

// return_results takes exactly one word per vertex. `words` of another
// count must throw std::invalid_argument and leave the ledger as it was;
// the right count then still returns.
void expect_word_count_refused(int words) {
  const Graph g = graph::grid(6, 6);
  Partition p = partition_and_gather(g, 0.3);
  ASSERT_TRUE(p.gather_complete);
  const auto entries = p.ledger.entries().size();
  EXPECT_THROW(return_results(p, std::vector<std::int64_t>(words, 7),
                              "result return"),
               std::invalid_argument);
  EXPECT_EQ(p.ledger.entries().size(), entries);
  return_results(p, std::vector<std::int64_t>(g.num_vertices(), 7),
                 "result return");
  EXPECT_EQ(p.ledger.entries().size(), entries + 1);
}

// One word more would read past the registration-token table.
TEST(Framework, ReturnRefusesMoreWordsThanVertices) {
  expect_word_count_refused(37);
}

// One word fewer would answer, and check, only the first vertices.
TEST(Framework, ReturnRefusesFewerWordsThanVertices) {
  expect_word_count_refused(35);
  expect_word_count_refused(0);
}

// partition_and_gather keeps the first arrivals of each registration: the
// records trace a walk along edges back from the vertex's leader, rounds
// decreasing, to the vertex itself. The return steps back through them
// itself, so some lists hold more records than the path they trace.
TEST(Framework, RegistrationTokensKeepTheirFirstArrivals) {
  Rng rng(5);
  const Graph g = graph::random_maximal_planar(60, rng);
  const Partition p = partition_and_gather(g, 0.3);
  ASSERT_TRUE(p.gather_complete);
  int lists_longer_than_paths = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::vector<congest::FirstArrival>& list = p.gather.first_arrivals[v];
    const VertexId leader = p.leader_of[v];
    if (leader == v) {
      EXPECT_TRUE(list.empty());
      continue;
    }
    ASSERT_FALSE(list.empty());
    EXPECT_EQ(list.back().at, leader);
    const std::vector<congest::FirstArrival> path =
        congest::first_arrival_path(g, v, list);
    VertexId from = v;
    std::int32_t round = -1;
    for (const congest::FirstArrival& step : path) {
      EXPECT_EQ(g.neighbors(step.at)[step.port], from);
      EXPECT_GT(step.round, round);
      from = step.at;
      round = step.round;
    }
    lists_longer_than_paths += path.size() < list.size() ? 1 : 0;
  }
  EXPECT_GT(lists_longer_than_paths, 0);
}

// A registration token that never reached its leader has no path to reverse.
// The smoke configuration of `ecd_cli report` (16x16 grid, eps 0.2, 2% drop,
// four threads, seed 1) ends its reliable gather with some registration
// tokens undelivered: the return refuses, names how many, and leaves the
// ledger as it was.
TEST(Framework, ReturnRefusesUndeliveredRegistrations) {
  const Graph g = graph::grid(16, 16);
  FrameworkOptions opt;
  opt.num_threads = 4;
  opt.faults.drop_probability = 0.02;
  opt.faults.seed = 1;
  Partition p = partition_and_gather(g, 0.2, opt);
  ASSERT_FALSE(p.gather_complete);
  std::vector<bool> delivered(p.gather.token_begin.back(), false);
  for (const auto& ids : p.gather.delivered_ids) {
    for (const std::int64_t id : ids) delivered[id] = true;
  }
  int missing = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    missing += !delivered[p.gather.token_begin[v]];
  }
  ASSERT_GT(missing, 0);
  const auto entries = p.ledger.entries().size();
  const std::vector<std::int64_t> words(g.num_vertices(), 7);
  try {
    return_results(p, words, "result return");
    ADD_FAILURE() << "a return without " << missing << " registrations passed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(missing) + " of 256"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(p.ledger.entries().size(), entries);
}

// ---- The return runs on the simulator ------------------------------------------

// One word per vertex, 7v + 3, and the same words as one-word replies, for
// the mirror schedule.
struct Words {
  std::vector<std::int64_t> per_vertex;
  std::vector<std::vector<std::int64_t>> reply;
};
Words words_for(const Partition& p) {
  Words w;
  w.per_vertex.resize(p.leader_of.size());
  w.reply.resize(p.leader_of.size());
  for (std::size_t v = 0; v < w.per_vertex.size(); ++v) {
    w.per_vertex[v] = 7 * static_cast<std::int64_t>(v) + 3;
    w.reply[v] = {w.per_vertex[v]};
  }
  return w;
}

// The pipeline's return against the mirror schedule it replaced
// (congest::reverse_delivery, a test oracle), run on the same first-arrival
// records: the same words reach the same vertices with the same messages
// and words, in at most the oracle's rounds, and no edge carries more in a
// round than the gather's peak. The ledger records that run. Returns its
// stats.
congest::RunStats expect_return_within_the_mirror(const Graph& g,
                                                  Partition& p) {
  EXPECT_TRUE(p.gather_complete);
  const Words w = words_for(p);
  const auto oracle = congest::reverse_delivery(g, p.gather, w.reply);
  EXPECT_TRUE(oracle.load_ok);
  const auto back =
      congest::return_along_paths(g, p.gather, w.per_vertex, p.net);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(back.arrived[v]) << "vertex " << v;
    EXPECT_EQ(back.word[v], w.per_vertex[v]) << "vertex " << v;
    EXPECT_EQ(oracle.received[v], w.reply[v]) << "vertex " << v;
  }
  EXPECT_GT(back.stats.messages_sent, 0);
  EXPECT_EQ(back.stats.messages_sent, oracle.stats.messages_sent);
  EXPECT_EQ(back.stats.words_sent, oracle.stats.words_sent);
  EXPECT_LE(back.stats.rounds, oracle.stats.rounds);
  EXPECT_LE(back.stats.max_edge_load, p.gather.stats.max_edge_load);

  EXPECT_EQ(return_results(p, w.per_vertex, "result return"),
            back.stats.rounds);
  const congest::RunStats& entry = p.ledger.entries().back().stats;
  EXPECT_EQ(entry.rounds, back.stats.rounds);
  EXPECT_EQ(entry.messages_sent, back.stats.messages_sent);
  EXPECT_EQ(entry.words_sent, back.stats.words_sent);
  EXPECT_EQ(entry.max_edge_load, back.stats.max_edge_load);
  return back.stats;
}

// The shape of the mcm-grid benchmark workload: one slow-mixing cluster, so
// the gather runs thousands of rounds while the kept paths stay short.
TEST(Framework, ReturnOnAGridTakesATenthOfTheGathersRounds) {
  const Graph g = graph::grid(20, 20);
  Partition p = partition_and_gather(g, 0.2);
  const congest::RunStats back = expect_return_within_the_mirror(g, p);
  EXPECT_LT(10 * back.rounds, p.gather.stats.rounds)
      << back.rounds << " return rounds, " << p.gather.stats.rounds
      << " gather rounds";
}

// The shape of the mis-tri benchmark workload.
TEST(Framework, ReturnOnATriangulationStaysWithinTheMirror) {
  Rng rng(1);
  const Graph g = graph::random_maximal_planar(500, rng);
  Partition p = partition_and_gather(g, 0.2);
  expect_return_within_the_mirror(g, p);
}

// The return shards like every other phase: the same RunStats and words at
// one and four threads, with every round dispatched to the shards.
TEST(Framework, ReturnIsTheSameAtOneAndFourThreads) {
  const Graph g = graph::grid(20, 20);
  struct Run {
    congest::PathReturnResult back;
    std::int64_t ledger_rounds = 0;
  };
  const auto run = [&](int threads) {
    FrameworkOptions opt;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    Partition p = partition_and_gather(g, 0.2, opt);
    const Words w = words_for(p);
    Run out{congest::return_along_paths(g, p.gather, w.per_vertex, p.net), 0};
    out.ledger_rounds = return_results(p, w.per_vertex, "result return");
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);
  EXPECT_GT(one.back.stats.rounds, 0);
  EXPECT_EQ(four.back.stats.rounds, one.back.stats.rounds);
  EXPECT_EQ(four.back.stats.messages_sent, one.back.stats.messages_sent);
  EXPECT_EQ(four.back.stats.words_sent, one.back.stats.words_sent);
  EXPECT_EQ(four.back.stats.max_edge_load, one.back.stats.max_edge_load);
  EXPECT_EQ(four.back.word, one.back.word);
  EXPECT_EQ(four.back.arrived, one.back.arrived);
  EXPECT_EQ(four.ledger_rounds, one.ledger_rounds);
}

// Observers attached to the pipeline see the return as its last top-level
// phase, tagged return_reply, and the top-level phases then account for
// every measured round on the ledger.
TEST(Framework, ReturnIsTheLastObservedPhase) {
  const Graph g = graph::grid(12, 12);
  congest::MetricsRegistry metrics;
  FrameworkOptions opt;
  opt.metrics = &metrics;
  Partition p = partition_and_gather(g, 0.3, opt);
  return_results(p, words_for(p).per_vertex, "result return");
  const congest::RunStats& entry = p.ledger.entries().back().stats;
  ASSERT_GT(entry.rounds, 0);

  std::int64_t top_level_rounds = 0;
  for (const auto& ph : metrics.phases()) {
    if (ph.depth == 0) top_level_rounds += ph.stats.rounds;
  }
  EXPECT_EQ(top_level_rounds, p.ledger.measured_total());

  const auto& phases = metrics.phases();
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.back().name, "path_return");
  EXPECT_EQ(phases.back().depth, 1);
  const auto last = std::find_if(phases.rbegin(), phases.rend(),
                                 [](const auto& ph) { return ph.depth == 0; });
  ASSERT_NE(last, phases.rend());
  EXPECT_EQ(last->name, "phase:return");
  EXPECT_EQ(last->stats.rounds, entry.rounds);
  EXPECT_EQ(last->stats.messages_sent, entry.messages_sent);
  EXPECT_EQ(metrics.tag_messages(congest::kTagReturnReply),
            entry.messages_sent);
}

// A reply can only go back over an edge it came by: a registration's
// records forged to say that vertex 0's registration first reached 14, two
// rows down and two columns across, from 8, which it never reached (as a
// hop from 0 straight to 14 would have it), are refused before the ledger
// changes.
TEST(Framework, ReturnRefusesAHopBetweenNonNeighbours) {
  const Graph g = graph::grid(6, 6);
  Partition p = partition_and_gather(g, 0.3);
  ASSERT_TRUE(p.gather_complete);
  const auto entries = p.ledger.entries().size();
  ASSERT_FALSE(g.has_edge(0, 14));
  const auto nbrs = g.neighbors(14);
  const int to_8 =
      static_cast<int>(std::find(nbrs.begin(), nbrs.end(), 8) - nbrs.begin());
  p.gather.first_arrivals[0] = {{14, to_8, 0}};
  try {
    return_results(p, words_for(p).per_vertex, "result return");
    ADD_FAILURE() << "a hop from 0 to 14 was returned along";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("had not reached"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(p.ledger.entries().size(), entries);
}

// return_results reads only the gather's result, so a tree gather can take
// the walks' place: over the partition's clusters, leaders and BFS trees,
// with one registration a vertex, it returns every vertex its word in no
// more rounds than the climb took.
TEST(Framework, ReturnResultsTakesATreeGather) {
  const Graph g = graph::grid(16, 16);
  FrameworkOptions opt;
  opt.decomposition.phi = 0.08;  // several clusters
  Partition p = partition_and_gather(g, 0.35, opt);
  ASSERT_GT(p.clusters.size(), 1u);
  const auto& cluster_of = p.decomposition.cluster_of;
  const auto tree =
      congest::build_cluster_bfs_trees(g, cluster_of, p.leader_of, p.net);
  std::vector<std::vector<congest::GatherToken>> registrations(
      g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    registrations[v].push_back({v, {v, -1, 0, 0}});
  }
  p.gather = congest::tree_gather(g, cluster_of, p.leader_of, tree.parent,
                                  registrations, p.net);
  ASSERT_TRUE(p.gather.complete);
  const auto entries = p.ledger.entries().size();
  const Words w = words_for(p);
  const std::int64_t rounds =
      return_results(p, w.per_vertex, "result return (tree)");
  EXPECT_GT(rounds, 0);
  EXPECT_LE(rounds, p.gather.stats.rounds);
  ASSERT_EQ(p.ledger.entries().size(), entries + 1);
  EXPECT_EQ(p.ledger.entries().back().label, "result return (tree)");
  EXPECT_EQ(p.ledger.entries().back().stats.rounds, rounds);
}

// return_results routes over the partition's graph; a partition without one
// is refused.
TEST(Framework, ReturnNeedsThePartitionsGraph) {
  const Graph g = graph::grid(6, 6);
  Partition p = partition_and_gather(g, 0.3);
  EXPECT_EQ(p.graph, &g);
  p.graph = nullptr;
  const auto entries = p.ledger.entries().size();
  EXPECT_THROW(return_results(p, words_for(p).per_vertex, "result return"),
               std::logic_error);
  EXPECT_EQ(p.ledger.entries().size(), entries);
}

TEST(Framework, RejectsBadEps) {
  Graph g = graph::path(4);
  EXPECT_THROW(partition_and_gather(g, 0.0), std::invalid_argument);
  EXPECT_THROW(partition_and_gather(g, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace ecd::core
