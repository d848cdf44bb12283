#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>

#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/round_ledger.h"
#include "src/expander/decomposition.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "tests/oracles/return_oracles.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// A toy algorithm that sends its id once and stops.
class PingAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() == 0) {
      for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{ctx.id()}});
      return;
    }
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        received_.push_back(m.words[0]);
        EXPECT_EQ(m.words[0], ctx.neighbor(p));  // delivery on the right port
      }
    }
    done_ = true;
  }
  bool finished() const override { return done_; }
  const std::vector<std::int64_t>& received() const { return received_; }

 private:
  bool done_ = false;
  std::vector<std::int64_t> received_;
};

TEST(Network, DeliversMessagesOnCorrectPorts) {
  Graph g = graph::cycle(6);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<PingAlgo*> typed;
  for (int v = 0; v < 6; ++v) {
    auto a = std::make_unique<PingAlgo>();
    typed.push_back(a.get());
    algos.push_back(std::move(a));
  }
  Network net(g);
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.messages_sent, 12);
  for (auto* a : typed) EXPECT_EQ(a->received().size(), 2u);
}

class SpammerAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    // Two messages on the same port in one round: must violate bandwidth.
    ctx.send(0, {{1}});
    ctx.send(0, {{2}});
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Network, EnforcesPerEdgeBandwidth) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SpammerAlgo>());
  algos.push_back(std::make_unique<SpammerAlgo>());
  Network net(g);
  EXPECT_THROW(net.run(algos), CongestionError);
}

TEST(Network, LocalModeAllowsSpam) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SpammerAlgo>());
  algos.push_back(std::make_unique<SpammerAlgo>());
  NetworkOptions opt;
  opt.enforce_bandwidth = false;
  Network net(g, opt);
  EXPECT_NO_THROW(net.run(algos));
}

class FatMessageAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    Message m;
    m.words.assign(kMaxMessageWords + 1, 7);
    ctx.send(0, std::move(m));
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Network, EnforcesMessageSize) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<FatMessageAlgo>());
  algos.push_back(std::make_unique<FatMessageAlgo>());
  Network net(g);
  EXPECT_THROW(net.run(algos), CongestionError);
}

std::vector<int> single_cluster(const Graph& g) {
  return std::vector<int>(g.num_vertices(), 0);
}

TEST(LeaderElection, PicksMaxDegreeMaxIdVertex) {
  Graph g = graph::star(5);  // center 0 has degree 5
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.leader_of[v], 0);
  }
}

TEST(LeaderElection, TieBreaksById) {
  Graph g = graph::cycle(7);  // all degree 2: highest id wins
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.leader_of[v], 6);
  }
}

TEST(LeaderElection, RespectsClusterBoundaries) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto r = elect_cluster_leaders(g, cluster);
  // Cluster {0,1,2}: vertex 1 has intra-degree 2 -> leader 1.
  EXPECT_EQ(r.leader_of[0], 1);
  EXPECT_EQ(r.leader_of[1], 1);
  EXPECT_EQ(r.leader_of[2], 1);
  // Cluster {3,4,5}: vertex 4 has intra-degree 2 -> leader 4.
  EXPECT_EQ(r.leader_of[5], 4);
}

TEST(LeaderElection, RoundsTrackClusterDiameter) {
  Graph g = graph::path(40);
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  // Information must traverse the path: rounds >= diameter.
  EXPECT_GE(r.stats.rounds, 39);
  EXPECT_LE(r.stats.rounds, 39 + 3);
}

TEST(BfsTree, DepthsMatchBfsDistances) {
  Rng rng(3);
  Graph g = graph::random_maximal_planar(60, rng);
  const auto leaders = elect_cluster_leaders(g, single_cluster(g));
  const auto tree =
      build_cluster_bfs_trees(g, single_cluster(g), leaders.leader_of);
  const auto dist = graph::bfs_distances(g, leaders.leader_of[0]);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(tree.depth[v], dist[v]) << "v=" << v;
    if (v != leaders.leader_of[0]) {
      ASSERT_NE(tree.parent[v], graph::kInvalidVertex);
      EXPECT_EQ(tree.depth[tree.parent[v]], tree.depth[v] - 1);
    }
  }
}

TEST(Orientation, OutDegreeBounded) {
  Rng rng(5);
  Graph g = graph::random_maximal_planar(150, rng);
  const int threshold = graph::degeneracy(g).degeneracy;  // <= 5 planar
  const auto r = orient_cluster_edges(g, single_cluster(g), threshold);
  EXPECT_LE(r.max_out_degree, threshold);
  // Every intra-cluster edge owned exactly once.
  std::vector<int> owners(g.num_edges(), 0);
  for (const auto& list : r.owned) {
    for (graph::EdgeId e : list) ++owners[e];
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(owners[e], 1) << "edge " << e;
  }
}

TEST(Orientation, PhasesLogarithmic) {
  Rng rng(7);
  Graph g = graph::random_maximal_planar(500, rng);
  const auto r = orient_cluster_edges(g, single_cluster(g), 5);
  EXPECT_LE(r.peeling_phases, 40);  // O(log n) with a generous constant
}

TEST(Orientation, RespectsClusters) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto r = orient_cluster_edges(g, cluster, 2);
  std::vector<int> owners(g.num_edges(), 0);
  for (const auto& list : r.owned) {
    for (graph::EdgeId e : list) ++owners[e];
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    EXPECT_EQ(owners[e], cluster[ed.u] == cluster[ed.v] ? 1 : 0);
  }
}

TEST(Gather, AllTokensReachLeader) {
  Rng rng(9);
  Graph g = graph::random_maximal_planar(40, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 1000 + v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto r = random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].size(), static_cast<std::size_t>(g.num_vertices()));
  // Payloads intact.
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto& payload : r.delivered[0]) {
    ASSERT_EQ(payload.size(), 2u);
    EXPECT_EQ(payload[1], 1000 + payload[0]);
    seen[payload[0]] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Gather, WorksPerClusterInParallel) {
  Graph g = graph::grid(4, 8);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cluster[v] = (v % 8) / 4;
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto r = random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.delivered[0].size() + r.delivered[1].size(),
            static_cast<std::size_t>(g.num_vertices()));
  for (const auto& payload : r.delivered[0]) {
    EXPECT_EQ(cluster[payload[0]], 0);
  }
}

TEST(Broadcast, EveryVertexLearnsLeaderValue) {
  Graph g = graph::grid(5, 5);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::int64_t> values(g.num_vertices(), 0);
  values[leaders.leader_of[0]] = 42;
  const auto r = broadcast_from_leaders(g, cluster, leaders.leader_of, values);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.value[v], 42);
  }
}

TEST(DiameterCheck, AcceptsTightClusters) {
  Graph g = graph::grid(4, 4);  // diameter 6
  const auto r = check_cluster_diameter(g, single_cluster(g), 6);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(r.within_bound[v]);
  }
}

TEST(DiameterCheck, FlagsWideClusters) {
  Graph g = graph::path(30);  // diameter 29 >> 2*3+1
  const auto r = check_cluster_diameter(g, single_cluster(g), 3);
  int flagged = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    flagged += !r.within_bound[v];
  }
  EXPECT_GT(flagged, 0);
}

// ---- First-arrival records and the path return ---------------------------

// The port of v that leads to its neighbour u.
int port(const Graph& g, VertexId v, VertexId u) {
  const auto nbrs = g.neighbors(v);
  return static_cast<int>(std::find(nbrs.begin(), nbrs.end(), u) -
                          nbrs.begin());
}

// A gather result that holds first-arrival lists alone: vertex v's
// registration walked walks[v], recorded as first_arrival_reference finds it.
GatherResult gather_of_walks(
    const Graph& g, const std::map<VertexId, std::vector<TokenHop>>& walks) {
  GatherResult gather;
  gather.first_arrivals.resize(g.num_vertices());
  for (const auto& [v, walk] : walks) {
    gather.first_arrivals[v] = first_arrival_reference(g, v, walk);
  }
  return gather;
}

// What the return relies on: every record's port leads to the origin or to
// an earlier record of a smaller round, and no vertex is recorded twice or
// at the origin.
void expect_routable(const Graph& g, VertexId origin,
                     const std::vector<FirstArrival>& list) {
  for (std::size_t j = 0; j < list.size(); ++j) {
    const FirstArrival& a = list[j];
    ASSERT_GE(a.port, 0);
    ASSERT_LT(a.port, g.degree(a.at));
    EXPECT_NE(a.at, origin);
    const VertexId from = g.neighbors(a.at)[a.port];
    bool earlier = from == origin;
    for (std::size_t k = 0; k < j; ++k) {
      EXPECT_NE(list[k].at, a.at) << "origin " << origin << " record " << j;
      earlier = earlier || (list[k].at == from && list[k].round < a.round);
    }
    EXPECT_TRUE(earlier) << "origin " << origin << " record " << j;
  }
}

// The deterministic fields of two runs agree.
void expect_same_run(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.words_sent, b.words_sent);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
}

// Hops of the first-arrival paths the lists record (tests/oracles).
std::int64_t path_hops(const Graph& g, const GatherResult& gather) {
  std::int64_t hops = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    hops += static_cast<std::int64_t>(
        first_arrival_path(g, v, gather.first_arrivals[v]).size());
  }
  return hops;
}

// The return against the oracles (tests/oracles): every word comes back to
// its vertex with one message [origin, word] per hop of the reference path
// its list records, and the mirror schedule on the same lists sends the same
// messages and words and delivers the same words. Returns the run.
PathReturnResult expect_return_follows_reference_paths(
    const Graph& g, const GatherResult& gather,
    const std::vector<std::int64_t>& words) {
  const PathReturnResult back = return_along_paths(g, gather, words);
  const std::int64_t hops = path_hops(g, gather);
  EXPECT_EQ(back.stats.messages_sent, hops);
  EXPECT_EQ(back.stats.words_sent, 2 * hops);
  std::vector<std::vector<std::int64_t>> reply(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) reply[v] = {words[v]};
  const ReverseDeliveryResult oracle = reverse_delivery(g, gather, reply);
  EXPECT_EQ(back.stats.messages_sent, oracle.stats.messages_sent);
  EXPECT_EQ(back.stats.words_sent, oracle.stats.words_sent);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(back.arrived[v]) << "vertex " << v;
    EXPECT_EQ(back.word[v], words[v]) << "vertex " << v;
    EXPECT_EQ(oracle.received[v], reply[v]) << "vertex " << v;
  }
  return back;
}

// One word a vertex, 40 + v.
std::vector<std::int64_t> words_for(const Graph& g) {
  std::vector<std::int64_t> words(g.num_vertices());
  std::iota(words.begin(), words.end(), std::int64_t{40});
  return words;
}

// The gathers record each registration's first arrivals as the reference
// walker's whole walks have them (tests/oracles): on several graphs and
// token mixes, a vertex without tokens among them, at one and four threads
// with every round sharded, the same lists, delivered order, rounds,
// messages, words and peak load.
TEST(Gather, RecordsTheFirstArrivalsOfTheReferenceWalks) {
  Rng rng(21);
  const Graph tri = graph::random_maximal_planar(60, rng);
  const Graph grid = graph::grid(8, 8);
  std::vector<int> halves(grid.num_vertices());
  for (VertexId v = 0; v < grid.num_vertices(); ++v) halves[v] = (v % 8) / 4;
  struct Case {
    const char* name;
    const Graph* g;
    std::vector<int> cluster;
    int tokens;  // per vertex; vertex 5 gets none
    std::uint64_t seed;
    int bandwidth;
  };
  const std::vector<Case> cases = {
      {"triangulation", &tri, single_cluster(tri), 2, 5, 3},
      {"grid halves", &grid, halves, 3, 9, 2},
      {"grid", &grid, single_cluster(grid), 1, 1, 1},
  };
  for (const Case& c : cases) {
    const Graph& g = *c.g;
    const auto leaders = elect_cluster_leaders(g, c.cluster);
    std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int k = 0; k < c.tokens && v != 5; ++k) {
        tokens[v].push_back({v, {v, k}});
      }
    }
    GatherOptions opt;
    opt.seed = c.seed;
    opt.net.bandwidth_tokens = c.bandwidth;
    opt.net.sparse_serial_threshold = 0;
    const ReferenceGather ref =
        reference_walk_gather(g, c.cluster, leaders.leader_of, tokens, opt);
    ASSERT_TRUE(ref.complete) << c.name;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.name) + " at " + std::to_string(threads));
      opt.net.num_threads = threads;
      const GatherResult r =
          random_walk_gather(g, c.cluster, leaders.leader_of, tokens, opt);
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.delivered_ids, ref.delivered_ids);
      expect_same_run(r.stats, ref.stats);
      const auto n = static_cast<std::size_t>(g.num_vertices());
      ASSERT_EQ(r.token_begin.size(), n + 1);
      ASSERT_EQ(r.first_arrivals.size(), n);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (tokens[v].empty()) {
          EXPECT_EQ(r.token_begin[v], r.token_begin[v + 1]);
          EXPECT_TRUE(r.first_arrivals[v].empty());
          continue;
        }
        EXPECT_EQ(r.first_arrivals[v],
                  first_arrival_reference(g, v, ref.walks[r.token_begin[v]]))
            << "vertex " << v;
      }
    }
  }
}

// A first-arrival path's rounds increase from its origin to its leader: the
// return refuses a record whose predecessor on the path was reached in the
// same round or later.
TEST(HopLog, RejectsRoundsThatDoNotIncrease) {
  const Graph g = graph::path(4);
  GatherResult gather;
  gather.first_arrivals.assign(4, {});
  const std::vector<std::int64_t> words(4, 7);
  for (const auto& [first, second] :
       {std::pair{3, 3}, std::pair{4, 3}, std::pair{3, 4}}) {
    gather.first_arrivals[0] = {{1, port(g, 1, 0), first},
                                {2, port(g, 2, 1), second}};
    if (first < second) {
      EXPECT_NO_THROW(return_along_paths(g, gather, words));
    } else {
      EXPECT_THROW(return_along_paths(g, gather, words), std::invalid_argument)
          << first << " then " << second;
    }
  }
}

// The first arrivals of a walk and the path they record, on forged walks
// that end, as a gather's do, where they first reach their last vertex. On
// a complete graph every hop is an edge, so each reply travels its known
// path, one message [origin, word] per hop, and every other vertex keeps
// its word.
TEST(FirstArrivalCut, KnownAnswersOnForgedWalks) {
  struct Case {
    const char* name;
    VertexId origin;
    std::vector<TokenHop> walk;
    std::vector<TokenHop> path;
  };
  const std::vector<Case> cases = {
      {"a path stays as it is", 0, {{1, 0}, {2, 1}, {3, 5}},
       {{1, 0}, {2, 1}, {3, 5}}},
      {"the origin is its own leader", 4, {}, {}},
      {"a revisited origin restarts the path", 0,
       {{1, 0}, {0, 1}, {2, 3}, {3, 4}}, {{2, 3}, {3, 4}}},
      {"a loop through a path vertex is erased", 0,
       {{1, 0}, {2, 1}, {1, 2}, {3, 3}}, {{1, 0}, {3, 3}}},
      // Chronological loop erasure keeps 0 -> 1 -> 3 -> 2 -> 5 here: it
      // follows each vertex's last departure, the records each first arrival.
      {"first arrivals, not last departures", 0,
       {{1, 0}, {2, 1}, {1, 2}, {3, 3}, {2, 4}, {5, 5}},
       {{1, 0}, {2, 1}, {5, 5}}},
  };
  const Graph g = graph::complete(8);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    GatherResult gather = gather_of_walks(g, {{c.origin, c.walk}});
    gather.stats.rounds = 8;
    gather.stats.max_edge_load = 1;
    const std::vector<FirstArrival>& list = gather.first_arrivals[c.origin];
    expect_routable(g, c.origin, list);
    std::vector<TokenHop> path;
    for (const FirstArrival& a : first_arrival_path(g, c.origin, list)) {
      path.push_back({a.at, a.round});
    }
    EXPECT_EQ(path, c.path);
    const PathReturnResult back =
        expect_return_follows_reference_paths(g, gather, words_for(g));
    const auto hops = static_cast<std::int64_t>(c.path.size());
    EXPECT_EQ(back.stats.rounds, hops == 0 ? 0 : hops + 1);
  }
}

// A record on a path must lie within the graph: the return refuses a vertex
// or a port outside it before it runs.
TEST(FirstArrivalCut, RejectsAVertexOutsideTheGraph) {
  const Graph g = graph::complete(5);
  const std::vector<std::int64_t> words(5, 7);
  const std::vector<std::vector<FirstArrival>> lists = {
      {{5, 0, 0}}, {{-1, 0, 0}}, {{1, 4, 0}}, {{1, -1, 0}},
      {{2, 0, 0}, {9, 0, 1}}};
  for (const std::vector<FirstArrival>& list : lists) {
    GatherResult gather;
    gather.first_arrivals.assign(5, {});
    gather.first_arrivals[0] = list;
    EXPECT_THROW(return_along_paths(g, gather, words), std::invalid_argument);
  }
}

// A reply steps back through the records alone: a port that leads neither
// to the origin nor to an earlier record, a record at the origin, or a path
// that comes back to one of its vertices is refused. A record off the path
// is not read.
TEST(FirstArrivalCut, RejectsATokenIdOutsideTheTraces) {
  const Graph g = graph::complete(5);
  const std::vector<std::int64_t> words(5, 7);
  GatherResult gather;
  gather.first_arrivals.assign(5, {});
  const std::vector<std::vector<FirstArrival>> refused = {
      {{2, port(g, 2, 1), 3}},
      {{0, port(g, 0, 1), 0}},
      {{1, port(g, 1, 2), 0}, {2, port(g, 2, 1), 1}},
      {{1, port(g, 1, 0), 0}, {2, port(g, 2, 1), 1}, {1, port(g, 1, 2), 2}}};
  for (const std::vector<FirstArrival>& list : refused) {
    gather.first_arrivals[0] = list;
    EXPECT_THROW(return_along_paths(g, gather, words), std::invalid_argument);
  }
  gather.first_arrivals[0] = {
      {1, port(g, 1, 0), 0}, {3, port(g, 3, 1), 1}, {2, port(g, 2, 1), 2}};
  const PathReturnResult back = return_along_paths(g, gather, words);
  EXPECT_EQ(back.stats.messages_sent, 2);
  EXPECT_TRUE(back.arrived[0]);
}

// Random walks with random waits on a small graph, so that they revisit
// their origins and their paths often, each cut after its last first
// arrival as a gather's walk ends at its leader, and returned along in
// batches of one walk per vertex: the return's shared scratch must give
// every reply the reference path. The paths are walks along edges with no
// vertex twice, and most of the walked hops are loops the records erase.
TEST(FirstArrivalCut, MatchesTheReferenceOnRandomWalks) {
  Rng rng(29);
  const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const Graph g = graph::grid(4, 4);
  const int n = g.num_vertices();
  std::int64_t walked = 0;
  std::int64_t kept = 0;
  for (int batch = 0; batch < 25; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    GatherResult gather;
    gather.first_arrivals.resize(n);
    gather.stats.max_edge_load = 2;
    gather.bandwidth_tokens = 2;
    for (VertexId origin = 0; origin < n; ++origin) {
      const int length = static_cast<int>(uniform(0, 120));
      std::vector<TokenHop> walk;
      VertexId at = origin;
      std::int32_t round = -1;
      for (int h = 0; h < length; ++h) {
        const auto nbrs = g.neighbors(at);
        at = nbrs[static_cast<std::size_t>(
            uniform(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
        round += 1 + static_cast<std::int32_t>(uniform(0, 3));
        walk.push_back({at, round});
      }
      std::vector<FirstArrival> list = first_arrival_reference(g, origin, walk);
      if (!list.empty()) {
        while (walk.back().round != list.back().round) walk.pop_back();
      }
      walked += static_cast<std::int64_t>(walk.size());
      expect_routable(g, origin, list);
      const std::vector<FirstArrival> path =
          first_arrival_path(g, origin, list);
      std::vector<bool> seen(n, false);
      seen[origin] = true;
      VertexId from = origin;
      for (const FirstArrival& step : path) {
        EXPECT_EQ(g.neighbors(step.at)[step.port], from);
        EXPECT_FALSE(seen[step.at]) << "origin " << origin;
        seen[step.at] = true;
        from = step.at;
      }
      if (!walk.empty()) {
        EXPECT_EQ(from, walk.back().to);
      }
      gather.stats.rounds =
          std::max<std::int64_t>(gather.stats.rounds, round + 1);
      gather.first_arrivals[origin] = std::move(list);
    }
    kept += expect_return_follows_reference_paths(g, gather, words_for(g))
                .stats.messages_sent;
  }
  // The walks wander: most of their hops are loops the records erase.
  EXPECT_LT(kept * 4, walked);
}

// A gather's own records: the walk gather's, two tokens a vertex, against
// the reference walker's whole walks; and the reliable gather's under
// drops, whose undelivered registrations walk again from their origins in
// later epochs and forget their records. Some registrations wandered, so
// their lists are longer than their paths.
std::int64_t lists_longer_than_paths(const Graph& g,
                                     const GatherResult& gather) {
  std::int64_t longer = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& list = gather.first_arrivals[v];
    longer += first_arrival_path(g, v, list).size() < list.size();
  }
  return longer;
}

TEST(PathReturn, FollowsTheWalkGathersWholeWalks) {
  Rng rng(21);
  const Graph g = graph::random_maximal_planar(60, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v] = {{v, {v}}, {v, {v + 100}}};
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 3;
  const GatherResult gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  const ReferenceGather ref =
      reference_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(gather.first_arrivals[v],
              first_arrival_reference(g, v, ref.walks[gather.token_begin[v]]));
    expect_routable(g, v, gather.first_arrivals[v]);
  }
  EXPECT_GT(lists_longer_than_paths(g, gather), 0);
  const PathReturnResult back =
      expect_return_follows_reference_paths(g, gather, words_for(g));
  EXPECT_LE(back.stats.max_edge_load, gather.stats.max_edge_load);
  EXPECT_LE(back.stats.rounds, gather.stats.rounds);
}

TEST(PathReturn, FollowsTheReliableGathersReseededWalks) {
  const Graph g = graph::torus_grid(6, 6);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) tokens[v] = {{v, {v}}};
  ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 17;
  opt.net.faults.drop_probability = 0.05;
  opt.epoch_rounds = 24;
  opt.max_epochs = 64;
  const ReliableGatherResult r = reliable_walk_gather(
      g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(r.gather.complete);
  EXPECT_GT(r.epochs, 1);  // some tokens were re-seeded
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    expect_routable(g, v, r.gather.first_arrivals[v]);
  }
  EXPECT_GT(lists_longer_than_paths(g, r.gather), 0);
  expect_return_follows_reference_paths(g, r.gather, words_for(g));
}

TEST(ReverseDelivery, RepliesFollowRecordedPathsBackwards) {
  Rng rng(19);
  Graph g = graph::random_maximal_planar(40, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 3;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  std::vector<std::vector<std::int64_t>> reply(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) reply[v] = {1000 + v};
  const auto r = reverse_delivery(g, gather, reply);
  EXPECT_TRUE(r.load_ok);
  EXPECT_LE(r.stats.rounds, gather.stats.rounds);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.received[v], std::vector<std::int64_t>{1000 + v});
  }
  // One message per hop of each recorded path, a part of the forward hops.
  EXPECT_EQ(r.stats.messages_sent, path_hops(g, gather));
  EXPECT_LT(r.stats.messages_sent, gather.stats.messages_sent);
}

// Replies are indexed by vertex: one to a vertex outside the graph is
// refused, an empty one past the graph is not.
TEST(ReverseDelivery, RejectsAReplyWhoseOriginIsOutOfRange) {
  const Graph g = graph::path(2);
  GatherResult gather;
  gather.stats.rounds = 1;
  gather.first_arrivals = {{}, {{0, 0, 0}}};
  EXPECT_THROW(reverse_delivery(g, gather, {{7}, {8}, {9}}),
               std::invalid_argument);
  EXPECT_NO_THROW(reverse_delivery(g, gather, {{7}, {8}, {}}));
}

TEST(ReverseDelivery, PartialRepliesSkipUnansweredTokens) {
  Graph g = graph::grid(5, 5);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  std::vector<std::vector<std::int64_t>> reply(g.num_vertices());
  reply[0] = {7};  // only vertex 0 gets a reply
  const auto r = reverse_delivery(g, gather, reply);
  EXPECT_TRUE(r.load_ok);
  int delivered = 0;
  for (const auto& received : r.received) delivered += !received.empty();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(r.received[0], std::vector<std::int64_t>{7});
}

// The sorted-key load check against a direct replay of the recorded paths:
// every replied hop counted into a map keyed by (reverse round, from, to).
// The RunStats, load_ok and received must agree exactly, for a budget the
// walk met and one it did not.
TEST(ReverseDelivery, MatchesAMapReplayOfTheDecodedWalks) {
  Rng rng(21);
  const Graph g = graph::random_maximal_planar(60, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v] = {{v, {v}}, {v, {v + 100}}};
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 3;
  GatherResult gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  // Every third vertex gets no reply; the others get 1 or 2 words.
  std::vector<std::vector<std::int64_t>> reply(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 3 != 0) reply[v].assign(v % 3, v);
  }
  for (const int budget : {3, 1}) {
    gather.bandwidth_tokens = budget;
    const std::int64_t horizon = gather.stats.rounds;
    RunStats expected;
    std::map<std::tuple<std::int64_t, VertexId, VertexId>, int> load;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (reply[v].empty()) continue;
      for (const FirstArrival& step :
           first_arrival_path(g, v, gather.first_arrivals[v])) {
        ++expected.messages_sent;
        expected.words_sent += static_cast<std::int64_t>(reply[v].size()) + 1;
        expected.rounds = std::max(expected.rounds, horizon - step.round);
        ++load[{horizon - 1 - step.round, step.at,
                g.neighbors(step.at)[step.port]}];
      }
    }
    for (const auto& [key, count] : load) {
      expected.max_edge_load = std::max(expected.max_edge_load, count);
    }
    const auto r = reverse_delivery(g, gather, reply);
    EXPECT_EQ(r.stats.rounds, expected.rounds) << budget;
    EXPECT_EQ(r.stats.messages_sent, expected.messages_sent) << budget;
    EXPECT_EQ(r.stats.words_sent, expected.words_sent) << budget;
    EXPECT_EQ(r.stats.max_edge_load, expected.max_edge_load) << budget;
    EXPECT_EQ(r.load_ok, expected.max_edge_load <= budget) << budget;
    EXPECT_EQ(r.received, reply) << budget;
  }
  // The walk met its budget of 3, and shared an edge-round at least once.
  EXPECT_GT(gather.stats.max_edge_load, 1);
}

// An old check keyed its load map by (round << 40) ^ (from << 20) ^ to, so
// distinct directed edges aliased once a vertex id reached 2^20: the
// reverse hops (1 -> 0) and (0 -> 2^20) in one round read as load 2.
TEST(ReverseDelivery, DistinctEdgesDoNotAliasPastTwoToTheTwenty) {
  constexpr VertexId kFar = VertexId{1} << 20;
  const Graph g = Graph::from_edges(kFar + 1, {{0, 1}, {0, kFar}});
  GatherResult gather;
  gather.stats.rounds = 1;
  gather.bandwidth_tokens = 1;
  // Vertex 0's registration walks 0 -> 1, kFar's kFar -> 0, both in round 0.
  gather.first_arrivals.resize(kFar + 1);
  gather.first_arrivals[0] = {{1, port(g, 1, 0), 0}};
  gather.first_arrivals[kFar] = {{0, port(g, 0, kFar), 0}};
  std::vector<std::vector<std::int64_t>> reply(kFar + 1);
  reply[0] = {7};
  reply[kFar] = {8};
  const auto r = reverse_delivery(g, gather, reply);
  EXPECT_TRUE(r.load_ok);
  EXPECT_EQ(r.stats.max_edge_load, 1);
  EXPECT_EQ(r.stats.messages_sent, 2);
  EXPECT_EQ(r.received[0], std::vector<std::int64_t>{7});
  EXPECT_EQ(r.received[kFar], std::vector<std::int64_t>{8});
}

TEST(ReverseDelivery, SameEdgeOverloadStillFails) {
  // Vertices 0 and 3 both reach 1 in round 0 and go on to 2 in round 1: both
  // reverse hops 2 -> 1 fall in one round.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {1, 3}});
  GatherResult gather;
  gather.stats.rounds = 2;
  gather.bandwidth_tokens = 1;
  gather.first_arrivals = {
      {{1, port(g, 1, 0), 0}, {2, port(g, 2, 1), 1}}, {}, {},
      {{1, port(g, 1, 3), 0}, {2, port(g, 2, 1), 1}}};
  const auto r = reverse_delivery(g, gather, {{7}, {}, {}, {8}});
  EXPECT_FALSE(r.load_ok);
  EXPECT_EQ(r.stats.max_edge_load, 2);
}

TEST(ReverseDelivery, HopOutsideTheForwardHorizonFails) {
  const Graph g = graph::path(2);
  GatherResult gather;
  gather.stats.rounds = 1;
  // Round 1 has no mirror in 1 round.
  gather.first_arrivals = {{{1, 0, 1}}, {}};
  EXPECT_FALSE(reverse_delivery(g, gather, {{7}, {}}).load_ok);
}

// On the path 0 - 1 - 2 - 3 with leader 0, one reply a round on each edge:
// vertex 1's registration came from 1 in forward round 2, vertex 3's from 3
// through 2 and 1 in rounds 0, 1 and 3. The latest forward round goes first,
// so 3's reply leaves 0 in round 0 and reaches 3 in round 3, and 1's leaves
// in round 1: four rounds. 1's first would take five, as the mirror of the
// five-round gather does. Vertices 0 and 2 keep their words.
TEST(PathReturn, LatestForwardRoundGoesFirst) {
  const Graph g = graph::path(4);
  GatherResult gather;
  gather.stats.rounds = 5;
  gather.stats.max_edge_load = 1;
  gather.bandwidth_tokens = 3;
  gather.first_arrivals = {
      {},
      {{0, port(g, 0, 1), 2}},
      {},
      {{2, port(g, 2, 3), 0}, {1, port(g, 1, 2), 1}, {0, port(g, 0, 1), 3}}};
  const auto r = return_along_paths(g, gather, {5, 7, 6, 8});
  EXPECT_EQ(r.stats.rounds, 4);
  EXPECT_EQ(r.stats.messages_sent, 4);
  EXPECT_EQ(r.stats.words_sent, 4 * 2);
  EXPECT_EQ(r.stats.max_edge_load, 1);
  const auto oracle = reverse_delivery(g, gather, {{}, {7}, {}, {8}});
  EXPECT_EQ(oracle.stats.rounds, 5);
  EXPECT_EQ(r.arrived, (std::vector<char>{1, 1, 1, 1}));
  EXPECT_EQ(r.word, (std::vector<std::int64_t>{5, 7, 6, 8}));
  EXPECT_EQ(oracle.received[1], std::vector<std::int64_t>{7});
  EXPECT_EQ(oracle.received[3], std::vector<std::int64_t>{8});
}

// A vertex routes a reply by its entry in its table, so a path's records
// must lie within the graph and step back over its edges: a record outside
// it, or whose port leads to a vertex the registration never reached (as a
// hop from 3 straight to 0 would), is refused before the run.
TEST(PathReturn, RefusesTracesThatAreNotPathsOfTheGraph) {
  const Graph g = graph::path(4);
  GatherResult gather;
  gather.stats.max_edge_load = 1;
  gather.first_arrivals.assign(4, {});
  const std::vector<std::int64_t> words(4, 7);
  const auto refuses = [&](std::vector<FirstArrival> list) {
    gather.first_arrivals[3] = std::move(list);
    return_along_paths(g, gather, words);
  };
  EXPECT_THROW(refuses({{4, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(refuses({{0, 1, 0}}), std::invalid_argument);
  EXPECT_THROW(refuses({{0, port(g, 0, 1), 0}}), std::invalid_argument);
  EXPECT_THROW(refuses({{3, port(g, 3, 2), 0}}), std::invalid_argument);
  EXPECT_NO_THROW(refuses(
      {{2, port(g, 2, 3), 0}, {1, port(g, 1, 2), 1}, {0, port(g, 0, 1), 2}}));
}

// One word and one first-arrival list per vertex; the result has one word
// slot per vertex.
TEST(PathReturn, TakesOneWordPerTokenAndOneReplyPerOrigin) {
  const Graph g = graph::complete(4);
  GatherResult gather;
  gather.stats.max_edge_load = 1;
  gather.first_arrivals = {
      {}, {{0, port(g, 0, 1), 0}}, {{0, port(g, 0, 2), 0}}, {}};
  EXPECT_THROW(return_along_paths(g, gather, {7, 8, 9}), std::invalid_argument);
  EXPECT_THROW(return_along_paths(g, gather, {7, 8, 9, 10, 11}),
               std::invalid_argument);
  GatherResult short_lists = gather;
  short_lists.first_arrivals.pop_back();
  EXPECT_THROW(return_along_paths(g, short_lists, {7, 8, 9, 10}),
               std::invalid_argument);
  const auto r = return_along_paths(g, gather, {7, 8, 9, 10});
  EXPECT_EQ(r.arrived, (std::vector<char>{1, 1, 1, 1}));
  EXPECT_EQ(r.word, (std::vector<std::int64_t>{7, 8, 9, 10}));
  EXPECT_EQ(r.stats.messages_sent, 2);
}

// A reply is never resent, and its port's queue has room for one copy of
// it, so the return refuses every fault plan before the run: a copied reply
// would be queued past its port's room. The same records return every word
// on a network without one.
TEST(PathReturn, RefusesANetworkWithAFaultPlan) {
  const Graph g = graph::path(6);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) tokens[v].push_back({v, {v}});
  const GatherResult gather =
      tree_gather(g, cluster, leaders.leader_of, tree.parent, tokens);
  ASSERT_TRUE(gather.complete);
  const std::vector<std::int64_t> words = {10, 11, 12, 13, 14, 15};
  std::vector<FaultPlan> plans(5);
  plans[0].duplicate_probability = 1.0;
  plans[1].drop_probability = 0.5;
  plans[2].delay_probability = 1.0;
  plans[3].crashes.push_back({.vertex = 1, .round = 1});
  plans[4].churn.push_back(
      {.kind = ChurnKind::kEdgeDelete, .round = 1, .u = 1, .v = 2});
  for (const FaultPlan& plan : plans) {
    NetworkOptions net;
    net.faults = plan;
    EXPECT_THROW(return_along_paths(g, gather, words, net),
                 std::invalid_argument);
  }
  const PathReturnResult back = return_along_paths(g, gather, words);
  EXPECT_EQ(back.word, words);
  EXPECT_EQ(back.arrived, std::vector<char>(6, 1));
  EXPECT_GT(back.stats.messages_sent, 0);
}

// Recorded rounds are 32-bit, so a round budget past INT32_MAX is refused up
// front instead of wrapping mid-run; INT32_MAX itself is accepted.
TEST(Gather, RejectsRoundBudgetPastInt32) {
  const Graph g = graph::grid(3, 3);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) tokens[v].push_back({v, {v}});
  GatherOptions opt;
  opt.net.max_rounds = std::int64_t{1} << 31;
  EXPECT_THROW(random_walk_gather(g, cluster, leaders.leader_of, tokens, opt),
               std::invalid_argument);
  ReliableGatherOptions ropt;
  ropt.max_epochs = 2000;  // 2000 x (2M + 520) rounds > INT32_MAX
  EXPECT_THROW(
      reliable_walk_gather(g, cluster, leaders.leader_of, tokens, ropt),
      std::invalid_argument);
  opt.net.max_rounds = (std::int64_t{1} << 31) - 1;
  opt.net.bandwidth_tokens = 2;
  const auto r = random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.bandwidth_tokens, 2);
}

TEST(TreeGather, DeliversAllTokensDeterministically) {
  Rng rng(21);
  Graph g = graph::random_maximal_planar(50, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 7 * v}});
  }
  NetworkOptions net;
  net.bandwidth_tokens = 2;
  const auto r = tree_gather(g, cluster, leaders.leader_of, tree.parent,
                             tokens, net);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.delivered[0].size(), static_cast<std::size_t>(g.num_vertices()));
  for (const auto& payload : r.delivered[0]) {
    EXPECT_EQ(payload[1], 7 * payload[0]);
  }
  // Determinism: a second run delivers in the same number of rounds.
  const auto r2 = tree_gather(g, cluster, leaders.leader_of, tree.parent,
                              tokens, net);
  EXPECT_EQ(r.stats.rounds, r2.stats.rounds);
}

TEST(TreeGather, RootCongestionCostsRounds) {
  // On a path rooted at one end, all n tokens serialize over the root edge:
  // rounds ~ n at bandwidth 1 — the congestion Lemma 2.5 is designed to
  // beat.
  Graph g = graph::path(40);
  std::vector<int> cluster(40, 0);
  std::vector<VertexId> leader(40, 0);
  std::vector<VertexId> parent(40);
  parent[0] = graph::kInvalidVertex;
  for (VertexId v = 1; v < 40; ++v) parent[v] = v - 1;
  std::vector<std::vector<GatherToken>> tokens(40);
  for (VertexId v = 0; v < 40; ++v) tokens[v].push_back({v, {v}});
  const auto r = tree_gather(g, cluster, leader, parent, tokens);
  ASSERT_TRUE(r.complete);
  EXPECT_GE(r.stats.rounds, 39);
}

// The first payload word of each token a tree gather delivered, in delivery
// order.
std::vector<std::int64_t> delivery_order(
    const std::vector<std::vector<std::int64_t>>& delivered) {
  std::vector<std::int64_t> order;
  for (const auto& payload : delivered) order.push_back(payload.at(0));
  return order;
}

// The tree gather's schedule, pinned: rounds, messages, peak edge load and
// the order the leader absorbed the payloads in.
TEST(TreeGather, ScheduleIsPinned) {
  {
    Rng rng(21);
    const Graph g = graph::random_maximal_planar(50, rng);
    const auto cluster = single_cluster(g);
    const auto leaders = elect_cluster_leaders(g, cluster);
    const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
    std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      tokens[v].push_back({v, {v, 7 * v}});
    }
    NetworkOptions net;
    net.bandwidth_tokens = 2;
    const auto r =
        tree_gather(g, cluster, leaders.leader_of, tree.parent, tokens, net);
    EXPECT_EQ(r.stats.rounds, 7);
    EXPECT_EQ(r.stats.messages_sent, 73);
    EXPECT_EQ(r.stats.max_edge_load, 2);
    EXPECT_EQ(delivery_order(r.delivered[0]),
              (std::vector<std::int64_t>{
                  3,  0,  1,  2,  4,  6,  7,  8,  9,  10, 12, 13, 15,
                  16, 17, 19, 21, 22, 24, 25, 27, 29, 31, 34, 37, 38,
                  45, 30, 35, 5,  23, 11, 32, 14, 18, 20, 43, 41, 49,
                  33, 39, 40, 26, 28, 42, 36, 44, 46, 47, 48}));
  }
  {
    const Graph g = graph::path(40);
    std::vector<int> cluster(40, 0);
    std::vector<VertexId> leader(40, 0);
    std::vector<VertexId> parent(40);
    parent[0] = graph::kInvalidVertex;
    for (VertexId v = 1; v < 40; ++v) parent[v] = v - 1;
    std::vector<std::vector<GatherToken>> tokens(40);
    for (VertexId v = 0; v < 40; ++v) tokens[v].push_back({v, {v}});
    const auto r = tree_gather(g, cluster, leader, parent, tokens);
    EXPECT_EQ(r.stats.rounds, 40);
    EXPECT_EQ(r.stats.messages_sent, 780);
    EXPECT_EQ(r.stats.max_edge_load, 1);
    std::vector<std::int64_t> by_id(40);
    std::iota(by_id.begin(), by_id.end(), 0);
    EXPECT_EQ(delivery_order(r.delivered[0]), by_id);
  }
}

// A path of six, its parents one step toward vertex 0 and one token each:
// the inputs the tree gather's refusals below start from.
struct PathTree {
  Graph g = graph::path(6);
  std::vector<int> cluster = std::vector<int>(6, 0);
  std::vector<VertexId> leader = std::vector<VertexId>(6, 0);
  std::vector<VertexId> parent{graph::kInvalidVertex, 0, 1, 2, 3, 4};
  std::vector<std::vector<GatherToken>> tokens;
  NetworkOptions net;

  PathTree() {
    tokens.resize(6);
    for (VertexId v = 0; v < 6; ++v) tokens[v].push_back({v, {v}});
    // A climb that cannot end would spin to this cap, then throw a
    // std::runtime_error.
    net.max_rounds = 1000;
  }
  GatherResult run() const {
    return tree_gather(g, cluster, leader, parent, tokens, net);
  }
};

// Every gather indexes its per-vertex inputs by vertex: a list of another
// length is refused before any run, not read out of bounds.
TEST(Gather, RejectsInputsThatAreNotOnePerVertex) {
  const PathTree in;
  const std::vector<std::vector<GatherToken>> three(in.tokens.begin(),
                                                    in.tokens.begin() + 3);
  EXPECT_THROW(random_walk_gather(in.g, in.cluster, in.leader, three),
               std::invalid_argument);
  EXPECT_THROW(random_walk_gather(in.g, std::vector<int>(5, 0), in.leader,
                                  in.tokens),
               std::invalid_argument);
  EXPECT_THROW(random_walk_gather(in.g, in.cluster,
                                  std::vector<VertexId>(7, 0), in.tokens),
               std::invalid_argument);
  EXPECT_TRUE(random_walk_gather(in.g, in.cluster, in.leader, in.tokens)
                  .complete);
}

TEST(TreeGather, RejectsInputsThatAreNotOnePerVertex) {
  PathTree in;
  in.tokens.resize(3);
  EXPECT_THROW(in.run(), std::invalid_argument);
  in = PathTree();
  in.cluster.resize(5);
  EXPECT_THROW(in.run(), std::invalid_argument);
  in = PathTree();
  in.leader.push_back(0);
  EXPECT_THROW(in.run(), std::invalid_argument);
  in = PathTree();
  in.parent.pop_back();
  EXPECT_THROW(in.run(), std::invalid_argument);
  in = PathTree();
  in.net.max_rounds = std::int64_t{1} << 31;
  EXPECT_THROW(in.run(), std::invalid_argument);
  EXPECT_TRUE(PathTree().run().complete);
}

// A token climbs only to a neighbour in its cluster, so a non-leader whose
// parent is none, is no neighbour or lies in another cluster is refused.
TEST(TreeGather, RejectsAParentThatIsNotANeighbourInItsCluster) {
  PathTree in;
  in.parent[5] = 2;
  EXPECT_THROW(in.run(), std::invalid_argument);
  in.parent[5] = graph::kInvalidVertex;
  EXPECT_THROW(in.run(), std::invalid_argument);
  in = PathTree();
  in.cluster = {0, 0, 0, 1, 1, 1};
  in.leader = {0, 0, 0, 4, 4, 4};
  in.parent = {graph::kInvalidVertex, 0, 1, 2, graph::kInvalidVertex, 4};
  EXPECT_THROW(in.run(), std::invalid_argument);
  in.parent[3] = 4;
  const GatherResult r = in.run();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.delivered_ids, (std::vector<std::vector<std::int64_t>>{
                                 {0, 1, 2}, {4, 3, 5}}));
}

// Parents that climb in a cycle never reach a leader.
TEST(TreeGather, RejectsParentsThatClimbInACycle) {
  PathTree in;
  in.parent[4] = 5;
  in.parent[5] = 4;
  EXPECT_THROW(in.run(), std::invalid_argument);
}

// Two clusters of a 12x12 grid, the top and bottom halves, with their
// elected leaders and BFS trees, and three tokens a vertex: its
// registration first.
struct TwoHalves {
  Graph g = graph::grid(12, 12);
  std::vector<int> cluster;
  LeaderElectionResult leaders;
  BfsTreeResult tree;
  std::vector<std::vector<GatherToken>> tokens;

  TwoHalves() {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      cluster.push_back(v < 72 ? 0 : 1);
    }
    leaders = elect_cluster_leaders(g, cluster);
    tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
    tokens.resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      tokens[v].push_back({v, {v, -1, 0, 0}});
      tokens[v].push_back({v, {v, 1}});
      tokens[v].push_back({v, {v, 2}});
    }
  }
  GatherResult run(const NetworkOptions& net) const {
    return tree_gather(g, cluster, leaders.leader_of, tree.parent, tokens,
                       net);
  }
};

// A climb reaches each ancestor once, so vertex v's list holds depth(v)
// records: one at each ancestor in turn, the last at the leader, each on
// the port back to the child the registration came from and in a later
// round than the one before. The leader gets every token of its cluster,
// and the result carries the walk gather's numbering and budget.
TEST(TreeGather, EachRegistrationRecordsItsClimb) {
  const TwoHalves in;
  NetworkOptions net;
  net.bandwidth_tokens = 2;
  const GatherResult r = in.run(net);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.bandwidth_tokens, 2);
  const int n = in.g.num_vertices();
  ASSERT_EQ(r.token_begin.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(r.first_arrivals.size(), static_cast<std::size_t>(n));
  std::vector<std::vector<std::int64_t>> ids_by_cluster(2);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(r.token_begin[v], 3 * v);
    for (std::int64_t id = r.token_begin[v]; id < r.token_begin[v + 1]; ++id) {
      ids_by_cluster[in.cluster[v]].push_back(id);
    }
    const std::vector<FirstArrival>& list = r.first_arrivals[v];
    ASSERT_EQ(list.size(), static_cast<std::size_t>(in.tree.depth[v]))
        << "vertex " << v;
    if (list.empty()) {
      EXPECT_EQ(in.leaders.leader_of[v], v);
      continue;
    }
    EXPECT_EQ(list.back().at, in.leaders.leader_of[v]);
    VertexId child = v;
    std::int32_t round = -1;
    for (const FirstArrival& a : list) {
      EXPECT_EQ(a.at, in.tree.parent[child]) << "vertex " << v;
      EXPECT_EQ(in.g.neighbors(a.at)[a.port], child) << "vertex " << v;
      EXPECT_GT(a.round, round) << "vertex " << v;
      child = a.at;
      round = a.round;
    }
  }
  ASSERT_EQ(r.delivered.size(), 2u);
  for (int c = 0; c < 2; ++c) {
    std::vector<std::int64_t> ids = r.delivered_ids[c];
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, ids_by_cluster[c]);
    ASSERT_EQ(r.delivered[c].size(), r.delivered_ids[c].size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::int64_t id = r.delivered_ids[c][i];
      const auto v = static_cast<VertexId>(id / 3);
      EXPECT_EQ(r.delivered[c][i], in.tokens[v][id % 3].payload);
    }
  }
}

// The return runs on a tree gather unchanged: every vertex gets its word
// back, in no more rounds than the climb took, the same at one and four
// threads.
TEST(TreeGather, ReturnAlongItsRecordsAtOneAndFourThreads) {
  const TwoHalves in;
  std::vector<std::int64_t> words(in.g.num_vertices());
  for (VertexId v = 0; v < in.g.num_vertices(); ++v) words[v] = 1000 + 3 * v;
  std::vector<PathReturnResult> backs;
  for (const int threads : {1, 4}) {
    NetworkOptions net;
    net.bandwidth_tokens = 2;
    net.num_threads = threads;
    net.sparse_serial_threshold = 0;
    const GatherResult gather = in.run(net);
    ASSERT_TRUE(gather.complete);
    const PathReturnResult back =
        return_along_paths(in.g, gather, words, net);
    for (VertexId v = 0; v < in.g.num_vertices(); ++v) {
      EXPECT_TRUE(back.arrived[v]) << "vertex " << v;
      EXPECT_EQ(back.word[v], words[v]) << "vertex " << v;
    }
    EXPECT_GT(back.stats.rounds, 0);
    EXPECT_LE(back.stats.rounds, gather.stats.rounds);
    EXPECT_LE(back.stats.max_edge_load, gather.stats.max_edge_load);
    backs.push_back(back);
  }
  EXPECT_EQ(backs[1].stats.rounds, backs[0].stats.rounds);
  EXPECT_EQ(backs[1].stats.messages_sent, backs[0].stats.messages_sent);
  EXPECT_EQ(backs[1].stats.words_sent, backs[0].stats.words_sent);
  EXPECT_EQ(backs[1].stats.max_edge_load, backs[0].stats.max_edge_load);
}

TEST(Convergecast, SumsValuesPerCluster) {
  Graph g = graph::grid(6, 6);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::int64_t> values(g.num_vertices());
  std::int64_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    values[v] = v * v + 1;
    expected += values[v];
  }
  const auto r =
      convergecast_sum(g, cluster, leaders.leader_of, tree.parent, values);
  ASSERT_EQ(r.sum.size(), 1u);
  EXPECT_EQ(r.sum[0], expected);
}

TEST(Convergecast, MultiClusterSums) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::int64_t> values{1, 2, 4, 8, 16, 32};
  const auto r =
      convergecast_sum(g, cluster, leaders.leader_of, tree.parent, values);
  ASSERT_EQ(r.sum.size(), 2u);
  EXPECT_EQ(r.sum[0], 7);
  EXPECT_EQ(r.sum[1], 56);
}

TEST(Gather, ReportsIncompleteOnRoundCap) {
  Rng rng(23);
  Graph g = graph::random_maximal_planar(60, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.max_rounds = 2;  // far too few: the run aborts mid-delivery
  EXPECT_THROW(
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt),
      std::runtime_error);
}

TEST(RoundLedger, SeparatesMeasuredFromModeled) {
  RoundLedger ledger;
  ledger.add_measured("gather", 10);
  ledger.add_modeled("decomposition", 100);
  ledger.add_measured("broadcast", 5);
  EXPECT_EQ(ledger.measured_total(), 15);
  EXPECT_EQ(ledger.modeled_total(), 100);
  EXPECT_EQ(ledger.total(), 115);
  RoundLedger other;
  other.add_measured("extra", 1);
  ledger.merge(other);
  EXPECT_EQ(ledger.measured_total(), 16);
  EXPECT_NE(ledger.to_string().find("[modeled]"), std::string::npos);
}

TEST(RoundLedger, AddMeasuredFromStatsRecordsTraffic) {
  RunStats stats;
  stats.rounds = 12;
  stats.messages_sent = 340;
  stats.words_sent = 900;
  stats.max_edge_load = 3;
  RoundLedger ledger;
  ledger.add_measured("walk gather", stats);
  EXPECT_EQ(ledger.measured_total(), 12);
  ASSERT_EQ(ledger.entries().size(), 1u);
  const auto& e = ledger.entries()[0];
  EXPECT_TRUE(e.measured);
  EXPECT_EQ(e.stats.rounds, 12);
  EXPECT_EQ(e.stats.messages_sent, 340);
  EXPECT_EQ(e.stats.words_sent, 900);
  EXPECT_EQ(e.stats.max_edge_load, 3);
}

TEST(RoundLedger, MergePreservesTrafficStats) {
  RunStats stats;
  stats.rounds = 4;
  stats.messages_sent = 10;
  stats.words_sent = 25;
  stats.max_edge_load = 2;
  RoundLedger other;
  other.add_measured("election", stats);
  other.add_modeled("decomposition", 50);
  RoundLedger ledger;
  ledger.add_measured("setup", 1);
  ledger.merge(other);
  EXPECT_EQ(ledger.measured_total(), 5);
  EXPECT_EQ(ledger.modeled_total(), 50);
  ASSERT_EQ(ledger.entries().size(), 3u);
  EXPECT_EQ(ledger.entries()[1].stats.messages_sent, 10);
  EXPECT_EQ(ledger.entries()[1].stats.words_sent, 25);
  EXPECT_EQ(ledger.entries()[1].stats.max_edge_load, 2);
}

TEST(RoundLedger, ToStringShowsTrafficOnlyWhenRecorded) {
  RunStats stats;
  stats.rounds = 2;
  stats.messages_sent = 7;
  stats.words_sent = 14;
  stats.max_edge_load = 1;
  RoundLedger ledger;
  ledger.add_measured("plain", 3);
  ledger.add_measured("traced", stats);
  const std::string text = ledger.to_string();
  EXPECT_NE(text.find("msgs=7 words=14 max-edge-load=1"), std::string::npos)
      << text;
  // The stats-free entry stays on the old compact format.
  const auto plain_pos = text.find("plain");
  const auto traced_pos = text.find("traced");
  ASSERT_NE(plain_pos, std::string::npos);
  ASSERT_NE(traced_pos, std::string::npos);
  EXPECT_EQ(text.substr(plain_pos, traced_pos - plain_pos).find("msgs="),
            std::string::npos);
}

TEST(RoundLedger, ModeledFormulaGrowsWithNAndShrinkingEps) {
  EXPECT_LT(modeled_decomposition_rounds(1000, 0.2, false),
            modeled_decomposition_rounds(100000, 0.2, false));
  EXPECT_LT(modeled_decomposition_rounds(1000, 0.2, false),
            modeled_decomposition_rounds(1000, 0.05, false));
  // Deterministic formula is subpolynomial but larger than polylog.
  EXPECT_GT(modeled_decomposition_rounds(100000, 0.2, true),
            modeled_decomposition_rounds(100000, 0.2, false));
}

// Integration: primitives run on decomposition clusters under strict
// CONGEST enforcement (bandwidth 1 token/edge/round for control traffic).
// The primitives run unchanged under parallel execution: leader election,
// BFS trees, and orientation at num_threads=4 must produce bit-identical
// outputs and RunStats to the serial path (the TSan CI job runs this test
// to prove the sharded round loop is race-free on real protocol traffic).
TEST(Integration, PrimitivesAreBitIdenticalUnderParallelExecution) {
  Rng rng(31);
  const Graph g = graph::random_maximal_planar(128, rng);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cluster[v] = v % 2;

  NetworkOptions parallel_net;
  parallel_net.num_threads = 4;

  const auto serial_leaders = elect_cluster_leaders(g, cluster);
  const auto par_leaders = elect_cluster_leaders(g, cluster, parallel_net);
  EXPECT_EQ(par_leaders.leader_of, serial_leaders.leader_of);
  EXPECT_EQ(par_leaders.stats.rounds, serial_leaders.stats.rounds);
  EXPECT_EQ(par_leaders.stats.messages_sent, serial_leaders.stats.messages_sent);
  EXPECT_EQ(par_leaders.stats.words_sent, serial_leaders.stats.words_sent);
  EXPECT_EQ(par_leaders.stats.max_edge_load, serial_leaders.stats.max_edge_load);

  const auto serial_tree =
      build_cluster_bfs_trees(g, cluster, serial_leaders.leader_of);
  const auto par_tree = build_cluster_bfs_trees(g, cluster,
                                                par_leaders.leader_of,
                                                parallel_net);
  EXPECT_EQ(par_tree.parent, serial_tree.parent);
  EXPECT_EQ(par_tree.depth, serial_tree.depth);
  EXPECT_EQ(par_tree.stats.messages_sent, serial_tree.stats.messages_sent);

  const auto serial_orient = orient_cluster_edges(g, cluster, 5);
  const auto par_orient = orient_cluster_edges(g, cluster, 5, parallel_net);
  EXPECT_EQ(par_orient.owned, serial_orient.owned);
  EXPECT_EQ(par_orient.max_out_degree, serial_orient.max_out_degree);
  EXPECT_EQ(par_orient.stats.messages_sent, serial_orient.stats.messages_sent);

  // The walk gather pins the schedule itself, not just its totals: same
  // delivered ids and payloads, same first-arrival records for every
  // registration. The sparse fast path is off so every round of the
  // 4-thread run is sharded.
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 3 * v}});
  }
  GatherOptions serial_gopt;
  serial_gopt.net.bandwidth_tokens = 3;
  GatherOptions par_gopt = serial_gopt;
  par_gopt.net.num_threads = 4;
  par_gopt.net.sparse_serial_threshold = 0;
  const auto serial_gather = random_walk_gather(
      g, cluster, serial_leaders.leader_of, tokens, serial_gopt);
  const auto par_gather = random_walk_gather(
      g, cluster, serial_leaders.leader_of, tokens, par_gopt);
  ASSERT_TRUE(serial_gather.complete);
  EXPECT_EQ(par_gather.delivered_ids, serial_gather.delivered_ids);
  EXPECT_EQ(par_gather.delivered, serial_gather.delivered);
  EXPECT_EQ(par_gather.token_begin, serial_gather.token_begin);
  EXPECT_EQ(par_gather.first_arrivals, serial_gather.first_arrivals);
  EXPECT_EQ(par_gather.stats.rounds, serial_gather.stats.rounds);
  EXPECT_EQ(par_gather.stats.messages_sent, serial_gather.stats.messages_sent);
  EXPECT_EQ(par_gather.stats.words_sent, serial_gather.stats.words_sent);
  EXPECT_EQ(par_gather.stats.max_edge_load, serial_gather.stats.max_edge_load);
}

TEST(Integration, PrimitivesOnDecomposedGrid) {
  Graph g = graph::grid(10, 10);
  const auto d = expander::expander_decompose(g, 0.25);
  const auto leaders = elect_cluster_leaders(g, d.cluster_of);
  const auto tree = build_cluster_bfs_trees(g, d.cluster_of, leaders.leader_of);
  const auto orient = orient_cluster_edges(g, d.cluster_of, 4);
  // Gather each owned edge to the leader: reconstruct every cluster's edges.
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  std::int64_t expected_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::EdgeId e : orient.owned[v]) {
      tokens[v].push_back({v, {g.edge(e).u, g.edge(e).v}});
      ++expected_edges;
    }
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 7;  // ceil(log2 n), the Lemma 2.4 batch size
  const auto r = random_walk_gather(g, d.cluster_of, leaders.leader_of,
                                    tokens, opt);
  ASSERT_TRUE(r.complete);
  std::int64_t received = 0;
  for (const auto& cluster_msgs : r.delivered) {
    received += static_cast<std::int64_t>(cluster_msgs.size());
    for (const auto& payload : cluster_msgs) {
      // Every delivered edge is intra-cluster.
      EXPECT_EQ(d.cluster_of[payload[0]], d.cluster_of[payload[1]]);
    }
  }
  EXPECT_EQ(received, expected_edges);
  EXPECT_GT(tree.stats.rounds, 0);
}

}  // namespace
}  // namespace ecd::congest
