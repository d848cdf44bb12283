// Cross-module consistency: independently implemented components must
// agree with one another on the same instances.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "src/congest/primitives.h"
#include "src/expander/conductance.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/seq/planarity.h"
#include "src/seq/properties.h"
#include "tests/oracles/random_walk.h"

namespace ecd {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// Every graph our "planar" generators emit must pass the left-right test —
// two completely independent code paths.
TEST(CrossModule, PlanarGeneratorsProducePlanarGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    EXPECT_TRUE(seq::is_planar(graph::random_maximal_planar(60, rng)));
    EXPECT_TRUE(seq::is_planar(graph::random_planar(60, 100, rng)));
    EXPECT_TRUE(seq::is_planar(graph::random_outerplanar(40, rng)));
    EXPECT_TRUE(seq::is_planar(graph::random_two_tree(50, rng)));
    EXPECT_TRUE(seq::is_planar(graph::random_tree(70, rng)));
    EXPECT_TRUE(seq::is_planar(graph::star_pathology(6, 5, rng)));
  }
  EXPECT_TRUE(seq::is_planar(graph::grid(9, 13)));
  EXPECT_TRUE(seq::is_planar(graph::barbell(4, 2)));
}

// Outerplanar/2-tree generators must satisfy their own recognizers.
TEST(CrossModule, StructuredGeneratorsSatisfyRecognizers) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_TRUE(seq::is_outerplanar(graph::random_outerplanar(40, rng)));
    EXPECT_TRUE(seq::has_treewidth_at_most_2(graph::random_two_tree(50, rng)));
    EXPECT_TRUE(seq::is_forest(graph::random_tree(50, rng)));
  }
}

// Torus grids (bounded genus, the paper's third named class) are NOT
// planar but have density <= 2 and must flow through the recognizers
// consistently.
TEST(CrossModule, TorusGridIsNonPlanarButSparse) {
  Graph g = graph::torus_grid(5, 5);
  EXPECT_FALSE(seq::is_planar(g));
  EXPECT_LE(g.edge_density(), 2.0 + 1e-9);
}

// Mixing time vs conductance: the two-sided relation of §2,
// Θ(1/Φ) <= τ_mix <= Θ(log n / Φ²), with generous constants.
TEST(CrossModule, MixingTimeWithinCheegerWindow) {
  Rng rng(3);
  struct Case {
    Graph g;
    const char* name;
  };
  const Case cases[] = {
      {graph::cycle(16), "cycle16"},
      {graph::complete(12), "K12"},
      {graph::grid(4, 4), "grid4x4"},
      {graph::barbell(6, 0), "barbell6"},
  };
  for (const auto& c : cases) {
    const double phi = expander::exact_conductance(c.g);
    ASSERT_GT(phi, 0.0) << c.name;
    const std::optional<int> tau = expander::mixing_time_estimate(c.g, 200000);
    ASSERT_TRUE(tau.has_value()) << c.name;
    const double n = c.g.num_vertices();
    EXPECT_GE(*tau, 0.2 / phi - 2.0) << c.name;
    EXPECT_LE(*tau, 60.0 * std::log(n) / (phi * phi)) << c.name;
  }
}

// Simulator determinism: identical seeds => identical statistics, token
// deliveries, and first-arrival records.
TEST(CrossModule, GatherIsDeterministicGivenSeed) {
  Rng rng(4);
  Graph g = graph::random_maximal_planar(50, rng);
  const std::vector<int> cluster(g.num_vertices(), 0);
  const auto leaders = congest::elect_cluster_leaders(g, cluster);
  std::vector<std::vector<congest::GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  congest::GatherOptions opt;
  opt.seed = 99;
  opt.net.bandwidth_tokens = 3;
  const auto r1 = congest::random_walk_gather(g, cluster, leaders.leader_of,
                                              tokens, opt);
  const auto r2 = congest::random_walk_gather(g, cluster, leaders.leader_of,
                                              tokens, opt);
  EXPECT_EQ(r1.stats.rounds, r2.stats.rounds);
  EXPECT_EQ(r1.stats.messages_sent, r2.stats.messages_sent);
  EXPECT_EQ(r1.delivered_ids, r2.delivered_ids);
  EXPECT_EQ(r1.first_arrivals, r2.first_arrivals);
}

// The walk gather's first-arrival records must trace *consistent walks*
// back: each record's port leads to the origin or to an earlier record of a
// smaller round, every vertex is recorded at most once and never at its
// origin, and each list ends at the origin's leader.
TEST(CrossModule, GatherTracesAreValidWalks) {
  Rng rng(5);
  Graph g = graph::random_maximal_planar(60, rng);
  const std::vector<int> cluster(g.num_vertices(), 0);
  const auto leaders = congest::elect_cluster_leaders(g, cluster);
  std::vector<std::vector<congest::GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  congest::GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto r = congest::random_walk_gather(g, cluster, leaders.leader_of,
                                             tokens, opt);
  ASSERT_TRUE(r.complete);
  for (VertexId origin = 0; origin < g.num_vertices(); ++origin) {
    const std::vector<congest::FirstArrival>& list = r.first_arrivals[origin];
    std::vector<int> round_of(g.num_vertices(), -1);
    for (const congest::FirstArrival& a : list) {
      ASSERT_GE(a.port, 0);
      ASSERT_LT(a.port, g.degree(a.at));
      EXPECT_NE(a.at, origin);
      EXPECT_EQ(round_of[a.at], -1) << "vertex " << a.at << " twice";
      const VertexId from = g.neighbors(a.at)[a.port];
      EXPECT_TRUE(from == origin ||
                  (round_of[from] >= 0 && round_of[from] < a.round))
          << "origin " << origin << " at " << a.at;
      round_of[a.at] = a.round;
    }
    const VertexId last = list.empty() ? origin : list.back().at;
    EXPECT_EQ(last, leaders.leader_of[origin]);
  }
}

// Degeneracy orientation (host) and Barenboim–Elkin peeling (distributed)
// must both bound out-degree by the degeneracy-derived threshold.
TEST(CrossModule, OrientationsAgreeOnOutDegreeBound) {
  Rng rng(6);
  Graph g = graph::random_maximal_planar(150, rng);
  const int degen = graph::degeneracy(g).degeneracy;
  const auto host = graph::degeneracy_orientation(g);
  int host_max = 0;
  for (const auto& owned : host) {
    host_max = std::max(host_max, static_cast<int>(owned.size()));
  }
  EXPECT_LE(host_max, degen);
  const auto dist = congest::orient_cluster_edges(
      g, std::vector<int>(g.num_vertices(), 0), degen);
  EXPECT_LE(dist.max_out_degree, degen);
}

}  // namespace
}  // namespace ecd
