#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/seq/planarity.h"
#include "src/seq/properties.h"
#include "tests/oracles/demoucron.h"
#include "tests/oracles/minor.h"

namespace ecd::seq {
namespace {

using graph::Graph;
using graph::Rng;

TEST(Planarity, SmallGraphsArePlanar) {
  EXPECT_TRUE(is_planar(graph::complete(4)));
  EXPECT_TRUE(is_planar(graph::path(2)));
  EXPECT_TRUE(is_planar(graph::cycle(3)));
}

TEST(Planarity, K5IsNotPlanar) { EXPECT_FALSE(is_planar(graph::complete(5))); }

TEST(Planarity, K33IsNotPlanar) {
  EXPECT_FALSE(is_planar(graph::complete_bipartite(3, 3)));
}

TEST(Planarity, K6IsNotPlanar) { EXPECT_FALSE(is_planar(graph::complete(6))); }

TEST(Planarity, PetersenIsNotPlanar) {
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 5; ++i) {
    edges.push_back({i, (i + 1) % 5});
    edges.push_back({5 + i, 5 + (i + 2) % 5});
    edges.push_back({i, 5 + i});
  }
  EXPECT_FALSE(is_planar(Graph::from_edges(10, std::move(edges))));
}

TEST(Planarity, SubdividedK5IsNotPlanar) {
  // Subdivide every edge of K5 once: still contains a K5 subdivision.
  Graph k5 = graph::complete(5);
  std::vector<graph::Edge> edges;
  int next = 5;
  for (const graph::Edge& e : k5.edges()) {
    edges.push_back({e.u, next});
    edges.push_back({e.v, next});
    ++next;
  }
  EXPECT_FALSE(is_planar(Graph::from_edges(next, std::move(edges))));
}

TEST(Planarity, GridsArePlanar) {
  EXPECT_TRUE(is_planar(graph::grid(7, 9)));
  EXPECT_TRUE(is_planar(graph::grid(1, 20)));
}

TEST(Planarity, TriangulationsArePlanar) {
  Rng rng(42);
  for (int n : {5, 20, 100, 500}) {
    EXPECT_TRUE(is_planar(graph::random_maximal_planar(n, rng))) << n;
  }
}

TEST(Planarity, TriangulationPlusAnyEdgeIsNotPlanar) {
  Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    Graph tri = graph::random_maximal_planar(30, rng);
    Graph g = graph::plus_random_edges(tri, 1, rng);
    EXPECT_FALSE(is_planar(g)) << "trial " << trial;
  }
}

TEST(Planarity, SubgraphsOfTriangulationsArePlanar) {
  Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_TRUE(is_planar(graph::random_planar(40, 60, rng)));
  }
}

TEST(Planarity, TwoTreesArePlanar) {
  Rng rng(45);
  EXPECT_TRUE(is_planar(graph::random_two_tree(100, rng)));
}

TEST(Planarity, DisjointUnionOfPlanarIsPlanar) {
  Rng rng(46);
  EXPECT_TRUE(is_planar(graph::disjoint_union(
      {graph::grid(4, 4), graph::random_maximal_planar(20, rng)})));
}

TEST(Planarity, DisjointUnionWithK5IsNotPlanar) {
  EXPECT_FALSE(
      is_planar(graph::disjoint_union({graph::grid(4, 4), graph::complete(5)})));
}

TEST(Planarity, DeepPathDoesNotOverflowStack) {
  EXPECT_TRUE(is_planar(graph::path(200000)));
}

TEST(Planarity, LargeTriangulation) {
  Rng rng(47);
  EXPECT_TRUE(is_planar(graph::random_maximal_planar(20000, rng)));
}

TEST(Planarity, EulerBound) {
  EXPECT_TRUE(satisfies_euler_bound(graph::grid(5, 5)));
  EXPECT_FALSE(satisfies_euler_bound(graph::complete(6)));
}

// Cross-validation against the branch-set minor oracle on small random
// graphs: the two independent implementations must agree.
TEST(Planarity, AgreesWithMinorOracleOnRandomGraphs) {
  Rng rng(48);
  int checked = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 6);  // 5..10
    Graph g = graph::erdos_renyi(n, 0.45, rng);
    const auto oracle = is_planar_by_minors(g);
    if (!oracle.has_value()) continue;  // budget exhausted: skip
    ++checked;
    EXPECT_EQ(is_planar(g), *oracle) << "trial " << trial << " n=" << n;
  }
  EXPECT_GE(checked, 40);
}

TEST(Demoucron, AgreesWithLeftRightOnNamedGraphs) {
  EXPECT_TRUE(is_planar_demoucron(graph::grid(6, 9)));
  EXPECT_TRUE(is_planar_demoucron(graph::complete(4)));
  EXPECT_FALSE(is_planar_demoucron(graph::complete(5)));
  EXPECT_FALSE(is_planar_demoucron(graph::complete_bipartite(3, 3)));
  EXPECT_FALSE(is_planar_demoucron(graph::complete(6)));
  Rng rng(97);
  EXPECT_TRUE(is_planar_demoucron(graph::random_maximal_planar(150, rng)));
  EXPECT_TRUE(is_planar_demoucron(graph::random_two_tree(100, rng)));
  EXPECT_TRUE(is_planar_demoucron(graph::random_tree(80, rng)));
}

TEST(Demoucron, TriangulationPlusEdgeRejected) {
  Rng rng(98);
  for (int trial = 0; trial < 5; ++trial) {
    Graph tri = graph::random_maximal_planar(40, rng);
    EXPECT_FALSE(is_planar_demoucron(graph::plus_random_edges(tri, 1, rng)))
        << trial;
  }
}

// Large-scale cross-validation of the two independent planarity testers on
// random near-threshold instances (the regime where both planar and
// non-planar graphs are common).
TEST(Demoucron, CrossValidatesLeftRightAtScale) {
  Rng rng(99);
  int planar_seen = 0, nonplanar_seen = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = 8 + static_cast<int>(rng() % 20);  // 8..27
    const int m = std::min(3 * n - 6 + 2,
                           n + static_cast<int>(rng() % (2 * n)));
    graph::GraphBuilder b(n);
    std::uniform_int_distribution<graph::VertexId> pick(0, n - 1);
    int added = 0;
    long guard = 0;
    while (added < m && guard++ < 100L * m) {
      added += b.add_edge(pick(rng), pick(rng));
    }
    const Graph g = std::move(b).build();
    const bool lr = is_planar(g);
    const bool dm = is_planar_demoucron(g);
    ASSERT_EQ(lr, dm) << "trial " << trial << " n=" << n
                      << " m=" << g.num_edges();
    planar_seen += lr;
    nonplanar_seen += !lr;
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(planar_seen, 10);
  EXPECT_GT(nonplanar_seen, 10);
}

TEST(Demoucron, CrossValidatesOnPlanarSubgraphSweep) {
  Rng rng(100);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 20 + static_cast<int>(rng() % 30);
    const int m = static_cast<int>(rng() % (3 * n - 6));
    const Graph g = graph::random_planar(n, m, rng);
    ASSERT_TRUE(is_planar_demoucron(g)) << trial;
    ASSERT_TRUE(is_planar(g)) << trial;
  }
}

TEST(Minor, K5MinorOfK6) {
  EXPECT_EQ(has_minor(graph::complete(6), graph::complete(5)),
            std::optional<bool>(true));
}

TEST(Minor, PetersenContainsK5Minor) {
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 5; ++i) {
    edges.push_back({i, (i + 1) % 5});
    edges.push_back({5 + i, 5 + (i + 2) % 5});
    edges.push_back({i, 5 + i});
  }
  Graph petersen = Graph::from_edges(10, std::move(edges));
  EXPECT_EQ(has_minor(petersen, graph::complete(5)),
            std::optional<bool>(true));
}

TEST(Minor, GridHasNoK5Minor) {
  // 3x3: disproving K5 on larger grids exhausts the search budget.
  EXPECT_EQ(has_minor(graph::grid(3, 3), graph::complete(5)),
            std::optional<bool>(false));
}

TEST(Minor, CycleContainsTriangleMinor) {
  EXPECT_EQ(has_minor(graph::cycle(9), graph::complete(3)),
            std::optional<bool>(true));
}

TEST(Minor, TreeHasNoCycleMinor) {
  Rng rng(50);
  EXPECT_EQ(has_minor(graph::random_tree(12, rng), graph::complete(3)),
            std::optional<bool>(false));
}

TEST(Properties, ForestRecognizer) {
  Rng rng(51);
  EXPECT_TRUE(is_forest(graph::random_tree(30, rng)));
  EXPECT_TRUE(is_forest(
      graph::disjoint_union({graph::path(4), graph::random_tree(10, rng)})));
  EXPECT_FALSE(is_forest(graph::cycle(4)));
}

TEST(Properties, Treewidth2Recognizer) {
  Rng rng(52);
  EXPECT_TRUE(has_treewidth_at_most_2(graph::random_two_tree(40, rng)));
  EXPECT_TRUE(has_treewidth_at_most_2(graph::cycle(9)));
  EXPECT_TRUE(has_treewidth_at_most_2(graph::random_tree(20, rng)));
  EXPECT_FALSE(has_treewidth_at_most_2(graph::complete(4)));
  EXPECT_FALSE(has_treewidth_at_most_2(graph::grid(3, 3)));
}

TEST(Properties, OuterplanarRecognizer) {
  Rng rng(53);
  EXPECT_TRUE(is_outerplanar(graph::random_outerplanar(30, rng)));
  EXPECT_TRUE(is_outerplanar(graph::cycle(8)));
  EXPECT_FALSE(is_outerplanar(graph::complete(4)));
  EXPECT_FALSE(is_outerplanar(graph::complete_bipartite(2, 3)));
  EXPECT_FALSE(is_outerplanar(graph::grid(3, 3)));
}

TEST(Properties, OuterplanarAgreesWithMinorOracle) {
  Rng rng(54);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 4);
    Graph g = graph::erdos_renyi(n, 0.35, rng);
    const auto oracle = is_outerplanar_by_minors(g);
    if (!oracle.has_value()) continue;
    ++checked;
    EXPECT_EQ(is_outerplanar(g), *oracle) << "trial " << trial;
  }
  EXPECT_GE(checked, 30);
}

TEST(Properties, CliqueThresholds) {
  EXPECT_EQ(forest_property().clique_threshold, 3);
  EXPECT_EQ(outerplanar_property().clique_threshold, 4);
  EXPECT_EQ(treewidth2_property().clique_threshold, 4);
  EXPECT_EQ(planar_property().clique_threshold, 5);
  // The thresholds are correct: K_{s-1} has the property, K_s does not.
  for (const auto& prop :
       {forest_property(), outerplanar_property(), treewidth2_property(),
        planar_property()}) {
    EXPECT_TRUE(prop.check(graph::complete(prop.clique_threshold - 1)))
        << prop.name;
    EXPECT_FALSE(prop.check(graph::complete(prop.clique_threshold)))
        << prop.name;
  }
}

}  // namespace
}  // namespace ecd::seq
