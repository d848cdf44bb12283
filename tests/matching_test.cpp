#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/seq/matching.h"
#include "src/seq/mwm.h"
#include "tests/oracles/bruteforce.h"

namespace ecd::seq {
namespace {

using graph::Graph;
using graph::Rng;

TEST(Mcm, PathAndCycle) {
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::path(5))), 2);
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::path(6))), 3);
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::cycle(5))), 2);
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::cycle(6))), 3);
}

TEST(Mcm, PerfectOnCompleteEven) {
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::complete(8))), 4);
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::complete(9))), 4);
}

TEST(Mcm, StarMatchesOnce) {
  EXPECT_EQ(matching_size(max_cardinality_matching(graph::star(7))), 1);
}

TEST(Mcm, PetersenHasPerfectMatching) {
  // Petersen graph: outer C5, inner pentagram, spokes.
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 5; ++i) {
    edges.push_back({i, (i + 1) % 5});                // outer cycle
    edges.push_back({5 + i, 5 + (i + 2) % 5});        // pentagram
    edges.push_back({i, 5 + i});                      // spokes
  }
  Graph petersen = Graph::from_edges(10, std::move(edges));
  EXPECT_EQ(matching_size(max_cardinality_matching(petersen)), 5);
}

// Blossom-forcing example: two triangles joined by a path.
TEST(Mcm, HandlesBlossoms) {
  Graph g = Graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 4},
          {6, 7}});
  const auto m = max_cardinality_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(matching_size(m), 4);
}

TEST(Mcm, AgreesWithBruteForceOnRandomGraphs) {
  Rng rng(101);
  for (int trial = 0; trial < 120; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 7);  // 4..10
    Graph g = graph::erdos_renyi(n, 0.4, rng);
    if (g.num_edges() > 24) continue;
    const auto fast = max_cardinality_matching(g);
    const auto slow = max_cardinality_matching_bruteforce(g);
    EXPECT_TRUE(is_valid_matching(g, fast));
    EXPECT_EQ(matching_size(fast), matching_size(slow)) << "trial " << trial;
  }
}

TEST(Mcm, AgreesWithBruteForceOnSparsePlanar) {
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    Graph g = graph::random_planar(9, 12, rng);
    const auto fast = max_cardinality_matching(g);
    const auto slow = max_cardinality_matching_bruteforce(g);
    EXPECT_TRUE(is_valid_matching(g, fast));
    EXPECT_EQ(matching_size(fast), matching_size(slow)) << "trial " << trial;
  }
}

TEST(Mcm, GreedyIsMaximalAndHalfApprox) {
  Rng rng(303);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = graph::erdos_renyi(12, 0.3, rng);
    const auto greedy = greedy_maximal_matching(g);
    EXPECT_TRUE(is_valid_matching(g, greedy));
    const auto opt = max_cardinality_matching(g);
    EXPECT_GE(2 * matching_size(greedy), matching_size(opt));
    // Maximality: no edge with both endpoints free.
    for (const graph::Edge& e : g.edges()) {
      EXPECT_FALSE(greedy[e.u] == graph::kInvalidVertex &&
                   greedy[e.v] == graph::kInvalidVertex);
    }
  }
}

TEST(Mwm, SingleEdgeChoosesHeavier) {
  Graph g = graph::path(3).with_weights({2, 5});
  const auto m = max_weight_matching(g);
  EXPECT_EQ(matching_weight(g, m), 5);
}

TEST(Mwm, PrefersLightPairOverHeavyMiddle) {
  // Path a-b-c-d with weights 3, 4, 3: taking both end edges (6) beats the
  // middle edge (4).
  Graph g = graph::path(4).with_weights({3, 4, 3});
  const auto m = max_weight_matching(g);
  EXPECT_EQ(matching_weight(g, m), 6);
}

TEST(Mwm, MayLeaveVerticesUnmatched) {
  // Triangle with one heavy edge: optimal takes just the heavy edge.
  Graph g = graph::cycle(3).with_weights({10, 1, 1});
  const auto m = max_weight_matching(g);
  EXPECT_EQ(matching_weight(g, m), 10);
  EXPECT_EQ(matching_size(m), 1);
}

TEST(Mwm, UnweightedReducesToMcm) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    Graph g = graph::erdos_renyi(9, 0.35, rng);
    EXPECT_EQ(matching_size(max_weight_matching(g)),
              matching_size(max_cardinality_matching(g)))
        << "trial " << trial;
  }
}

TEST(Mwm, AgreesWithBruteForceOnRandomWeightedGraphs) {
  Rng rng(505);
  for (int trial = 0; trial < 150; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 6);  // 4..9
    Graph g0 = graph::erdos_renyi(n, 0.45, rng);
    if (g0.num_edges() == 0 || g0.num_edges() > 22) continue;
    Graph g = g0.with_weights(
        graph::random_weights(g0, 1 + static_cast<int>(rng() % 50), rng));
    const auto fast = max_weight_matching(g);
    const auto slow = max_weight_matching_bruteforce(g);
    EXPECT_TRUE(is_valid_matching(g, fast));
    EXPECT_EQ(matching_weight(g, fast), matching_weight(g, slow))
        << "trial " << trial << " n=" << n << " m=" << g.num_edges();
  }
}

TEST(Mwm, AgreesWithBruteForceOnBlossomRichGraphs) {
  Rng rng(606);
  for (int trial = 0; trial < 80; ++trial) {
    // Odd cycles force blossoms; chords and pendants stress expansion.
    Graph base = graph::cycle(5 + 2 * static_cast<int>(rng() % 2));
    Graph g0 = graph::plus_random_edges(base, 3, rng);
    Graph g = g0.with_weights(graph::random_weights(g0, 20, rng));
    const auto fast = max_weight_matching(g);
    const auto slow = max_weight_matching_bruteforce(g);
    EXPECT_EQ(matching_weight(g, fast), matching_weight(g, slow))
        << "trial " << trial;
  }
}

TEST(Mwm, LargePlanarInstanceBeatsGreedy) {
  Rng rng(707);
  Graph g0 = graph::random_planar(120, 240, rng);
  Graph g = g0.with_weights(graph::random_weights(g0, 1000, rng));
  const auto exact = max_weight_matching(g);
  const auto greedy = greedy_weight_matching(g);
  EXPECT_TRUE(is_valid_matching(g, exact));
  EXPECT_GE(matching_weight(g, exact), matching_weight(g, greedy));
  // Greedy is a 1/2-approximation.
  EXPECT_LE(matching_weight(g, exact), 2 * matching_weight(g, greedy));
}

TEST(Mwm, GreedyWeightIsHalfApprox) {
  Rng rng(808);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g0 = graph::erdos_renyi(10, 0.4, rng);
    if (g0.num_edges() == 0) continue;
    Graph g = g0.with_weights(graph::random_weights(g0, 30, rng));
    const auto greedy = greedy_weight_matching(g);
    const auto opt = max_weight_matching(g);
    EXPECT_GE(2 * matching_weight(g, greedy), matching_weight(g, opt));
  }
}

TEST(Mwm, AssignmentOptimumOnCompleteBipartite) {
  // K_{6,6} with random weights: the optimum is computable by enumerating
  // all 6! = 720 perfect assignments (plus partial ones never beat the best
  // perfect one here because all weights are positive and n is even).
  Rng rng(909);
  for (int trial = 0; trial < 10; ++trial) {
    Graph base = graph::complete_bipartite(6, 6);
    Graph g = base.with_weights(graph::random_weights(base, 100, rng));
    // Weight lookup.
    auto w = [&](int left, int right) {
      return g.weight(g.find_edge(left, 6 + right));
    };
    std::vector<int> perm{0, 1, 2, 3, 4, 5};
    std::int64_t best = 0;
    do {
      std::int64_t total = 0;
      for (int i = 0; i < 6; ++i) total += w(i, perm[i]);
      best = std::max(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    const auto blossom = max_weight_matching(g);
    EXPECT_EQ(matching_weight(g, blossom), best) << "trial " << trial;
  }
}

TEST(Mwm, EvenCycleAlternatingWeights) {
  // C_{2k} with weights alternating (10, 1): optimum picks all the 10s.
  const int k = 7;
  Graph base = graph::cycle(2 * k);
  std::vector<graph::Weight> weights(base.num_edges());
  // cycle() lays out edges 0-1, 1-2, ..., plus the closing edge {0, 2k-1}.
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e) {
    const graph::Edge ed = base.edge(e);
    const bool is_closing = (ed.u == 0 && ed.v == 2 * k - 1);
    const int pos = is_closing ? 2 * k - 1 : ed.u;
    weights[e] = (pos % 2 == 0) ? 10 : 1;
  }
  Graph g = base.with_weights(std::move(weights));
  const auto m = max_weight_matching(g);
  EXPECT_EQ(matching_weight(g, m), 10 * k);
}

TEST(Mwm, OddCliqueLeavesExactlyOneUnmatched) {
  Rng rng(910);
  Graph base = graph::complete(9);
  Graph g = base.with_weights(
      std::vector<graph::Weight>(base.num_edges(), 5));
  const auto m = max_weight_matching(g);
  EXPECT_EQ(matching_size(m), 4);
  EXPECT_EQ(matching_weight(g, m), 20);
}

TEST(MatchingEdges, ReturnsEachPairOnce) {
  Graph g = graph::path(4);
  const auto m = max_cardinality_matching(g);
  EXPECT_EQ(matching_edges(g, m).size(), 2u);
}

}  // namespace
}  // namespace ecd::seq
