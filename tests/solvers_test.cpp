// Dedicated tests for the sequential solver substrates (src/seq) that the
// application suites exercise only indirectly: exact MIS, correlation
// clustering, separators, and LDD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>

#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/correlation.h"
#include "src/seq/ldd.h"
#include "src/seq/mis.h"
#include "src/seq/separator.h"
#include "tests/oracles/bruteforce.h"

namespace ecd::seq {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// ---------------- Exact MIS -----------------------------------------------------

TEST(ExactMis, KnownValues) {
  ASSERT_TRUE(max_independent_set_exact(graph::path(5)).has_value());
  EXPECT_EQ(max_independent_set_exact(graph::path(5))->size(), 3u);
  EXPECT_EQ(max_independent_set_exact(graph::cycle(7))->size(), 3u);
  EXPECT_EQ(max_independent_set_exact(graph::complete(6))->size(), 1u);
  EXPECT_EQ(max_independent_set_exact(graph::star(9))->size(), 9u);
  EXPECT_EQ(max_independent_set_exact(graph::complete_bipartite(3, 5))->size(),
            5u);
  EXPECT_EQ(max_independent_set_exact(graph::grid(4, 4))->size(), 8u);
}

TEST(ExactMis, MatchesBruteForceOnRandomGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 10);  // 5..14
    const Graph g = graph::erdos_renyi(n, 0.3, rng);
    const auto fast = max_independent_set_exact(g);
    ASSERT_TRUE(fast.has_value());
    const auto slow = max_independent_set_bruteforce(g);
    EXPECT_TRUE(is_independent_set(g, *fast));
    EXPECT_EQ(fast->size(), slow.size()) << "trial " << trial;
  }
}

TEST(ExactMis, MatchesBruteForceOnPlanar) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::random_planar(12, 20, rng);
    const auto fast = max_independent_set_exact(g);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->size(), max_independent_set_bruteforce(g).size());
  }
}

TEST(ExactMis, BudgetExhaustionReturnsNullopt) {
  Rng rng(3);
  const Graph g = graph::random_regular(40, 8, rng);
  EXPECT_FALSE(max_independent_set_exact(g, 5).has_value());
}

// The pre-bitset branch and bound, kept verbatim as the oracle for the search
// order (DESIGN.md §20): std::vector<bool> state, a full 0..n-1 scan per
// reduction pass and per pivot, and a log vector per frame. The only addition
// is nodes_used(), the number of search nodes a finished run took.
class ReferenceMisSearch {
 public:
  ReferenceMisSearch(const Graph& g, std::int64_t node_budget)
      : g_(g), budget_(node_budget), initial_budget_(node_budget),
        alive_(g.num_vertices(), true), degree_(g.num_vertices()) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) degree_[v] = g.degree(v);
    alive_count_ = g.num_vertices();
  }

  std::optional<std::vector<VertexId>> run() {
    best_.clear();
    current_.clear();
    ok_ = true;
    recurse();
    if (!ok_) return std::nullopt;
    return best_;
  }

  std::int64_t nodes_used() const { return initial_budget_ - budget_; }

 private:
  void remove_vertex(VertexId v, std::vector<VertexId>& log) {
    alive_[v] = false;
    --alive_count_;
    log.push_back(v);
    for (VertexId u : g_.neighbors(v)) {
      if (alive_[u]) --degree_[u];
    }
  }

  void restore(const std::vector<VertexId>& log) {
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      const VertexId v = *it;
      alive_[v] = true;
      ++alive_count_;
      for (VertexId u : g_.neighbors(v)) {
        if (alive_[u]) ++degree_[u];
      }
    }
  }

  void take_vertex(VertexId v, std::vector<VertexId>& log) {
    current_.push_back(v);
    remove_vertex(v, log);
    for (VertexId u : g_.neighbors(v)) {
      if (alive_[u]) remove_vertex(u, log);
    }
  }

  void recurse() {
    if (!ok_) return;
    if (--budget_ < 0) {
      ok_ = false;
      return;
    }
    // Trivial upper bound: everything still alive joins the set.
    if (current_.size() + alive_count_ <= best_.size()) return;

    // Reductions: degree-0 and degree-1 vertices can always be taken.
    std::vector<VertexId> log;
    std::size_t taken_marker = current_.size();
    bool reduced = true;
    while (reduced) {
      reduced = false;
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        if (alive_[v] && degree_[v] <= 1) {
          take_vertex(v, log);
          reduced = true;
        }
      }
    }
    if (alive_count_ == 0) {
      if (current_.size() > best_.size()) best_ = current_;
    } else if (current_.size() + alive_count_ > best_.size()) {
      // Branch on a maximum-residual-degree vertex.
      VertexId pivot = graph::kInvalidVertex;
      int pivot_deg = -1;
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        if (alive_[v] && degree_[v] > pivot_deg) {
          pivot_deg = degree_[v];
          pivot = v;
        }
      }
      {
        std::vector<VertexId> branch_log;
        take_vertex(pivot, branch_log);
        recurse();
        restore(branch_log);
        current_.resize(current_.size() - 1);
      }
      {
        std::vector<VertexId> branch_log;
        remove_vertex(pivot, branch_log);
        recurse();
        restore(branch_log);
      }
    } else if (current_.size() > best_.size()) {
      best_ = current_;
    }
    restore(log);
    current_.resize(taken_marker);
  }

  const Graph& g_;
  std::int64_t budget_;
  const std::int64_t initial_budget_;
  std::vector<bool> alive_;
  std::vector<int> degree_;
  int alive_count_ = 0;
  std::vector<VertexId> current_;
  std::vector<VertexId> best_;
  bool ok_ = true;
};

// Pins the search node for node: with N = the reference's node count, the
// solver must return the reference's vector, order included, at budget N and
// run out at N - 1.
void ExpectSameSearchAsReference(const Graph& g, const std::string& label) {
  ReferenceMisSearch reference(g, 4'000'000);
  const auto expected = reference.run();
  ASSERT_TRUE(expected.has_value()) << label;
  const std::int64_t nodes = reference.nodes_used();
  const auto got = max_independent_set_exact(g, nodes);
  ASSERT_TRUE(got.has_value()) << label << ": " << nodes << " nodes";
  EXPECT_EQ(*got, *expected) << label;
  EXPECT_FALSE(max_independent_set_exact(g, nodes - 1).has_value())
      << label << ": " << nodes << " nodes";
}

TEST(ExactMis, SameSearchAsReferenceAtBitsetWordEdges) {
  Rng rng(15);
  ExpectSameSearchAsReference(Graph::from_edges(0, {}), "n=0");
  for (const int n : {1, 2, 63, 64, 65, 127, 128, 129}) {
    const std::string at = " n=" + std::to_string(n);
    ExpectSameSearchAsReference(
        graph::erdos_renyi(n, n > 2 ? 3.0 / n : 0.5, rng), "erdos_renyi" + at);
    ExpectSameSearchAsReference(graph::random_tree(n, rng), "tree" + at);
    if (n < 3) continue;
    ExpectSameSearchAsReference(graph::random_outerplanar(n, rng),
                                "outerplanar" + at);
    ExpectSameSearchAsReference(graph::random_planar(n, 2 * n, rng),
                                "random_planar" + at);
    if (n <= 65) {
      ExpectSameSearchAsReference(graph::random_maximal_planar(n, rng),
                                  "triangulation" + at);
    }
  }
}

TEST(ExactMis, SameSearchAsReferenceOnFamilies) {
  Rng rng(16);
  for (int n = 40; n <= 157; n += 9) {
    ExpectSameSearchAsReference(graph::random_maximal_planar(n, rng),
                                "triangulation n=" + std::to_string(n));
  }
  for (int trial = 0; trial < 4; ++trial) {
    ExpectSameSearchAsReference(graph::random_planar(120, 240, rng),
                                "random_planar 120");
    ExpectSameSearchAsReference(graph::random_tree(200, rng), "tree 200");
    ExpectSameSearchAsReference(graph::random_outerplanar(100, rng),
                                "outerplanar 100");
    ExpectSameSearchAsReference(graph::erdos_renyi(60, 0.08, rng),
                                "erdos_renyi 60");
  }
  for (const int side : {5, 8, 12}) {
    ExpectSameSearchAsReference(graph::grid(side, side),
                                "grid " + std::to_string(side));
  }
  ExpectSameSearchAsReference(graph::star(100), "star 100");
  ExpectSameSearchAsReference(graph::complete(30), "complete 30");
  ExpectSameSearchAsReference(graph::complete_bipartite(20, 30),
                              "complete_bipartite 20 30");
}

// The perfbench mis-tri shape: a 500-vertex triangulation that exhausts a
// 400k-node budget under both searches.
TEST(ExactMis, ExhaustsLikeReferenceOnLargeTriangulation) {
  Rng rng(1);
  const Graph g = graph::random_maximal_planar(500, rng);
  ReferenceMisSearch reference(g, 400'000);
  EXPECT_FALSE(reference.run().has_value());
  EXPECT_FALSE(max_independent_set_exact(g, 400'000).has_value());
}

// The quadratic loop greedy_mis_min_degree replaced, kept as its oracle:
// each pick scans every vertex for the least degree, the lowest id on ties.
std::vector<VertexId> reference_greedy_mis_min_degree(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<bool> alive(n, true);
  std::vector<int> degree(n);
  for (VertexId v = 0; v < n; ++v) degree[v] = g.degree(v);
  std::vector<VertexId> result;
  int remaining = n;
  while (remaining > 0) {
    VertexId pick = graph::kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v] && (pick == graph::kInvalidVertex ||
                       degree[v] < degree[pick])) {
        pick = v;
      }
    }
    result.push_back(pick);
    auto kill = [&](VertexId v) {
      alive[v] = false;
      --remaining;
      for (VertexId u : g.neighbors(v)) {
        if (alive[u]) --degree[u];
      }
    };
    kill(pick);
    for (VertexId u : g.neighbors(pick)) {
      if (alive[u]) kill(u);
    }
  }
  return result;
}

// Grids, cycles and regular graphs tie on every degree at the start; trees,
// triangulations and sparse Erdős–Rényi graphs tie on many. The picks must
// come in the same order.
TEST(GreedyMis, SamePicksAsTheScanningLoop) {
  Rng rng(12);
  std::vector<Graph> inputs = {
      Graph::from_edges(0, {}), Graph::from_edges(5, {}), graph::grid(1, 9),
      graph::grid(17, 23), graph::cycle(40), graph::complete(6),
      graph::hypercube(6)};
  for (int trial = 0; trial < 3; ++trial) {
    inputs.push_back(graph::random_tree(300, rng));
    inputs.push_back(graph::random_maximal_planar(400, rng));
    inputs.push_back(graph::random_regular(200, 4, rng));
    inputs.push_back(graph::erdos_renyi(300, 0.01, rng));
    inputs.push_back(graph::erdos_renyi(150, 0.05, rng));
  }
  inputs.push_back(graph::disjoint_union(
      {graph::grid(6, 6), graph::random_tree(50, rng), graph::path(1)}));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(greedy_mis_min_degree(inputs[i]),
              reference_greedy_mis_min_degree(inputs[i]))
        << "input " << i;
  }
}

TEST(GreedyMis, MeetsDensityLowerBound) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_maximal_planar(200, rng);  // density < 3
    const auto greedy = greedy_mis_min_degree(g);
    EXPECT_TRUE(is_independent_set(g, greedy));
    EXPECT_GE(greedy.size() * 7u, static_cast<std::size_t>(g.num_vertices()));
  }
}

TEST(MisLocalSearch, NeverShrinksAndStaysIndependent) {
  Rng rng(5);
  const Graph g = graph::random_planar(60, 100, rng);
  const auto start = greedy_mis_min_degree(g);
  const auto improved = mis_local_search(g, start);
  EXPECT_TRUE(is_independent_set(g, improved));
  EXPECT_GE(improved.size(), start.size());
}

TEST(BestEffortMis, FallsBackGracefully) {
  Rng rng(6);
  const Graph g = graph::random_regular(60, 8, rng);
  const auto r = best_effort_mis(g, 10);  // force the fallback
  // The clique bound does not close here, so the search and its fallback
  // both run.
  EXPECT_GT(r.upper_bound, static_cast<int>(r.vertices.size()));
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(is_independent_set(g, r.vertices));
}

// The mis-tri shape: the search exhausts its budget on this triangulation
// (ExactMis.ExhaustsLikeReferenceOnLargeTriangulation), but greedy + local
// search already meets the clique-partition bound, so it is returned as a
// certified maximum without a search.
TEST(BestEffortMis, CliqueBoundCertifiesTheFallbackOnATriangulation) {
  Rng rng(1);
  const Graph g = graph::random_maximal_planar(500, rng);
  const auto r = best_effort_mis(g, 400'000);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.vertices, mis_local_search(g, greedy_mis_min_degree(g)));
  EXPECT_EQ(r.upper_bound, static_cast<int>(r.vertices.size()));
}

// At budget 0 the search never finishes, so upper_bound is the clique bound.
TEST(BestEffortMis, CliqueBoundIsAtLeastAlpha) {
  const auto check = [](const Graph& g, const std::string& label) {
    const auto r = best_effort_mis(g, 0);
    const auto alpha =
        static_cast<int>(max_independent_set_bruteforce(g).size());
    EXPECT_GE(r.upper_bound, alpha) << label;
    EXPECT_TRUE(is_independent_set(g, r.vertices)) << label;
    EXPECT_EQ(r.exact, static_cast<int>(r.vertices.size()) == r.upper_bound)
        << label;
  };
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 6 + trial % 14;  // 6..19
    const std::string at = " trial " + std::to_string(trial);
    check(graph::erdos_renyi(n, 0.3, rng), "erdos_renyi" + at);
    check(graph::random_maximal_planar(n, rng), "triangulation" + at);
    check(graph::random_planar(n, 2 * n, rng), "planar" + at);
    check(graph::random_outerplanar(n, rng), "outerplanar" + at);
    check(graph::random_tree(n, rng), "tree" + at);
  }
  check(graph::complete(7), "complete 7");
  check(graph::cycle(9), "cycle 9");
  check(graph::grid(4, 5), "grid 4x5");
  check(graph::complete_bipartite(4, 6), "complete_bipartite 4,6");
  check(graph::star(12), "star 12");
}

// ---------------- Correlation clustering ---------------------------------------

// Oracle: enumerate all partitions of <= 10 elements via restricted growth
// strings.
std::int64_t best_score_bruteforce(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> labels(n, 0);
  std::int64_t best = -1;
  // Restricted growth: labels[i] <= max(labels[0..i-1]) + 1.
  std::function<void(int, int)> rec = [&](int i, int max_label) {
    if (i == n) {
      best = std::max(best, agreement_score(g, labels));
      return;
    }
    for (int l = 0; l <= max_label + 1; ++l) {
      labels[i] = l;
      rec(i + 1, std::max(max_label, l));
    }
  };
  rec(0, -1);
  return best;
}

TEST(CorrelationExact, MatchesPartitionEnumeration) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 5);  // 4..8
    Graph base = graph::erdos_renyi(n, 0.5, rng);
    std::vector<graph::EdgeSign> signs(base.num_edges());
    for (auto& s : signs) {
      s = (rng() & 1) ? graph::EdgeSign::kPositive
                      : graph::EdgeSign::kNegative;
    }
    const Graph g = base.with_signs(std::move(signs));
    const auto exact = correlation_exact(g);
    EXPECT_EQ(agreement_score(g, exact), best_score_bruteforce(g))
        << "trial " << trial;
  }
}

TEST(CorrelationExact, AllPositiveMeansOneCluster) {
  const Graph g = graph::complete(6);  // unsigned = all positive
  const auto c = correlation_exact(g);
  for (int l : c) EXPECT_EQ(l, c[0]);
  EXPECT_EQ(agreement_score(g, c), g.num_edges());
}

TEST(CorrelationExact, AllNegativeMeansSingletons) {
  Graph base = graph::complete(6);
  const Graph g = base.with_signs(std::vector<graph::EdgeSign>(
      base.num_edges(), graph::EdgeSign::kNegative));
  const auto c = correlation_exact(g);
  std::vector<int> sorted(c);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()) - sorted.begin(), 6);
  EXPECT_EQ(agreement_score(g, c), g.num_edges());
}

TEST(CorrelationLocalSearch, AtLeastTrivialBaselines) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    Graph base = graph::random_maximal_planar(60, rng);
    const Graph g =
        base.with_signs(graph::planted_signs(base, 8, 0.2, rng));
    const auto c = correlation_local_search(g);
    Clustering singles(g.num_vertices());
    std::iota(singles.begin(), singles.end(), 0);
    const auto trivial =
        std::max(agreement_score(g, singles),
                 agreement_score(g, Clustering(g.num_vertices(), 0)));
    EXPECT_GE(agreement_score(g, c), trivial);
  }
}

TEST(CorrelationScore, CountsAgreements) {
  // Path + - : clustering {0,1},{2} agrees with both edges.
  Graph g = graph::path(3).with_signs(
      {graph::EdgeSign::kPositive, graph::EdgeSign::kNegative});
  EXPECT_EQ(agreement_score(g, {0, 0, 1}), 2);
  EXPECT_EQ(agreement_score(g, {0, 0, 0}), 1);
  EXPECT_EQ(agreement_score(g, {0, 1, 2}), 1);
}

// ---------------- Edge separators ------------------------------------------------

TEST(Separator, BalancedByConstruction) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::random_maximal_planar(100, rng);
    const auto r = edge_separator(g, rng);
    EXPECT_GE(r.smaller_side, g.num_vertices() / 3);
    // Reported cut matches the indicator.
    int cut = 0;
    for (const graph::Edge& e : g.edges()) {
      cut += r.in_s[e.u] != r.in_s[e.v];
    }
    EXPECT_EQ(cut, r.cut_size);
  }
}

TEST(Separator, NearOptimalOnSmallGraphs) {
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_planar(12, 20, rng);
    const auto heuristic = edge_separator(g, rng, 6);
    const auto exact = edge_separator_bruteforce(g);
    EXPECT_LE(heuristic.cut_size, 2 * exact.cut_size + 2) << "trial " << trial;
    EXPECT_GE(exact.smaller_side, g.num_vertices() / 3);
  }
}

TEST(Separator, GridScalesAsSqrtN) {
  Rng rng(11);
  const auto r16 = edge_separator(graph::grid(16, 16), rng);
  const auto r32 = edge_separator(graph::grid(32, 32), rng);
  // Quadrupling n should roughly double the cut, not quadruple it.
  EXPECT_LE(r32.cut_size, 3 * r16.cut_size);
}

// ---------------- Sequential LDD ----------------------------------------------------

TEST(SequentialLdd, BoundsOnFamilies) {
  Rng rng(12);
  for (double eps : {0.1, 0.2, 0.4}) {
    for (int fam = 0; fam < 3; ++fam) {
      const Graph g = fam == 0   ? graph::grid(18, 18)
                      : fam == 1 ? graph::random_maximal_planar(300, rng)
                                 : graph::cycle(300);
      const auto r = ldd_minor_free(g, eps, rng);
      EXPECT_LE(r.cut_edges, eps * g.num_edges() + 1e-9)
          << "fam=" << fam << " eps=" << eps;
      EXPECT_LE(ldd_max_diameter(g, r.cluster_of), 40.0 / eps)
          << "fam=" << fam << " eps=" << eps;
    }
  }
}

TEST(SequentialLdd, LabelsAreDenseAndCountMatches) {
  Rng rng(13);
  const Graph g = graph::random_planar(200, 350, rng);
  const auto r = ldd_minor_free(g, 0.25, rng);
  std::vector<bool> seen(r.num_clusters, false);
  for (int c : r.cluster_of) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, r.num_clusters);
    seen[c] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SequentialLdd, RejectsBadEps) {
  Rng rng(14);
  const Graph g = graph::path(4);
  EXPECT_THROW(ldd_minor_free(g, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(ldd_minor_free(g, 1.5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace ecd::seq
