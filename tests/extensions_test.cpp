// Tests for the extension features: weighted-volume expander decomposition
// and distributed triangle counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/core/triangles.h"
#include "src/expander/conductance.h"
#include "src/expander/weighted.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/mwm.h"

namespace ecd {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// ---------------- Weighted decomposition ---------------------------------------

TEST(WeightedDecomposition, ReducesToUnweightedNotionOnUnitWeights) {
  Graph g = graph::path(4);
  EXPECT_DOUBLE_EQ(expander::cut_conductance(g, {true, true, false, false},
                                             /*weighted=*/true),
                   1.0 / 3.0);
}

TEST(WeightedDecomposition, WeightBudgetHolds) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    Graph base = graph::random_maximal_planar(150, rng);
    Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
    const double eps = 0.2;
    expander::DecompositionOptions opt;
    opt.seed = trial + 1;
    const auto d = expander::expander_decompose_weighted(g, eps, opt);
    EXPECT_LE(d.inter_cluster_weight, eps * g.total_weight() + 1e-9);
    // Partition validity.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_GE(d.base.cluster_of[v], 0);
    }
    // Clusters connected.
    const auto members = expander::cluster_members(d.base);
    for (const auto& m : members) {
      if (m.size() < 2) continue;
      const auto sub = graph::induced_subgraph(g, m);
      EXPECT_TRUE(graph::is_connected(sub.graph));
    }
  }
}

// Exact weighted conductance of a small connected graph: the least
// weighted cut_conductance over every nontrivial cut (vertex 0 kept out of
// S, so each cut is enumerated once).
double exact_weighted_conductance(const Graph& g) {
  const int n = g.num_vertices();
  double best = 1e18;
  std::vector<bool> in_s(n, false);
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 1; v < n; ++v) in_s[v] = (mask >> (v - 1)) & 1u;
    best = std::min(best, expander::cut_conductance(g, in_s, true));
  }
  return best;
}

// The weighted twin of check_contract's honesty check (expander_test.cpp):
// a cluster's certified value must not exceed its exact weighted
// conductance. The inputs are weighted 24x24 grids at phi 0.1 and weighted
// 150-vertex triangulations at the default phi.
TEST(WeightedDecomposition, CertifiedConductanceIsHonest) {
  int checked = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const Graph grid = graph::grid(24, 24);
    const Graph tri = graph::random_maximal_planar(150, rng);
    const std::pair<Graph, double> inputs[] = {
        {grid.with_weights(graph::random_weights(grid, 1000, rng)), 0.1},
        {tri.with_weights(graph::random_weights(tri, 1000, rng)), 0.0}};
    for (const auto& [g, phi] : inputs) {
      expander::DecompositionOptions opt;
      opt.phi = phi;
      opt.seed = seed;
      const auto d = expander::expander_decompose_weighted(g, 0.2, opt);
      const auto members = expander::cluster_members(d.base);
      ASSERT_EQ(d.base.cluster_phi_certified.size(), members.size());
      for (std::size_t c = 0; c < members.size(); ++c) {
        if (members[c].size() < 3 || members[c].size() > 14) continue;
        const auto sub = graph::induced_subgraph(g, members[c]);
        EXPECT_GE(exact_weighted_conductance(sub.graph) + 1e-9,
                  d.base.cluster_phi_certified[c])
            << "seed " << seed << " n " << g.num_vertices() << " cluster " << c;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 50);
}

TEST(WeightedDecomposition, HeavyBottleneckGetsCutOnlyIfCheap) {
  // Barbell with an extremely heavy bridge: the weighted decomposition must
  // not cut the bridge (its weight would blow the budget) — the unweighted
  // one would, when forced with the same phi.
  Graph base = graph::barbell(8, 0);
  std::vector<graph::Weight> w(base.num_edges(), 1);
  // bridge edge connects vertex 7 (left clique) with 8 (right clique).
  const graph::EdgeId bridge = base.find_edge(7, 8);
  ASSERT_NE(bridge, graph::kInvalidEdge);
  w[bridge] = 1'000'000;
  Graph g = base.with_weights(std::move(w));
  expander::DecompositionOptions opt;
  opt.phi = 0.05;
  const auto d = expander::expander_decompose_weighted(g, 0.3, opt);
  EXPECT_FALSE(d.base.is_inter_cluster[bridge]);
}

TEST(WeightedDecomposition, MwmPrefersWeightedVolumes) {
  // Ablation hook: both modes must achieve the guarantee; weighted volumes
  // should never be (meaningfully) worse.
  Rng rng(2);
  Graph base = graph::grid(10, 10);
  Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
  core::MwmApproxOptions weighted;
  weighted.framework.decomposition.phi = 0.08;
  core::MwmApproxOptions unweighted = weighted;
  unweighted.weighted_decomposition = false;
  const auto rw = core::mwm_approx(g, 0.3, weighted);
  const auto ru = core::mwm_approx(g, 0.3, unweighted);
  const auto exact =
      seq::matching_weight(g, seq::max_weight_matching(g));
  EXPECT_GE(rw.weight + 1e-9, 0.7 * exact);
  EXPECT_GE(ru.weight + 1e-9, 0.7 * exact);
}

// ---------------- Distributed triangle counting ------------------------------------

TEST(Triangles, SequentialOracleKnownValues) {
  EXPECT_EQ(core::count_triangles_sequential(graph::complete(4)), 4);
  EXPECT_EQ(core::count_triangles_sequential(graph::complete(5)), 10);
  EXPECT_EQ(core::count_triangles_sequential(graph::cycle(5)), 0);
  EXPECT_EQ(core::count_triangles_sequential(graph::grid(4, 4)), 0);
  EXPECT_EQ(core::count_triangles_sequential(graph::complete_bipartite(3, 3)),
            0);
}

TEST(Triangles, DistributedMatchesSequentialOnFamilies) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::random_maximal_planar(120, rng);
    const auto r = core::count_triangles_distributed(g);
    EXPECT_EQ(r.triangles, core::count_triangles_sequential(g))
        << "trial " << trial;
  }
}

TEST(Triangles, DistributedMatchesOnTwoTrees) {
  Rng rng(4);
  const Graph g = graph::random_two_tree(150, rng);
  const auto r = core::count_triangles_distributed(g);
  // A 2-tree on n vertices has exactly n - 2 triangles... at least the
  // n - 2 construction triangles; chords can add more. Trust the oracle.
  EXPECT_EQ(r.triangles, core::count_triangles_sequential(g));
  EXPECT_GE(r.triangles, g.num_vertices() - 2);
}

TEST(Triangles, TriangulationTriangleCountIsLinear) {
  Rng rng(5);
  const Graph g = graph::random_maximal_planar(200, rng);
  const auto r = core::count_triangles_distributed(g);
  // Every face of a triangulation is a triangle: >= 2n - 5 of them.
  EXPECT_GE(r.triangles, 2 * g.num_vertices() - 5);
}

TEST(Triangles, RoundsScaleWithDegeneracyNotN) {
  Rng rng(6);
  const Graph small = graph::random_maximal_planar(100, rng);
  const Graph large = graph::random_maximal_planar(1000, rng);
  const auto rs = core::count_triangles_distributed(small);
  const auto rl = core::count_triangles_distributed(large);
  // Phase B is max_out_degree + O(1) rounds regardless of n; the peeling in
  // phase A is O(log n). Total measured rounds stay tiny for both.
  EXPECT_LE(rl.ledger.measured_total(),
            rs.ledger.measured_total() + 30);
  EXPECT_LE(rl.out_degree_bound, 5);  // planar degeneracy
}

TEST(Triangles, EmptyAndTinyGraphs) {
  EXPECT_EQ(core::count_triangles_distributed(graph::path(2)).triangles, 0);
  EXPECT_EQ(core::count_triangles_distributed(graph::cycle(3)).triangles, 1);
}

// ---------------- Adversarial inputs / failure paths --------------------------------

TEST(FailureHandling, DenseNonMinorFreeInputStillTerminates) {
  // The framework makes no minor-freeness check; on a dense random input
  // it must still terminate with a valid partition (the paper's §2.3
  // discussion) — only the quality guarantees are off the table.
  Rng rng(31);
  const Graph g = graph::random_regular(80, 8, rng);
  const auto p = core::partition_and_gather(g, 0.3);
  EXPECT_TRUE(p.gather_complete);
  int covered = 0;
  for (const auto& c : p.clusters) covered += static_cast<int>(c.members.size());
  EXPECT_EQ(covered, g.num_vertices());
}

TEST(FailureHandling, PropertyTesterRejectsExpanders) {
  // An 8-regular expander is epsilon-far from planar; the tester must
  // reject (via the property check or the Lemma 2.3 degree condition).
  Rng rng(32);
  const Graph g = graph::random_regular(100, 8, rng);
  const auto r = core::property_test(g, seq::planar_property(), 0.2);
  EXPECT_FALSE(r.accept);
}

TEST(FailureHandling, DiameterSelfCheckPreservesOneSidedError) {
  Rng rng(33);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph planar = graph::random_maximal_planar(100, rng);
    core::PropertyTestOptions opt;
    opt.framework.decomposition.phi = 0.05;  // keep the bound simulable
    opt.diameter_check_factor = 4.0;
    opt.framework.seed = trial;
    const auto r = core::property_test(planar, seq::planar_property(), 0.3, opt);
    EXPECT_TRUE(r.accept) << "trial " << trial;
    bool has_check_entry = false;
    for (const auto& e : r.ledger.entries()) {
      has_check_entry |= e.label.starts_with("diameter self-check");
    }
    EXPECT_TRUE(has_check_entry);
  }
}

TEST(FailureHandling, WeightedDecompositionOnUnitWeightsMatchesContract) {
  Rng rng(34);
  Graph base = graph::random_maximal_planar(120, rng);
  Graph g = base.with_weights(std::vector<graph::Weight>(base.num_edges(), 1));
  const auto d = expander::expander_decompose_weighted(g, 0.2, {});
  EXPECT_LE(d.inter_cluster_weight, 0.2 * g.num_edges() + 1e-9);
  EXPECT_EQ(d.inter_cluster_weight, d.base.inter_cluster_edges);
}

}  // namespace
}  // namespace ecd
