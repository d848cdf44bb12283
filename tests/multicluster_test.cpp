// Forced multi-cluster runs: with the auto-derived φ = ε/(8 log m) many
// moderate-size planar inputs legitimately stay one cluster (their
// conductance exceeds φ), which exercises only the trivial path of each
// application. These tests pin φ high enough that the decomposition must
// split, driving the inter-cluster analysis (conflict removal, boundary
// freezing, per-cluster stitching) for real.
#include <gtest/gtest.h>

#include "src/core/correlation.h"
#include "src/core/ldd.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/graph/generators.h"
#include "src/seq/matching.h"
#include "src/seq/mis.h"
#include "src/seq/mwm.h"

namespace ecd::core {
namespace {

using graph::Graph;
using graph::Rng;

FrameworkOptions forced_split(double phi, std::uint64_t seed = 1) {
  FrameworkOptions opt;
  opt.decomposition.phi = phi;
  opt.seed = seed;
  return opt;
}

TEST(MultiCluster, DecompositionActuallySplitsGrid) {
  Graph g = graph::grid(16, 16);
  FrameworkOptions opt = forced_split(0.08);
  const auto p = partition_and_gather(g, 0.35, opt);
  EXPECT_GT(p.decomposition.num_clusters, 1);
  EXPECT_GT(p.decomposition.inter_cluster_edges, 0);
}

// Chain of 8x8 grids joined corner-to-corner by single edges: each grid's
// conductance (~0.06) exceeds φ = 0.05 so grids stay whole, while the
// bridges have near-zero conductance and get cut — guaranteed multi-cluster
// within the inter-cluster budget.
Graph grid_chain(int blocks) {
  std::vector<Graph> parts(blocks, graph::grid(8, 8));
  Graph u = graph::disjoint_union(parts);
  graph::GraphBuilder b(u.num_vertices());
  for (const graph::Edge& e : u.edges()) b.add_edge(e.u, e.v);
  for (int i = 0; i + 1 < blocks; ++i) {
    b.add_edge(64 * i + 63, 64 * (i + 1));  // last cell -> next first cell
  }
  return std::move(b).build();
}

// α of a grid chain. The chain is bipartite (each grid is, and the bridges
// join the grids in a path), so König's theorem gives α = n − ν. The exact
// MIS search does not finish on these 384- and 512-vertex chains.
int grid_chain_alpha(const Graph& g) {
  return g.num_vertices() -
         seq::matching_size(seq::max_cardinality_matching(g));
}

// mis_approx's upper bound holds whether or not its clusters were exact.
void expect_certified(const Graph& g, const MisApproxResult& r) {
  EXPECT_GE(r.upper_bound, static_cast<int>(r.independent_set.size()));
  EXPECT_GE(r.upper_bound, grid_chain_alpha(g));
}

TEST(MultiCluster, MisStillOneMinusEpsWithConflicts) {
  Graph g = grid_chain(8);  // alpha >= 8 * 32 = 256
  const double eps = 0.35;
  MisApproxOptions opt;
  opt.framework = forced_split(0.05);
  const auto r = mis_approx(g, eps, opt);
  ASSERT_TRUE(seq::is_independent_set(g, r.independent_set));
  EXPECT_GT(r.num_clusters, 1);
  EXPECT_GE(r.independent_set.size() + 1e-9, (1.0 - eps) * 256);
  EXPECT_EQ(grid_chain_alpha(g), 256);
  expect_certified(g, r);
}

TEST(MultiCluster, MisConflictRemovalTriggers) {
  // With several clusters, some inter-cluster (bridge) edge eventually has
  // both endpoints chosen; run a few seeds and require the removal path to
  // execute at least once.
  int total_conflicts = 0;
  for (int seed = 0; seed < 5; ++seed) {
    Graph g = grid_chain(6);
    MisApproxOptions opt;
    opt.framework = forced_split(0.05, 100 + seed);
    const auto r = mis_approx(g, 0.4, opt);
    ASSERT_TRUE(seq::is_independent_set(g, r.independent_set));
    expect_certified(g, r);
    total_conflicts += r.conflicts_removed;
  }
  EXPECT_GT(total_conflicts, 0);
}

TEST(MultiCluster, McmStillOneMinusEps) {
  Rng rng(3);
  Graph g = graph::random_planar(250, 420, rng);
  const double eps = 0.35;
  McmApproxOptions opt;
  opt.framework = forced_split(0.1);
  const auto r = mcm_planar_approx(g, eps, opt);
  ASSERT_TRUE(seq::is_valid_matching(g, r.mates));
  EXPECT_GT(r.num_clusters, 1);
  const int optimum = seq::matching_size(seq::max_cardinality_matching(g));
  EXPECT_GE(r.matching_size + 1e-9, (1.0 - eps) * optimum);
}

TEST(MultiCluster, MwmRecoversCutWeightAcrossPhases) {
  Rng rng(4);
  Graph base = graph::grid(12, 12);
  Graph g = base.with_weights(graph::random_weights(base, 500, rng));
  const double eps = 0.3;
  MwmApproxOptions opt;
  opt.framework = forced_split(0.1);
  const auto r = mwm_approx(g, eps, opt);
  ASSERT_TRUE(seq::is_valid_matching(g, r.mates));
  const auto exact = seq::max_weight_matching(g);
  EXPECT_GE(r.weight + 1e-9, (1.0 - eps) * seq::matching_weight(g, exact));
}

TEST(MultiCluster, MwmSinglePhaseIsWorseThanMultiPhase) {
  // The whole point of re-decomposing: edges cut once are interior later.
  Rng rng(5);
  Graph base = graph::grid(12, 12);
  Graph g = base.with_weights(graph::random_weights(base, 500, rng));
  MwmApproxOptions one;
  one.framework = forced_split(0.12);
  one.phases = 1;
  MwmApproxOptions many = one;
  many.phases = 8;
  const auto r1 = mwm_approx(g, 0.3, one);
  const auto r8 = mwm_approx(g, 0.3, many);
  EXPECT_GE(r8.weight, r1.weight);  // monotone in phases
}

TEST(MultiCluster, CorrelationStillBeatsBaselineBound) {
  Rng rng(6);
  Graph base = graph::random_maximal_planar(200, rng);
  Graph g = base.with_signs(graph::planted_signs(base, 10, 0.05, rng));
  CorrelationApproxOptions opt;
  opt.framework = forced_split(0.1);
  const auto r = correlation_approx(g, 0.3, opt);
  EXPECT_GE(r.score, (1.0 - 0.3) * g.num_edges() / 2.0);
}

TEST(MultiCluster, PropertyTestingStillOneSided) {
  Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    Graph planar = graph::random_maximal_planar(150, rng);
    PropertyTestOptions opt;
    opt.framework = forced_split(0.08, 50 + trial);
    EXPECT_TRUE(
        property_test(planar, seq::planar_property(), 0.3, opt).accept);
    Graph far = graph::plus_random_edges(planar, planar.num_edges() / 2, rng);
    EXPECT_FALSE(property_test(far, seq::planar_property(), 0.3, opt).accept);
  }
}

TEST(MultiCluster, LddBoundsSurviveForcedSplits) {
  Graph g = graph::grid(20, 20);
  LddApproxOptions opt;
  opt.framework = forced_split(0.1);
  const double eps = 0.3;
  const auto r = ldd_approx(g, eps, opt);
  EXPECT_LE(r.cut_edges, eps * g.num_edges() + 1e-9);
  EXPECT_LE(r.max_diameter, 40.0 / eps);
}

}  // namespace
}  // namespace ecd::core
