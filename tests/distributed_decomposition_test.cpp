// The fully distributed decomposition must meet the same contract as the
// host-side construction — with every round executed on the simulator.
#include <gtest/gtest.h>

#include <limits>

#include "src/expander/conductance.h"
#include "src/expander/distributed_decomposition.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// Also checks each certificate the way expander_test's check_contract
// does: a cluster of 2 to 14 vertices may not claim more than its exact
// conductance.
void check_contract(const Graph& g, double eps,
                    const DistributedDecompositionResult& r) {
  const auto& d = r.decomposition;
  EXPECT_LE(d.inter_cluster_edges, eps * g.num_edges() + 1e-9);
  const auto clusters = cluster_members(d);
  ASSERT_EQ(d.cluster_phi_certified.size(), clusters.size());
  int covered = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const auto& members = clusters[c];
    covered += static_cast<int>(members.size());
    if (members.size() >= 2) {
      const auto sub = graph::induced_subgraph(g, members);
      EXPECT_TRUE(graph::is_connected(sub.graph));
      if (members.size() <= 14) {
        EXPECT_GE(exact_conductance(sub.graph) + 1e-9,
                  d.cluster_phi_certified[c])
            << "cluster " << c;
      }
    }
  }
  EXPECT_EQ(covered, g.num_vertices());
  EXPECT_GT(r.stats.rounds, 0);
}

TEST(DistributedDecomposition, ContractOnGrid) {
  Graph g = graph::grid(12, 12);
  const auto r = distributed_expander_decompose(g, 0.3);
  check_contract(g, 0.3, r);
}

TEST(DistributedDecomposition, ContractOnTriangulation) {
  Rng rng(3);
  Graph g = graph::random_maximal_planar(200, rng);
  const auto r = distributed_expander_decompose(g, 0.25);
  check_contract(g, 0.25, r);
}

TEST(DistributedDecomposition, ContractOnTree) {
  Rng rng(5);
  Graph g = graph::random_tree(150, rng);
  const auto r = distributed_expander_decompose(g, 0.3);
  check_contract(g, 0.3, r);
}

TEST(DistributedDecomposition, SplitsTheBarbell) {
  Graph g = graph::barbell(10, 2);
  DistributedDecompositionOptions opt;
  opt.phi = 0.05;
  const auto r = distributed_expander_decompose(g, 0.3, opt);
  check_contract(g, 0.3, r);
  // The two cliques must separate: the bridge is the only sparse cut.
  EXPECT_NE(r.decomposition.cluster_of[0],
            r.decomposition.cluster_of[g.num_vertices() - 1]);
  EXPECT_GE(r.levels, 1);
}

TEST(DistributedDecomposition, ForcedSplitsOnGridStayWithinBudget) {
  Graph g = graph::grid(14, 14);
  DistributedDecompositionOptions opt;
  opt.phi = 0.06;
  const auto r = distributed_expander_decompose(g, 0.45, opt);
  check_contract(g, 0.45, r);
  EXPECT_GT(r.decomposition.num_clusters, 1);
}

TEST(DistributedDecomposition, MeasuredRoundsGrowWithLevels) {
  // More levels of splitting => more measured rounds.
  Graph g = graph::grid(12, 12);
  DistributedDecompositionOptions flat;
  flat.phi = 1e-5;  // nothing splits: one level
  flat.power_iterations = 200;
  DistributedDecompositionOptions split;
  split.phi = 0.08;
  split.power_iterations = 200;
  const auto r_flat = distributed_expander_decompose(g, 0.45, flat);
  const auto r_split = distributed_expander_decompose(g, 0.45, split);
  EXPECT_LE(r_flat.levels, r_split.levels);
  EXPECT_LT(r_flat.stats.rounds, r_split.stats.rounds);
}

TEST(DistributedDecomposition, DisconnectedInput) {
  Rng rng(7);
  Graph g = graph::disjoint_union({graph::grid(6, 6), graph::cycle(20)});
  const auto r = distributed_expander_decompose(g, 0.3);
  check_contract(g, 0.3, r);
  EXPECT_GE(r.decomposition.num_clusters, 2);
}

// One power-iteration round leaves the scores near random, so the
// histogram sweep misses the path's bottleneck (Φ = 1/13) and keeps the
// whole path at φ = 0.2. Its certificate must still be honest: the target
// φ, which this driver used to write, is not a lower bound here.
TEST(DistributedDecomposition, CertificatesHoldWhereTheSweepMissesACut) {
  const Graph g = graph::path(14);
  DistributedDecompositionOptions opt;
  opt.phi = 0.2;
  opt.power_iterations = 1;
  const auto r = distributed_expander_decompose(g, 0.9, opt);
  EXPECT_EQ(r.decomposition.num_clusters, 1);
  check_contract(g, 0.9, r);
}

TEST(DistributedDecomposition, RejectsBadEps) {
  const Graph g = graph::grid(8, 8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double eps : {0.0, 1.0, nan}) {
    EXPECT_THROW(distributed_expander_decompose(g, eps),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace ecd::expander
