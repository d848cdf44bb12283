// E19: decomposition quality vs topology churn rate (EXPERIMENTS.md).
//
// A network is decomposed once, then a deterministic churn schedule —
// the same plans the simulator's fault layer fires between rounds — is
// mirrored onto the graph at increasing rates. For each rate the
// decomposition is repaired two ways:
//
//   * incrementally (expander::refresh_decomposition): only the pieces
//     touched by an event endpoint are re-run, clean pieces splice
//     through unchanged;
//   * from scratch (distributed_expander_decompose on the churned graph):
//     the full-cost baseline the repair must beat.
//
// Both costs are *measured* CONGEST rounds of the distributed
// construction. The table shows the trade: at low churn the incremental
// repair is far cheaper, at the cost of inter-cluster drift above the ε
// budget (clean pieces are never re-cut); past the fallback fraction the
// repair degenerates into the full rebuild and the drift resets.
//
// The topology is a chain of 4x4 grid blocks joined by single bridge
// edges (the guaranteed multi-cluster family from multicluster_test): a
// block's conductance (~0.17) clears the target φ so blocks stay whole,
// the bridges get cut, and a churn event dirties only the block(s) of its
// endpoints.
//
//   ./churn_experiment [blocks] [eps]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/core/sweep.h"
#include "src/expander/distributed_decomposition.h"
#include "src/expander/incremental.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace {

// Chain of 4x4 grids, last cell of block i bridged to first cell of i+1.
ecd::graph::Graph grid_chain(int blocks) {
  std::vector<ecd::graph::Graph> parts(blocks, ecd::graph::grid(4, 4));
  const ecd::graph::Graph u = ecd::graph::disjoint_union(parts);
  ecd::graph::GraphBuilder b(u.num_vertices());
  for (const ecd::graph::Edge& e : u.edges()) b.add_edge(e.u, e.v);
  for (int i = 0; i + 1 < blocks; ++i) {
    b.add_edge(16 * i + 15, 16 * (i + 1));
  }
  return std::move(b).build();
}

double min_certified_phi(const std::vector<double>& phis) {
  if (phis.empty()) return 0.0;
  return *std::min_element(phis.begin(), phis.end());
}

}  // namespace

int main(int argc, char** argv) {
  const int blocks = argc > 1 ? std::atoi(argv[1]) : 32;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.2;
  const std::uint64_t topo_seed = 7;

  const auto g = grid_chain(blocks);
  std::printf("network: chain of %d 4x4 grid blocks, n=%d, m=%d, eps=%.2f\n",
              blocks, g.num_vertices(), g.num_edges(), eps);

  ecd::expander::DistributedDecompositionOptions opt;
  opt.phi = 0.1;  // blocks (~0.17) stay whole, bridges (~0.01) get cut
  opt.seed = topo_seed;
  const auto initial =
      ecd::expander::distributed_expander_decompose(g, eps, opt);
  std::printf(
      "initial decomposition: %d clusters, %d/%d inter-cluster edges "
      "(%.1f%%), built in %lld measured rounds\n\n",
      initial.decomposition.num_clusters,
      initial.decomposition.inter_cluster_edges, g.num_edges(),
      100.0 * initial.decomposition.inter_cluster_edges / g.num_edges(),
      static_cast<long long>(initial.stats.rounds));

  std::printf("%7s %7s %6s %6s %9s %9s %8s %9s %9s %5s\n", "churn", "events",
              "dirtyC", "dirtyV", "inter%inc", "inter%ful", "min_phi",
              "rounds_in", "rounds_fu", "fall");
  for (const int churn_permille : {10, 50, 150}) {
    const auto plan =
        ecd::core::make_churn_plan(g, topo_seed, churn_permille);
    const auto churned = ecd::expander::apply_churn_to_graph(g, plan);

    ecd::expander::IncrementalRefreshOptions iopt;
    iopt.decomposition = opt;
    const auto inc = ecd::expander::refresh_decomposition(
        initial.decomposition, churned, plan, eps, iopt);
    const auto full =
        ecd::expander::distributed_expander_decompose(churned, eps, opt);

    const double denom = std::max(1, churned.num_edges());
    std::printf(
        "%6d‰ %7zu %6d %6d %8.1f%% %8.1f%% %8.4f %9lld %9lld %5s\n",
        churn_permille, plan.size(), inc.dirty_clusters, inc.dirty_vertices,
        100.0 * inc.decomposition.inter_cluster_edges / denom,
        100.0 * full.decomposition.inter_cluster_edges / denom,
        min_certified_phi(inc.decomposition.cluster_phi_certified),
        static_cast<long long>(inc.rounds),
        static_cast<long long>(full.stats.rounds),
        inc.fell_back_to_full ? "yes" : "no");
  }

  std::printf(
      "\ninter%%: inter-cluster edge fraction of the churned graph after\n"
      "repair (incremental vs full rebuild); min_phi: smallest certified\n"
      "per-cluster conductance after the incremental repair; rounds:\n"
      "measured CONGEST rounds of each repair. The incremental column\n"
      "should sit well below the full one until the dirty region crosses\n"
      "the fallback fraction.\n");
  return 0;
}
