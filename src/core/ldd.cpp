#include "src/core/ldd.h"

#include <random>

namespace ecd::core {

using graph::Graph;

LddApproxResult ldd_approx(const Graph& g, double eps,
                           const LddApproxOptions& options) {
  check_eps(eps);
  // §3.5: both stages run with ε̃ = ε/2 so the total cut stays <= ε|E|.
  const double eps_half = eps / 2.0;
  FrameworkOptions fopt = options.framework;
  fopt.density_bound = 1;  // the ε/2 split is stated against |E| directly
  Partition partition = partition_and_gather(g, eps_half, fopt);

  LddApproxResult result;
  int label_base = 0;
  std::mt19937_64 leader_rng(options.framework.seed * 7349 + 11);
  const auto labels = solve_clusters(partition, [&](const Cluster& cluster) {
    const auto local = seq::ldd_minor_free(cluster.subgraph.graph, eps_half,
                                           leader_rng, options.sequential);
    std::vector<std::int64_t> label(local.cluster_of.size());
    for (std::size_t i = 0; i < label.size(); ++i) {
      label[i] = label_base + local.cluster_of[i];
    }
    label_base += local.num_clusters;
    return label;
  });
  result.cluster_of.assign(labels.begin(), labels.end());
  result.num_clusters = label_base;
  result.cut_edges = seq::ldd_cut_edges(g, result.cluster_of);
  result.max_diameter = seq::ldd_max_diameter(g, result.cluster_of);
  result.ledger = std::move(partition.ledger);
  return result;
}

}  // namespace ecd::core
