#include "src/core/correlation.h"

#include <algorithm>

namespace ecd::core {

using graph::Graph;

CorrelationApproxResult correlation_approx(
    const Graph& g, double eps, const CorrelationApproxOptions& options) {
  check_eps(eps);
  const double eps_prime = eps / 2.0;  // γ(G) >= |E|/2
  FrameworkOptions fopt = options.framework;
  fopt.density_bound = 1;  // the ε/2 analysis is stated against |E| directly
  Partition partition = partition_and_gather(g, eps_prime, fopt);

  CorrelationApproxResult result;
  result.num_clusters = static_cast<int>(partition.clusters.size());
  // Labels stay distinct across clusters: each cluster's labels start after
  // those of the clusters before it.
  int label_base = 0;
  const auto labels = solve_clusters(partition, [&](const Cluster& cluster) {
    const auto local = seq::best_effort_correlation(cluster.subgraph.graph,
                                                    options.exact_threshold);
    result.clusters_exact += local.exact;
    std::vector<std::int64_t> label(local.clustering.size());
    int max_label = 0;
    for (std::size_t i = 0; i < label.size(); ++i) {
      label[i] = label_base + local.clustering[i];
      max_label = std::max(max_label, local.clustering[i]);
    }
    label_base += max_label + 1;
    return label;
  });
  result.clustering.assign(labels.begin(), labels.end());
  result.score = seq::agreement_score(g, result.clustering);
  result.ledger = std::move(partition.ledger);
  return result;
}

}  // namespace ecd::core
