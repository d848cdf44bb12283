#include "src/core/mis.h"

#include <cmath>

#include "src/seq/mis.h"

namespace ecd::core {

using graph::Graph;
using graph::VertexId;

MisApproxResult mis_approx(const Graph& g, double eps,
                           const MisApproxOptions& options) {
  check_eps(eps);
  // §3.1: ε' = ε / (2d + 1).
  const int d = std::max(1, static_cast<int>(std::ceil(g.edge_density())));
  const double eps_prime = eps / (2 * d + 1);

  FrameworkOptions fopt = options.framework;
  // The analysis already divides by the density; the framework's own ε/t
  // rescaling would double-count it.
  fopt.density_bound = 1;
  Partition partition = partition_and_gather(g, eps_prime, fopt);

  MisApproxResult result;
  result.num_clusters = static_cast<int>(partition.clusters.size());
  result.all_clusters_exact = true;
  std::vector<std::int64_t> in_set =
      solve_clusters(partition, [&](const Cluster& cluster) {
        const auto mis = seq::best_effort_mis(cluster.subgraph.graph,
                                              options.exact_node_budget);
        result.clusters_exact += mis.exact;
        result.upper_bound += mis.upper_bound;
        result.all_clusters_exact = result.all_clusters_exact && mis.exact;
        std::vector<std::int64_t> chosen(cluster.subgraph.graph.num_vertices());
        for (VertexId local : mis.vertices) chosen[local] = 1;
        return chosen;
      });

  // Conflict removal: both endpoints of an inter-cluster edge may have been
  // chosen; drop the larger id (one CONGEST round: neighbors exchange their
  // membership bit).
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!partition.decomposition.is_inter_cluster[e]) continue;
    const graph::Edge ed = g.edge(e);
    if (in_set[ed.u] && in_set[ed.v]) {
      in_set[std::max(ed.u, ed.v)] = 0;
      ++result.conflicts_removed;
    }
  }
  partition.ledger.add_measured("conflict removal (1 round)", 1);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_set[v]) result.independent_set.push_back(v);
  }
  result.ledger = std::move(partition.ledger);
  return result;
}

}  // namespace ecd::core
