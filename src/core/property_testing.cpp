#include "src/core/property_testing.h"

#include <cmath>


namespace ecd::core {

using graph::Graph;
using graph::VertexId;

namespace {

// Edge-density bound for K_s-minor-free graphs: Mader proved |E| <=
// (s-2)·|V| for s <= 9 (up to lower-order terms); beyond that Thomason's
// O(s sqrt(log s)) kicks in.
int density_bound_for_clique_threshold(int s) {
  if (s <= 3) return 1;
  if (s <= 9) return s - 2;
  return static_cast<int>(
      std::ceil(0.32 * s * std::sqrt(std::log2(static_cast<double>(s)))));
}

}  // namespace

PropertyTestResult property_test(const Graph& g,
                                 const seq::MinorClosedProperty& property,
                                 double eps,
                                 const PropertyTestOptions& options) {
  check_eps(eps);
  FrameworkOptions fopt = options.framework;
  fopt.density_bound =
      density_bound_for_clique_threshold(property.clique_threshold);
  Partition partition = partition_and_gather(g, eps, fopt);

  PropertyTestResult result;
  result.vertex_accepts.assign(g.num_vertices(), true);
  const double phi = partition.decomposition.phi;

  // §2.3: clusters self-check their diameter against the φ-expander bound;
  // a failed cluster resets (conceptually) to singletons, which trivially
  // accept — so the check never breaks the one-sided guarantee.
  std::vector<bool> diameter_ok(partition.clusters.size(), true);
  if (options.diameter_check_factor > 0.0) {
    const int bound = static_cast<int>(
        std::ceil(options.diameter_check_factor / std::max(phi, 1e-9)));
    congest::PhaseScope phase(partition.net, "phase:diameter-check");
    const auto check = congest::check_cluster_diameter(
        g, partition.decomposition.cluster_of, bound, partition.net);
    partition.ledger.add_measured("diameter self-check (Sec 2.3)",
                                  check.stats);
    for (std::size_t c = 0; c < partition.clusters.size(); ++c) {
      for (graph::VertexId v : partition.clusters[c].members) {
        if (!check.within_bound[v]) diameter_ok[c] = false;
      }
    }
  }

  for (std::size_t ci = 0; ci < partition.clusters.size(); ++ci) {
    const Cluster& cluster = partition.clusters[ci];
    if (!diameter_ok[ci]) continue;  // singleton fallback: accept
    bool cluster_accepts = true;
    // Lemma 2.3 self-check: deg(v*) >= c φ² |E_i| must hold for minor-free
    // inputs; failure is evidence of a dense minor.
    const int leader_degree =
        cluster.leader_local >= 0
            ? cluster.subgraph.graph.degree(cluster.leader_local)
            : 0;
    const double required = options.degree_condition_constant * phi * phi *
                            cluster.subgraph.graph.num_edges();
    if (cluster.subgraph.graph.num_edges() > 0 && leader_degree < required) {
      ++result.clusters_failing_degree_condition;
      if (options.reject_on_degree_condition) cluster_accepts = false;
    }
    // The leader checks the property on its reconstructed G[V_i].
    if (cluster_accepts && !property.check(cluster.subgraph.graph)) {
      ++result.clusters_failing_property;
      cluster_accepts = false;
    }
    if (!cluster_accepts) {
      for (VertexId v : cluster.members) result.vertex_accepts[v] = false;
    }
  }
  // Leaders broadcast the verdict to their clusters.
  congest::PhaseScope phase(partition.net, "phase:verdict-broadcast");
  std::vector<std::int64_t> verdict(g.num_vertices(), 0);
  for (const Cluster& cluster : partition.clusters) {
    verdict[cluster.leader] = result.vertex_accepts[cluster.leader] ? 1 : 2;
  }
  const auto bc = congest::broadcast_from_leaders(
      g, partition.decomposition.cluster_of, partition.leader_of, verdict,
      partition.net);
  partition.ledger.add_measured("verdict broadcast", bc.stats);

  result.accept = true;
  for (bool a : result.vertex_accepts) result.accept = result.accept && a;
  result.ledger = std::move(partition.ledger);
  return result;
}

}  // namespace ecd::core
