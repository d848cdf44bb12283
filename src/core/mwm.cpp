#include "src/core/mwm.h"

#include <algorithm>
#include <cmath>

#include "src/graph/subgraph.h"
#include "src/seq/mwm.h"

namespace ecd::core {

using graph::Graph;
using graph::VertexId;

MwmApproxResult mwm_approx(const Graph& g, double eps,
                           const MwmApproxOptions& options) {
  check_eps(eps);
  MwmApproxResult result;
  result.mates.assign(g.num_vertices(), graph::kInvalidVertex);
  result.phases = options.phases > 0
                      ? options.phases
                      : static_cast<int>(std::ceil(4.0 / eps)) + 2;

  for (int phase = 0; phase < result.phases; ++phase) {
    FrameworkOptions fopt = options.framework;
    fopt.weighted_volumes = options.weighted_decomposition;
    fopt.seed = options.framework.seed + 0x51ED2701ULL * (phase + 1);
    if (fopt.deterministic) {
      // Deterministic mode still needs phase-distinct decompositions; the
      // phase index is public information, so this stays deterministic.
      fopt.decomposition.seed += phase + 1;
    }
    Partition partition = partition_and_gather(g, eps, fopt);
    const auto& cluster_of = partition.decomposition.cluster_of;

    const auto mates = solve_clusters(partition, [&](const Cluster& cluster) {
      const auto& sub = cluster.subgraph;
      const int nc = sub.graph.num_vertices();
      // Freeze vertices matched across the cluster boundary; the matching
      // edges fully inside the cluster are up for replacement.
      std::vector<std::int64_t> mate(nc);
      std::vector<VertexId> avail_vertices;
      std::int64_t inside_weight = 0;
      for (VertexId i = 0; i < nc; ++i) {
        const VertexId parent = sub.to_parent[i];
        const VertexId m = result.mates[parent];
        mate[i] = m;
        if (m == graph::kInvalidVertex) {
          avail_vertices.push_back(i);
        } else if (cluster_of[m] == cluster_of[parent]) {
          avail_vertices.push_back(i);
          if (parent < m) inside_weight += g.weight(g.find_edge(parent, m));
        }
      }
      if (avail_vertices.size() < 2) return mate;
      const auto avail = graph::induced_subgraph(sub.graph, avail_vertices);
      seq::Mates local;
      if (avail.graph.num_vertices() <= options.exact_cluster_cap) {
        local = seq::max_weight_matching(avail.graph);
      } else {
        local = seq::greedy_weight_matching(avail.graph);
        ++result.clusters_greedy;
      }
      const std::int64_t new_weight = seq::matching_weight(avail.graph, local);
      if (new_weight < inside_weight) return mate;  // keep-best: stay monotone
      // Replace the inside-cluster matching with the local solution.
      for (VertexId a = 0; a < avail.graph.num_vertices(); ++a) {
        const VertexId b = local[a];
        mate[avail.to_parent[a]] =
            b == graph::kInvalidVertex ? graph::kInvalidVertex
                                       : sub.to_parent[avail.to_parent[b]];
      }
      return mate;
    });
    result.mates.assign(mates.begin(), mates.end());
    result.ledger.merge(partition.ledger);
  }
  result.weight = seq::matching_weight(g, result.mates);
  return result;
}

}  // namespace ecd::core
