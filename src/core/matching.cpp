#include "src/core/matching.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/graph/subgraph.h"

namespace ecd::core {

using graph::Graph;
using graph::VertexId;

StarEliminationResult eliminate_stars(const Graph& g) {
  const int n = g.num_vertices();
  StarEliminationResult result;
  result.removed.assign(n, false);

  // Iterate the two token protocols until fixpoint: each pass costs O(1)
  // rounds (token out, bounce back) and removals only shrink degrees, so in
  // practice two or three passes suffice.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.passes;
    result.rounds_used += 4;

    auto alive_degree_and_nbrs = [&](VertexId v) {
      std::pair<int, std::array<VertexId, 2>> out{0, {-1, -1}};
      for (VertexId u : g.neighbors(v)) {
        if (!result.removed[u]) {
          if (out.first < 2) out.second[out.first] = u;
          ++out.first;
        }
      }
      return out;
    };

    // 2-star elimination: degree-1 vertices token their neighbor, which
    // keeps exactly one (smallest origin id) and bounces the rest.
    std::vector<std::vector<VertexId>> tokens_at(n);
    for (VertexId v = 0; v < n; ++v) {
      if (result.removed[v]) continue;
      const auto [deg, nbrs] = alive_degree_and_nbrs(v);
      if (deg == 1) tokens_at[nbrs[0]].push_back(v);
    }
    for (VertexId c = 0; c < n; ++c) {
      if (tokens_at[c].size() <= 1) continue;
      auto& leaves = tokens_at[c];
      std::sort(leaves.begin(), leaves.end());
      for (std::size_t i = 1; i < leaves.size(); ++i) {
        result.removed[leaves[i]] = true;
        ++result.removed_count;
        changed = true;
      }
    }

    // 3-double-star elimination: degree-2 vertices token the pair of their
    // neighbors; for each pair all but the two smallest origins go.
    std::map<std::pair<VertexId, VertexId>, std::vector<VertexId>> by_pair;
    for (VertexId v = 0; v < n; ++v) {
      if (result.removed[v]) continue;
      const auto [deg, nbrs] = alive_degree_and_nbrs(v);
      if (deg == 2) {
        auto key = std::minmax(nbrs[0], nbrs[1]);
        by_pair[{key.first, key.second}].push_back(v);
      }
    }
    for (auto& [key, companions] : by_pair) {
      if (companions.size() <= 2) continue;
      std::sort(companions.begin(), companions.end());
      for (std::size_t i = 2; i < companions.size(); ++i) {
        result.removed[companions[i]] = true;
        ++result.removed_count;
        changed = true;
      }
    }
  }
  return result;
}

McmApproxResult mcm_planar_approx(const Graph& g, double eps,
                                  const McmApproxOptions& options) {
  check_eps(eps);
  // Preprocess: Ḡ keeps every vertex id but drops edges incident to
  // removed vertices; removed vertices become isolated singletons.
  const auto elimination = eliminate_stars(g);
  std::vector<bool> keep_edge(g.num_edges(), true);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    keep_edge[e] = !elimination.removed[ed.u] && !elimination.removed[ed.v];
  }
  const Graph g_bar = graph::edge_subgraph(g, keep_edge);

  const double eps_prime = eps * options.matching_linearity_constant;
  FrameworkOptions fopt = options.framework;
  fopt.density_bound = 1;  // ε' already carries the structural constant
  Partition partition = partition_and_gather(g_bar, eps_prime, fopt);
  partition.ledger.add_measured("star elimination (token protocol)",
                                elimination.rounds_used);

  McmApproxResult result;
  result.removed_vertices = elimination.removed_count;
  result.num_clusters = static_cast<int>(partition.clusters.size());
  const auto mates = solve_clusters(partition, [](const Cluster& cluster) {
    const auto& to_parent = cluster.subgraph.to_parent;
    const auto local = seq::max_cardinality_matching(cluster.subgraph.graph);
    std::vector<std::int64_t> mate(local.size(), graph::kInvalidVertex);
    for (std::size_t i = 0; i < local.size(); ++i) {
      if (local[i] != graph::kInvalidVertex) mate[i] = to_parent[local[i]];
    }
    return mate;
  });
  result.mates.assign(mates.begin(), mates.end());
  result.matching_size = seq::matching_size(result.mates);
  result.ledger = std::move(partition.ledger);
  return result;
}

}  // namespace ecd::core
