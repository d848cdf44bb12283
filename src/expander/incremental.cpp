#include "src/expander/incremental.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/expander/skeleton.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {

using congest::ChurnEvent;
using congest::ChurnKind;
using graph::Edge;
using graph::Graph;
using graph::VertexId;

Graph apply_churn_to_graph(const Graph& g,
                           std::span<const ChurnEvent> events) {
  // An ordered set keeps the mutation loop simple and the resulting edge
  // ids deterministic (sorted by endpoints). Host-side helper — this never
  // runs on the simulated round path.
  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : g.edges()) edges.insert({e.u, e.v});
  const auto norm = [](VertexId u, VertexId v) {
    return std::make_pair(std::min(u, v), std::max(u, v));
  };
  for (const ChurnEvent& e : events) {
    switch (e.kind) {
      case ChurnKind::kEdgeDelete:
        edges.erase(norm(e.u, e.v));
        break;
      case ChurnKind::kEdgeInsert:
        edges.insert(norm(e.u, e.v));
        break;
      case ChurnKind::kNodeLeave: {
        for (auto it = edges.begin(); it != edges.end();) {
          if (it->first == e.u || it->second == e.u) {
            it = edges.erase(it);
          } else {
            ++it;
          }
        }
        break;
      }
      case ChurnKind::kNodeJoin:
        break;  // edges are not restored; the plan schedules inserts
    }
  }
  std::vector<Edge> list;
  list.reserve(edges.size());
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return Graph::from_edges(g.num_vertices(), std::move(list));
}

IncrementalRefreshResult refresh_decomposition(
    const ExpanderDecomposition& old_d, const Graph& new_graph,
    std::span<const ChurnEvent> events, double eps,
    const IncrementalRefreshOptions& options) {
  const int n = new_graph.num_vertices();
  if (static_cast<int>(old_d.cluster_of.size()) != n) {
    throw std::invalid_argument(
        "refresh_decomposition: old decomposition labels a different vertex "
        "count than new_graph");
  }
  IncrementalRefreshResult result;

  // 1. Dirty clusters: the old cluster of every event endpoint.
  std::vector<char> dirty_cluster(std::max(1, old_d.num_clusters), 0);
  const auto mark = [&](VertexId v) {
    dirty_cluster[old_d.cluster_of[v]] = 1;
  };
  for (const ChurnEvent& e : events) {
    mark(e.u);
    if (e.kind == ChurnKind::kEdgeInsert || e.kind == ChurnKind::kEdgeDelete) {
      mark(e.v);
    }
  }
  for (int c = 0; c < old_d.num_clusters; ++c) {
    if (dirty_cluster[c]) ++result.dirty_clusters;
  }
  if (result.dirty_clusters == 0) {
    // Nothing touched: the old labels stand, only the edge-level fields
    // need re-deriving against the new graph (a no-event call is a cheap
    // way to re-anchor a decomposition on a rebuilt Graph object).
    result.decomposition = old_d;
    count_inter_cluster(new_graph, result.decomposition);
    return result;
  }

  // 2. Dirty vertices: the members of the dirty clusters, in id order.
  std::vector<VertexId> dirty;
  for (VertexId v = 0; v < n; ++v) {
    if (dirty_cluster[old_d.cluster_of[v]]) dirty.push_back(v);
  }
  result.dirty_vertices = static_cast<int>(dirty.size());

  // 3. Fallback: once most of the graph is dirty, a full re-decomposition
  // costs about the same and restores the ε contract exactly.
  if (static_cast<double>(dirty.size()) >
      options.full_rebuild_fraction * static_cast<double>(n)) {
    DistributedDecompositionResult full =
        distributed_expander_decompose(new_graph, eps, options.decomposition);
    result.decomposition = std::move(full.decomposition);
    result.rounds = full.stats.rounds;
    result.fell_back_to_full = true;
    return result;
  }

  // 4. Re-decompose the dirty region of the *new* graph only.
  const graph::InducedSubgraph sub = graph::induced_subgraph(new_graph, dirty);
  ExpanderDecomposition piece;
  double piece_phi = old_d.phi;
  if (sub.graph.num_edges() == 0) {
    // Edgeless dirty region: every vertex is its own (vacuously expanding)
    // cluster; no CONGEST rounds are spent.
    piece.num_clusters = sub.graph.num_vertices();
    piece.cluster_of.resize(sub.graph.num_vertices());
    for (int i = 0; i < sub.graph.num_vertices(); ++i) piece.cluster_of[i] = i;
    piece.cluster_phi_certified.assign(sub.graph.num_vertices(), 1.0);
  } else {
    DistributedDecompositionResult rerun =
        distributed_expander_decompose(sub.graph, eps, options.decomposition);
    piece = std::move(rerun.decomposition);
    result.rounds = rerun.stats.rounds;
    piece_phi = piece.phi;
  }

  // 5. Splice: clean clusters keep their membership under dense relabeling
  // (id order), the piece's clusters follow at an offset.
  std::vector<int> clean_id(std::max(1, old_d.num_clusters), -1);
  int next = 0;
  for (int c = 0; c < old_d.num_clusters; ++c) {
    if (!dirty_cluster[c]) clean_id[c] = next++;
  }
  ExpanderDecomposition merged;
  merged.num_clusters = next + piece.num_clusters;
  merged.cluster_of.assign(n, -1);
  for (VertexId v = 0; v < n; ++v) {
    const int c = old_d.cluster_of[v];
    if (!dirty_cluster[c]) merged.cluster_of[v] = clean_id[c];
  }
  for (int i = 0; i < static_cast<int>(dirty.size()); ++i) {
    merged.cluster_of[sub.to_parent[i]] = next + piece.cluster_of[i];
  }
  merged.cluster_phi_certified.assign(merged.num_clusters, 0.0);
  for (int c = 0; c < old_d.num_clusters; ++c) {
    if (clean_id[c] >= 0 &&
        c < static_cast<int>(old_d.cluster_phi_certified.size())) {
      merged.cluster_phi_certified[clean_id[c]] =
          old_d.cluster_phi_certified[c];
    }
  }
  for (int c = 0; c < piece.num_clusters; ++c) {
    if (c < static_cast<int>(piece.cluster_phi_certified.size())) {
      merged.cluster_phi_certified[next + c] = piece.cluster_phi_certified[c];
    }
  }
  merged.phi = old_d.phi > 0.0 ? std::min(old_d.phi, piece_phi) : piece_phi;
  count_inter_cluster(new_graph, merged);
  result.decomposition = std::move(merged);
  return result;
}

}  // namespace ecd::expander
