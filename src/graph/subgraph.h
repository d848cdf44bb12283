// Induced-subgraph extraction with bidirectional vertex maps.
//
// The framework's cluster leaders operate on G[V_i]; this helper produces
// that induced subgraph together with local<->parent id translation, and
// carries edge weights/signs through so weighted applications work per
// cluster unchanged.
#pragma once

#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::graph {

struct InducedSubgraph {
  Graph graph;
  // local vertex id -> parent vertex id (size = graph.num_vertices()).
  std::vector<VertexId> to_parent;
  // local edge id -> parent edge id (size = graph.num_edges()).
  std::vector<EdgeId> edge_to_parent;

  friend bool operator==(const InducedSubgraph&,
                         const InducedSubgraph&) = default;
};

// Builds G[vertices]. `vertices` must be distinct and in range.
InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const VertexId> vertices);

// Builds the subgraph on the same vertex set containing exactly the edges
// for which `keep_edge[e]` is true (edge-induced restriction, used when the
// decomposition removes inter-cluster edges).
Graph edge_subgraph(const Graph& g, const std::vector<bool>& keep_edge);

}  // namespace ecd::graph
