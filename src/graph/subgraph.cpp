#include "src/graph/subgraph.h"

#include <algorithm>
#include <stdexcept>

namespace ecd::graph {

InducedSubgraph induced_subgraph(const Graph& g,
                                 std::span<const VertexId> vertices) {
  InducedSubgraph out;
  out.to_parent.assign(vertices.begin(), vertices.end());
  std::vector<VertexId> to_local(g.num_vertices(), kInvalidVertex);
  for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
    const VertexId v = vertices[i];
    if (v < 0 || v >= g.num_vertices()) {
      throw std::invalid_argument("vertex out of range");
    }
    if (to_local[v] != kInvalidVertex) {
      throw std::invalid_argument("duplicate vertex in induced set");
    }
    to_local[v] = i;
  }
  // Each edge of G[vertices] is found once, from its lower endpoint's
  // incidence list; sorting by parent id gives the order of a scan over E.
  for (const VertexId v : vertices) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (v < nbrs[j] && to_local[nbrs[j]] != kInvalidVertex) {
        out.edge_to_parent.push_back(eids[j]);
      }
    }
  }
  std::sort(out.edge_to_parent.begin(), out.edge_to_parent.end());
  std::vector<Edge> edges;
  edges.reserve(out.edge_to_parent.size());
  for (const EdgeId e : out.edge_to_parent) {
    const Edge ed = g.edge(e);
    edges.push_back({to_local[ed.u], to_local[ed.v]});
  }
  out.graph = Graph::from_edges(static_cast<int>(vertices.size()),
                                std::move(edges));
  if (g.is_weighted()) {
    std::vector<Weight> w(out.edge_to_parent.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = g.weight(out.edge_to_parent[i]);
    }
    out.graph = out.graph.with_weights(std::move(w));
  }
  if (g.is_signed()) {
    std::vector<EdgeSign> s(out.edge_to_parent.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = g.sign(out.edge_to_parent[i]);
    }
    out.graph = out.graph.with_signs(std::move(s));
  }
  return out;
}

Graph edge_subgraph(const Graph& g, const std::vector<bool>& keep_edge) {
  if (static_cast<int>(keep_edge.size()) != g.num_edges()) {
    throw std::invalid_argument("keep_edge size mismatch");
  }
  std::vector<Edge> edges;
  std::vector<EdgeId> kept;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (keep_edge[e]) {
      edges.push_back(g.edge(e));
      kept.push_back(e);
    }
  }
  Graph out = Graph::from_edges(g.num_vertices(), std::move(edges));
  if (g.is_weighted()) {
    std::vector<Weight> w(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) w[i] = g.weight(kept[i]);
    out = out.with_weights(std::move(w));
  }
  if (g.is_signed()) {
    std::vector<EdgeSign> s(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) s[i] = g.sign(kept[i]);
    out = out.with_signs(std::move(s));
  }
  return out;
}

}  // namespace ecd::graph
