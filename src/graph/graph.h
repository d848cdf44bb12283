// Core immutable graph representation (CSR) plus a mutable builder.
//
// All algorithms in this library operate on `ecd::graph::Graph`: a simple
// undirected graph stored in compressed-sparse-row form, with optional
// per-edge integer weights (for MWM) and signs (for correlation clustering).
//
// Invariants enforced at construction:
//   * no self loops, no parallel edges;
//   * vertex ids are dense in [0, n);
//   * edge ids are dense in [0, m) and `edge(e)` returns endpoints with u < v.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

namespace ecd::graph {

using VertexId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::int64_t;

constexpr VertexId kInvalidVertex = -1;
constexpr EdgeId kInvalidEdge = -1;

// Edge endpoints, normalized so that u < v in stored form.
struct Edge {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// Sign of an edge in a correlation-clustering instance (§3.3 of the paper).
enum class EdgeSign : std::int8_t { kNegative = -1, kPositive = 1 };

// Receiver for Graph::from_edge_stream: the stream calls edge(u, v) once
// per edge, endpoints in either order.
class EdgeSink {
 public:
  virtual void edge(VertexId u, VertexId v) = 0;

 protected:
  ~EdgeSink() = default;
};

// An edge sequence that can be replayed: generate(sink) must emit the
// identical sequence every time it is called. Generators whose edges are a
// pure function of loop indices (grids, paths, hypercubes) satisfy this for
// free; randomized generators would need to reseed per call.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;
  virtual void generate(EdgeSink& sink) = 0;
};

class Graph {
 public:
  Graph() = default;

  // Builds a graph from an edge list. Endpoints may be given in either
  // order; they are normalized. Throws std::invalid_argument on self loops,
  // parallel edges, or out-of-range endpoints.
  static Graph from_edges(int num_vertices, std::vector<Edge> edges);

  // Streaming constructor for large graphs: replays `stream` twice — pass 1
  // counts degrees, pass 2 fills the CSR arrays directly in edge-id order —
  // so peak memory is the final structure plus one n-sized cursor array.
  // from_edges peaks at roughly 2x the edge list on top of that (the list
  // itself plus a sorted copy for the parallel-edge check); here parallel
  // edges are caught by an n-sized stamp sweep over the finished adjacency
  // instead. Given the same edge sequence the result is byte-identical to
  // from_edges (same edge ids, same CSR layout). Throws the same
  // std::invalid_argument family, plus on a stream that does not replay
  // identically.
  static Graph from_edge_stream(int num_vertices, EdgeStream& stream);

  int num_vertices() const { return static_cast<int>(offsets_.size()) - 1; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  int degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }
  int max_degree() const { return max_degree_; }

  // Sum of degrees of all vertices (= 2m for the whole graph).
  std::int64_t volume() const { return 2 * static_cast<std::int64_t>(num_edges()); }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }
  // Edge ids aligned with neighbors(v): incident_edges(v)[i] is the id of the
  // edge {v, neighbors(v)[i]}.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return {incident_.data() + offsets_[v], incident_.data() + offsets_[v + 1]};
  }

  Edge edge(EdgeId e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  // Returns the edge id of {u, v}, or kInvalidEdge if absent. O(deg).
  EdgeId find_edge(VertexId u, VertexId v) const;
  bool has_edge(VertexId u, VertexId v) const {
    return find_edge(u, v) != kInvalidEdge;
  }

  // Given one endpoint of edge `e`, returns the other endpoint.
  VertexId other_endpoint(EdgeId e, VertexId v) const {
    const Edge& ed = edges_[e];
    return ed.u == v ? ed.v : ed.u;
  }

  // --- Optional edge attributes -------------------------------------------

  bool is_weighted() const { return !weights_.empty(); }
  Weight weight(EdgeId e) const { return is_weighted() ? weights_[e] : 1; }
  std::int64_t total_weight() const;
  Weight max_weight() const;
  // Returns a copy of this graph carrying the given weights (size must be m,
  // all weights positive, per the paper's MWM convention).
  Graph with_weights(std::vector<Weight> weights) const;

  bool is_signed() const { return !signs_.empty(); }
  EdgeSign sign(EdgeId e) const { return signs_[e]; }
  // Returns a copy of this graph carrying the given signs (size must be m).
  Graph with_signs(std::vector<EdgeSign> signs) const;

  // Edge density |E| / |V| (0 for the empty-vertex graph).
  double edge_density() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_vertices();
  }

  // Same vertices, same edges in the same id order, same attributes.
  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  std::vector<int> offsets_;        // size n+1
  std::vector<VertexId> adjacency_; // size 2m
  std::vector<EdgeId> incident_;    // size 2m, aligned with adjacency_
  std::vector<Edge> edges_;         // size m, normalized u < v
  std::vector<Weight> weights_;     // empty or size m
  std::vector<EdgeSign> signs_;     // empty or size m
  int max_degree_ = 0;
};

// Incremental edge-list accumulator; ignores duplicate edges and self loops
// on request (useful inside randomized generators).
class GraphBuilder {
 public:
  explicit GraphBuilder(int num_vertices) : num_vertices_(num_vertices) {}

  // Adds edge {u, v}. Returns false (and does nothing) if the edge is a self
  // loop or already present.
  bool add_edge(VertexId u, VertexId v);
  bool has_edge(VertexId u, VertexId v) const;

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  Graph build() &&;

 private:
  static std::uint64_t key(VertexId u, VertexId v);

  int num_vertices_;
  std::vector<Edge> edges_;
  std::unordered_set<std::uint64_t> edge_keys_;
};

}  // namespace ecd::graph
