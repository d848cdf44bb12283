// Demoucron–Malgrange–Pertuiset planarity testing (1964): incremental face
// embedding. Correct on biconnected graphs; a graph is planar iff all its
// biconnected components are, so the entry point decomposes first.
//
// Invariant per step: H is a planar embedded subgraph with an explicit face
// list. Every *fragment* of G relative to H (a chord between embedded
// vertices, or a component of G - V(H) plus its attachment edges) must be
// drawable inside a single face containing all its attachments. Greedy rule
// (the theorem behind the algorithm): embedding any path of a fragment with
// a minimal count of admissible faces never turns a planar graph
// unembeddable; zero admissible faces certifies non-planarity.
#include "tests/oracles/demoucron.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/planarity.h"

namespace ecd::seq {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

namespace {

class Demoucron {
 public:
  explicit Demoucron(const Graph& g) : g_(g), n_(g.num_vertices()) {}

  bool run() {
    if (g_.num_edges() <= 2) return true;
    if (!satisfies_euler_bound(g_)) return false;

    embedded_vertex_.assign(n_, false);
    embedded_edge_.assign(g_.num_edges(), false);

    // Seed: any cycle (a biconnected graph with >= 3 edges has one).
    const auto cycle = find_cycle();
    if (cycle.empty()) return true;  // acyclic block: a single edge
    faces_.clear();
    faces_.push_back(cycle);
    faces_.push_back(cycle);  // inside and outside of the seed cycle
    for (VertexId v : cycle) embedded_vertex_[v] = true;
    mark_cycle_edges(cycle);

    for (;;) {
      const auto fragments = collect_fragments();
      if (fragments.empty()) return true;
      // Pick the fragment with the fewest admissible faces.
      int best = -1;
      std::vector<int> best_faces;
      for (int i = 0; i < static_cast<int>(fragments.size()); ++i) {
        std::vector<int> admissible;
        for (int f = 0; f < static_cast<int>(faces_.size()); ++f) {
          if (face_contains_all(f, fragments[i].attachments)) {
            admissible.push_back(f);
          }
        }
        if (admissible.empty()) return false;  // trapped fragment
        if (best == -1 ||
            admissible.size() < best_faces.size()) {
          best = i;
          best_faces = std::move(admissible);
        }
      }
      embed_fragment_path(fragments[best], best_faces.front());
    }
  }

 private:
  struct Fragment {
    // Interior (non-embedded) vertices; empty for a chord.
    std::vector<VertexId> interior;
    std::vector<VertexId> attachments;  // embedded vertices touched
    EdgeId chord = graph::kInvalidEdge;  // set iff the fragment is one edge
  };

  std::vector<VertexId> find_cycle() const {
    // Proper iterative DFS: in an undirected DFS every non-tree edge is a
    // back edge, so the parent walk from v always reaches u.
    std::vector<VertexId> parent(n_, graph::kInvalidVertex);
    std::vector<int> state(n_, 0);  // 0 unseen, 1 on stack/visited
    struct Frame {
      VertexId v;
      std::size_t idx;
    };
    for (VertexId root = 0; root < n_; ++root) {
      if (state[root] != 0) continue;
      std::vector<Frame> stack{{root, 0}};
      state[root] = 1;
      while (!stack.empty()) {
        Frame& f = stack.back();
        const auto nbrs = g_.neighbors(f.v);
        if (f.idx >= nbrs.size()) {
          stack.pop_back();
          continue;
        }
        const VertexId u = nbrs[f.idx++];
        if (u == parent[f.v]) continue;
        if (state[u] == 0) {
          state[u] = 1;
          parent[u] = f.v;
          stack.push_back({u, 0});
        } else {
          // Back edge {f.v, u}: u is an ancestor of f.v.
          std::vector<VertexId> path{f.v};
          VertexId w = f.v;
          while (w != u) {
            w = parent[w];
            path.push_back(w);
          }
          return path;
        }
      }
    }
    return {};
  }

  void mark_cycle_edges(const std::vector<VertexId>& cycle) {
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const VertexId a = cycle[i];
      const VertexId b = cycle[(i + 1) % cycle.size()];
      embedded_edge_[g_.find_edge(a, b)] = true;
    }
  }

  std::vector<Fragment> collect_fragments() const {
    std::vector<Fragment> fragments;
    // Chords: non-embedded edges between embedded vertices.
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      if (embedded_edge_[e]) continue;
      const graph::Edge ed = g_.edge(e);
      if (embedded_vertex_[ed.u] && embedded_vertex_[ed.v]) {
        Fragment f;
        f.attachments = {ed.u, ed.v};
        f.chord = e;
        fragments.push_back(std::move(f));
      }
    }
    // Components of G - embedded vertices.
    std::vector<bool> seen(n_, false);
    for (VertexId s = 0; s < n_; ++s) {
      if (embedded_vertex_[s] || seen[s]) continue;
      Fragment f;
      std::set<VertexId> attach;
      std::queue<VertexId> q;
      seen[s] = true;
      q.push(s);
      while (!q.empty()) {
        const VertexId v = q.front();
        q.pop();
        f.interior.push_back(v);
        for (VertexId u : g_.neighbors(v)) {
          if (embedded_vertex_[u]) {
            attach.insert(u);
          } else if (!seen[u]) {
            seen[u] = true;
            q.push(u);
          }
        }
      }
      f.attachments.assign(attach.begin(), attach.end());
      fragments.push_back(std::move(f));
    }
    return fragments;
  }

  bool face_contains_all(int face,
                         const std::vector<VertexId>& attachments) const {
    const auto& fv = faces_[face];
    for (VertexId a : attachments) {
      if (std::find(fv.begin(), fv.end(), a) == fv.end()) return false;
    }
    return true;
  }

  // Finds a path between two attachments through the fragment interior.
  std::vector<VertexId> path_through(const Fragment& f) const {
    if (f.chord != graph::kInvalidEdge) {
      return {g_.edge(f.chord).u, g_.edge(f.chord).v};
    }
    // BFS from one attachment through interior vertices to any other
    // attachment (biconnected => >= 2 attachments exist).
    const VertexId start = f.attachments.front();
    std::vector<VertexId> parent(n_, graph::kInvalidVertex);
    std::vector<bool> interior(n_, false), visited(n_, false);
    for (VertexId v : f.interior) interior[v] = true;
    std::queue<VertexId> q;
    visited[start] = true;
    q.push(start);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (VertexId u : g_.neighbors(v)) {
        if (visited[u]) continue;
        if (embedded_vertex_[u]) {
          if (v != start && u != start) {
            // Path start ... v - u ends at another embedded vertex.
            std::vector<VertexId> path{u, v};
            VertexId w = v;
            while (parent[w] != graph::kInvalidVertex) {
              w = parent[w];
              path.push_back(w);
            }
            std::reverse(path.begin(), path.end());
            return path;
          }
          continue;
        }
        if (!interior[u]) continue;
        visited[u] = true;
        parent[u] = v;
        q.push(u);
      }
    }
    return {};  // unreachable in a biconnected block
  }

  void embed_fragment_path(const Fragment& f, int face) {
    const auto path = path_through(f);
    if (path.size() < 2) {
      // Degenerate fragment (single attachment); only possible if the
      // block is not biconnected — treat as embeddable.
      for (VertexId v : f.interior) embedded_vertex_[v] = true;
      return;
    }
    // Mark path vertices/edges embedded.
    for (VertexId v : path) embedded_vertex_[v] = true;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      embedded_edge_[g_.find_edge(path[i], path[i + 1])] = true;
    }
    // Split the face along the path endpoints.
    const VertexId a = path.front();
    const VertexId b = path.back();
    const auto& fv = faces_[face];
    const auto ia = std::find(fv.begin(), fv.end(), a) - fv.begin();
    auto ib = std::find(fv.begin(), fv.end(), b) - fv.begin();
    const int len = static_cast<int>(fv.size());
    // Face boundary split into two arcs a..b and b..a (cyclic).
    std::vector<VertexId> arc1, arc2;
    for (int i = static_cast<int>(ia);; i = (i + 1) % len) {
      arc1.push_back(fv[i]);
      if (i == static_cast<int>(ib)) break;
    }
    for (int i = static_cast<int>(ib);; i = (i + 1) % len) {
      arc2.push_back(fv[i]);
      if (i == static_cast<int>(ia)) break;
    }
    // New faces: arc + reversed path interior (path runs a -> b).
    std::vector<VertexId> face1 = arc1;  // a..b
    for (std::size_t i = path.size() - 2; i >= 1; --i) {
      face1.push_back(path[i]);
      if (i == 1) break;
    }
    std::vector<VertexId> face2 = arc2;  // b..a
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      face2.push_back(path[i]);
    }
    faces_[face] = std::move(face1);
    faces_.push_back(std::move(face2));
  }

  const Graph& g_;
  int n_;
  std::vector<bool> embedded_vertex_;
  std::vector<bool> embedded_edge_;
  std::vector<std::vector<VertexId>> faces_;
};

}  // namespace

bool is_planar_demoucron(const Graph& g) {
  if (g.num_vertices() <= 4) return true;
  if (!satisfies_euler_bound(g)) return false;
  for (const auto& block_edges : graph::biconnected_components(g)) {
    if (block_edges.size() <= 2) continue;
    // Build the block as its own graph.
    std::set<VertexId> vertex_set;
    for (EdgeId e : block_edges) {
      vertex_set.insert(g.edge(e).u);
      vertex_set.insert(g.edge(e).v);
    }
    std::vector<VertexId> vertices(vertex_set.begin(), vertex_set.end());
    std::vector<VertexId> local(g.num_vertices(), graph::kInvalidVertex);
    for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
      local[vertices[i]] = i;
    }
    std::vector<graph::Edge> edges;
    for (EdgeId e : block_edges) {
      edges.push_back({local[g.edge(e).u], local[g.edge(e).v]});
    }
    const Graph block = Graph::from_edges(
        static_cast<int>(vertices.size()), std::move(edges));
    if (!Demoucron(block).run()) return false;
  }
  return true;
}

}  // namespace ecd::seq
