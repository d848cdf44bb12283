#include "src/seq/matching.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace ecd::seq {

using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

namespace {

// Edmonds' blossom algorithm, classical O(V^3) formulation with base[]
// contraction (after Gabow's presentation).
class Blossom {
 public:
  explicit Blossom(const Graph& g)
      : g_(g),
        n_(g.num_vertices()),
        mate_(n_, kInvalidVertex),
        parent_(n_, kInvalidVertex),
        base_(n_),
        used_(n_, false),
        in_blossom_(n_, false) {}

  Mates run() {
    // Greedy warm start halves the number of BFS phases in practice.
    for (VertexId v = 0; v < n_; ++v) {
      if (mate_[v] != kInvalidVertex) continue;
      for (VertexId u : g_.neighbors(v)) {
        if (mate_[u] == kInvalidVertex) {
          mate_[v] = u;
          mate_[u] = v;
          break;
        }
      }
    }
    for (VertexId v = 0; v < n_; ++v) {
      if (mate_[v] == kInvalidVertex) {
        const VertexId leaf = find_augmenting_path(v);
        if (leaf != kInvalidVertex) augment_along(leaf);
      }
    }
    return mate_;
  }

 private:
  VertexId lowest_common_ancestor(VertexId a, VertexId b) {
    std::vector<bool> seen(n_, false);
    for (;;) {
      a = base_[a];
      seen[a] = true;
      if (mate_[a] == kInvalidVertex) break;
      a = parent_[mate_[a]];
    }
    for (;;) {
      b = base_[b];
      if (seen[b]) return b;
      b = parent_[mate_[b]];
    }
  }

  void mark_path(VertexId v, VertexId stem, VertexId child) {
    while (base_[v] != stem) {
      in_blossom_[base_[v]] = true;
      in_blossom_[base_[mate_[v]]] = true;
      parent_[v] = child;
      child = mate_[v];
      v = parent_[mate_[v]];
    }
  }

  // BFS from `root` over the alternating forest; returns an unmatched leaf
  // reachable by an augmenting path, or kInvalidVertex.
  VertexId find_augmenting_path(VertexId root) {
    std::fill(used_.begin(), used_.end(), false);
    std::fill(parent_.begin(), parent_.end(), kInvalidVertex);
    for (VertexId v = 0; v < n_; ++v) base_[v] = v;

    used_[root] = true;
    std::queue<VertexId> q;
    q.push(root);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (VertexId to : g_.neighbors(v)) {
        if (base_[v] == base_[to] || mate_[v] == to) continue;
        if (to == root ||
            (mate_[to] != kInvalidVertex &&
             parent_[mate_[to]] != kInvalidVertex)) {
          // Odd cycle: contract the blossom around the common ancestor.
          const VertexId stem = lowest_common_ancestor(v, to);
          std::fill(in_blossom_.begin(), in_blossom_.end(), false);
          mark_path(v, stem, to);
          mark_path(to, stem, v);
          for (VertexId i = 0; i < n_; ++i) {
            if (in_blossom_[base_[i]]) {
              base_[i] = stem;
              if (!used_[i]) {
                used_[i] = true;
                q.push(i);
              }
            }
          }
        } else if (parent_[to] == kInvalidVertex) {
          parent_[to] = v;
          if (mate_[to] == kInvalidVertex) return to;
          used_[mate_[to]] = true;
          q.push(mate_[to]);
        }
      }
    }
    return kInvalidVertex;
  }

  void augment_along(VertexId leaf) {
    VertexId v = leaf;
    while (v != kInvalidVertex) {
      const VertexId pv = parent_[v];
      const VertexId next = mate_[pv];
      mate_[v] = pv;
      mate_[pv] = v;
      v = next;
    }
  }

  const Graph& g_;
  int n_;
  Mates mate_;
  std::vector<VertexId> parent_;
  std::vector<VertexId> base_;
  std::vector<bool> used_;
  std::vector<bool> in_blossom_;
};

}  // namespace

Mates max_cardinality_matching(const Graph& g) { return Blossom(g).run(); }

Mates greedy_maximal_matching(const Graph& g) {
  Mates mate(g.num_vertices(), kInvalidVertex);
  for (const graph::Edge& e : g.edges()) {
    if (mate[e.u] == kInvalidVertex && mate[e.v] == kInvalidVertex) {
      mate[e.u] = e.v;
      mate[e.v] = e.u;
    }
  }
  return mate;
}

int matching_size(const Mates& mates) {
  int matched = 0;
  for (VertexId v = 0; v < static_cast<VertexId>(mates.size()); ++v) {
    if (mates[v] != kInvalidVertex) ++matched;
  }
  return matched / 2;
}

bool is_valid_matching(const Graph& g, const Mates& mates) {
  if (static_cast<int>(mates.size()) != g.num_vertices()) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId u = mates[v];
    if (u == kInvalidVertex) continue;
    if (u < 0 || u >= g.num_vertices() || mates[u] != v || u == v) return false;
    if (!g.has_edge(u, v)) return false;
  }
  return true;
}

std::vector<graph::EdgeId> matching_edges(const Graph& g, const Mates& mates) {
  std::vector<graph::EdgeId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (mates[v] != kInvalidVertex && v < mates[v]) {
      const graph::EdgeId e = g.find_edge(v, mates[v]);
      if (e == graph::kInvalidEdge) throw std::logic_error("mate is not an edge");
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace ecd::seq
