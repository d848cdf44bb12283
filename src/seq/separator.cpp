#include "src/seq/separator.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "src/graph/metrics.h"

namespace ecd::seq {

using graph::Graph;
using graph::VertexId;

namespace {

int cut_of(const Graph& g, const std::vector<bool>& in_s) {
  int cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (in_s[e.u] != in_s[e.v]) ++cut;
  }
  return cut;
}

// Sweeps prefix cuts of `order` within the balanced window and returns the
// best (cut size, prefix length).
std::pair<int, int> best_prefix_cut(const Graph& g,
                                    const std::vector<VertexId>& order) {
  const int n = g.num_vertices();
  std::vector<bool> inside(n, false);
  const int lo = (n + 2) / 3;           // ceil(n/3)
  const int hi = n - lo;                // complement also >= n/3
  int cut = 0;
  int best_cut = -1, best_k = -1;
  for (int k = 0; k < hi; ++k) {
    const VertexId v = order[k];
    int inside_nbrs = 0;
    for (VertexId u : g.neighbors(v)) {
      if (inside[u]) ++inside_nbrs;
    }
    cut += g.degree(v) - 2 * inside_nbrs;
    inside[v] = true;
    const int size = k + 1;
    if (size >= lo && (best_cut == -1 || cut < best_cut)) {
      best_cut = cut;
      best_k = size;
    }
  }
  return {best_cut, best_k};
}

// Fiduccia–Mattheyses-style refinement: greedily move boundary vertices with
// positive gain while both sides stay >= n/3.
void refine(const Graph& g, std::vector<bool>& in_s) {
  const int n = g.num_vertices();
  const int lo = (n + 2) / 3;
  int size_s = static_cast<int>(std::count(in_s.begin(), in_s.end(), true));
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (VertexId v = 0; v < n; ++v) {
      const int from_size = in_s[v] ? size_s : n - size_s;
      if (from_size - 1 < lo) continue;
      int same = 0, other = 0;
      for (VertexId u : g.neighbors(v)) {
        (in_s[u] == in_s[v] ? same : other) += 1;
      }
      if (same < other) {  // strictly improving move
        size_s += in_s[v] ? -1 : 1;
        in_s[v] = !in_s[v];
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

SeparatorResult edge_separator(const Graph& g, std::mt19937_64& rng,
                               int sweeps) {
  const int n = g.num_vertices();
  if (n < 3) throw std::invalid_argument("separator needs n >= 3");

  std::vector<bool> best;
  int best_cut = -1;
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  for (int s = 0; s < sweeps; ++s) {
    const VertexId src = (s == 0) ? 0 : pick(rng);
    const auto dist = graph::bfs_distances(g, src);
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      // Unreachable vertices sort last (kUnreachable is INT_MAX).
      return dist[a] < dist[b];
    });
    const auto [cut, k] = best_prefix_cut(g, order);
    if (k < 0) continue;
    std::vector<bool> in_s(n, false);
    for (int i = 0; i < k; ++i) in_s[order[i]] = true;
    refine(g, in_s);
    const int refined_cut = cut_of(g, in_s);
    if (best_cut == -1 || refined_cut < best_cut) {
      best_cut = refined_cut;
      best = std::move(in_s);
    }
  }

  SeparatorResult result;
  result.in_s = std::move(best);
  result.cut_size = best_cut;
  const int size_s =
      static_cast<int>(std::count(result.in_s.begin(), result.in_s.end(), true));
  result.smaller_side = std::min(size_s, n - size_s);
  return result;
}

}  // namespace ecd::seq
