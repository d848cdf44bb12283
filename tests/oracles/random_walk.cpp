#include "tests/oracles/random_walk.h"

#include <algorithm>
#include <cmath>

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

std::vector<double> stationary_distribution(const Graph& g) {
  std::vector<double> pi(g.num_vertices(), 0.0);
  const double vol = static_cast<double>(g.volume());
  if (vol == 0) return pi;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    pi[v] = g.degree(v) / vol;
  }
  return pi;
}

std::vector<double> lazy_walk_distribution(const Graph& g, VertexId source,
                                           int steps) {
  const int n = g.num_vertices();
  std::vector<double> p(n, 0.0), next(n, 0.0);
  p[source] = 1.0;
  for (int t = 0; t < steps; ++t) {
    for (VertexId u = 0; u < n; ++u) next[u] = 0.5 * p[u];
    for (VertexId u = 0; u < n; ++u) {
      if (p[u] == 0.0 || g.degree(u) == 0) continue;
      const double share = 0.5 * p[u] / g.degree(u);
      for (VertexId w : g.neighbors(u)) next[w] += share;
    }
    p.swap(next);
  }
  return p;
}

std::optional<int> mixing_time_from(const Graph& g, VertexId source,
                                    int max_steps) {
  const int n = g.num_vertices();
  const auto pi = stationary_distribution(g);
  std::vector<double> p(n, 0.0), next(n, 0.0);
  p[source] = 1.0;
  auto mixed = [&] {
    for (VertexId u = 0; u < n; ++u) {
      if (std::abs(p[u] - pi[u]) > pi[u] / n + 1e-15) return false;
    }
    return true;
  };
  if (mixed()) return 0;
  for (int t = 1; t <= max_steps; ++t) {
    for (VertexId u = 0; u < n; ++u) next[u] = 0.5 * p[u];
    for (VertexId u = 0; u < n; ++u) {
      if (p[u] == 0.0 || g.degree(u) == 0) continue;
      const double share = 0.5 * p[u] / g.degree(u);
      for (VertexId w : g.neighbors(u)) next[w] += share;
    }
    p.swap(next);
    if (mixed()) return t;
  }
  return std::nullopt;
}

std::optional<int> mixing_time_estimate(const Graph& g, int max_steps,
                                        int extra_sources) {
  const int n = g.num_vertices();
  if (n == 0) return 0;
  VertexId min_deg_vertex = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (g.degree(v) < g.degree(min_deg_vertex)) min_deg_vertex = v;
  }
  std::optional<int> worst = mixing_time_from(g, min_deg_vertex, max_steps);
  if (!worst) return std::nullopt;
  for (int i = 0; i < extra_sources; ++i) {
    const VertexId src =
        static_cast<VertexId>((static_cast<std::int64_t>(i + 1) * n) /
                              (extra_sources + 1)) %
        n;
    const std::optional<int> t = mixing_time_from(g, src, max_steps);
    if (!t) return std::nullopt;
    worst = std::max(*worst, *t);
  }
  return worst;
}

}  // namespace ecd::expander
