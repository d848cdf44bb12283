#include "src/expander/sweep_cut.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>

#include "src/graph/splitmix.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

SweepResult sweep_cut(const Graph& g, const std::vector<double>& score,
                      bool weighted) {
  const int n = g.num_vertices();
  SweepResult result;
  if (n < 2 || g.num_edges() == 0) return result;

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&score](VertexId a, VertexId b) { return score[a] < score[b]; });

  std::vector<bool> inside(n, false);
  const std::int64_t vol_total = weighted ? 2 * g.total_weight() : g.volume();
  std::int64_t vol_s = 0, cut = 0;
  double best = 1e18;
  int best_k = -1;
  for (int k = 0; k + 1 < n; ++k) {
    const VertexId v = order[k];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::int64_t w = weighted ? g.weight(eids[i]) : 1;
      cut += inside[nbrs[i]] ? -w : w;
      vol_s += w;
    }
    inside[v] = true;
    const std::int64_t small_vol = std::min(vol_s, vol_total - vol_s);
    if (small_vol <= 0) continue;
    const double phi = static_cast<double>(cut) / static_cast<double>(small_vol);
    if (phi < best) {
      best = phi;
      best_k = k + 1;
    }
  }
  if (best_k < 0) return result;
  result.in_s.assign(n, false);
  for (int i = 0; i < best_k; ++i) result.in_s[order[i]] = true;
  result.conductance = best;
  result.valid = true;
  return result;
}

PowerIteration power_iteration(const Graph& g, bool weighted, int iterations,
                               std::uint64_t seed) {
  const int n = g.num_vertices();
  const auto edges = g.edges();
  const auto weight = [&](graph::EdgeId e) {
    return weighted ? static_cast<double>(g.weight(e)) : 1.0;
  };
  PowerIteration it;
  it.degree.assign(n, 0.0);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    it.degree[edges[e].u] += weight(e);
    it.degree[edges[e].v] += weight(e);
  }
  auto& sqrt_deg = it.sqrt_degree;
  sqrt_deg.resize(n);
  double phi1_norm_sq = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    sqrt_deg[v] = std::sqrt(it.degree[v]);
    phi1_norm_sq += it.degree[v];
  }
  // One coefficient c_e = w_e / (sqrt(d_u) sqrt(d_v)) per edge, so a step
  // is division-free.
  std::vector<double> coef(edges.size());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    coef[e] = weight(e) / (sqrt_deg[edges[e].u] * sqrt_deg[edges[e].v]);
  }

  // Writes (y - k sqrt(d)) / |y - k sqrt(d)| to x, k = dot / |sqrt(d)|^2,
  // from the sums dot = y·sqrt(d) and sq = y·y of the caller's pass over y:
  // |y - k sqrt(d)|^2 = sq - k dot. Returns k, or nullopt (x untouched) when
  // the deflated y is 0.
  auto& x = it.x;
  std::vector<double> y(n);
  const auto deflate_normalize = [&](double dot,
                                     double sq) -> std::optional<double> {
    const double k = phi1_norm_sq > 0 ? dot / phi1_norm_sq : 0.0;
    const double norm_sq = sq - k * dot;
    if (!(norm_sq > 0.0)) return std::nullopt;
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (int v = 0; v < n; ++v) x[v] = (y[v] - k * sqrt_deg[v]) * inv_norm;
    return k;
  };

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  double dot = 0.0, sq = 0.0;
  for (int v = 0; v < n; ++v) {
    y[v] = unit(rng);
    dot += y[v] * sqrt_deg[v];
    sq += y[v] * y[v];
  }
  x = y;
  if (!deflate_normalize(dot, sq)) {
    it.vanished = true;
    return it;
  }
  for (int step = 0; step < iterations; ++step) {
    // y = M x = (x + N x) / 2. The edge pass goes in id order, which is
    // each vertex's CSR row order, so every vertex sums its terms in the
    // order the per-row loops did.
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const graph::Edge ed = edges[e];
      y[ed.u] += coef[e] * x[ed.v];
      y[ed.v] += coef[e] * x[ed.u];
    }
    // The Rayleigh quotient x·(y - k sqrt(d)) is only read after the last
    // step; summing it every step would cost two more dependency chains.
    const bool last = step + 1 == iterations;
    double xy = 0.0, xs = 0.0;
    dot = sq = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double yv = 0.5 * (x[v] + y[v]);
      y[v] = yv;
      dot += yv * sqrt_deg[v];
      sq += yv * yv;
      if (last) {
        xy += x[v] * yv;
        xs += x[v] * sqrt_deg[v];
      }
    }
    const auto k = deflate_normalize(dot, sq);
    if (!k) {
      it.vanished = true;
      break;
    }
    if (last) it.mu = xy - *k * xs;
  }
  return it;
}

std::vector<double> fiedler_coordinates(const PowerIteration& it) {
  const std::size_t n = it.x.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (it.sqrt_degree[v] > 0) out[v] = it.x[v] / it.sqrt_degree[v];
  }
  return out;
}

double lambda2(const PowerIteration& it) {
  return it.vanished ? 1.0 : std::clamp(2.0 * (1.0 - it.mu), 0.0, 2.0);
}

SweepResult spectral_cut(const Graph& g, int iterations, std::uint64_t seed,
                         int restarts) {
  SweepResult best;
  std::optional<double> l2;  // smallest λ2 of a kept iteration
  for (int r = 0; r < restarts; ++r) {
    // Per-restart sub-seeds are splitmix-derived, not small additive
    // offsets: seed + 7919·r made nearby user seeds share restart streams
    // (seed 1 restart 1 == seed 7920 restart 0) and fed mt19937_64 with
    // correlated state.
    const PowerIteration it = power_iteration(
        g, false, iterations,
        graph::splitmix64(seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<std::uint64_t>(r)));
    if (!it.vanished) l2 = std::min(l2.value_or(lambda2(it)), lambda2(it));
    auto cut = sweep_cut(g, fiedler_coordinates(it));
    if (cut.valid && (!best.valid || cut.conductance < best.conductance)) {
      best = std::move(cut);
    }
  }
  best.lambda2 = l2 ? *l2 : restarts > 0 ? 1.0 : 0.0;
  return best;
}

}  // namespace ecd::expander
