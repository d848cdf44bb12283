#include "src/expander/conductance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/expander/sweep_cut.h"
#include "src/graph/metrics.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

double cut_conductance(const Graph& g, const std::vector<bool>& in_s) {
  std::int64_t vol_s = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (in_s[v]) vol_s += g.degree(v);
  }
  const std::int64_t vol_rest = g.volume() - vol_s;
  if (vol_s == 0 || vol_rest == 0) return 0.0;
  int cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (in_s[e.u] != in_s[e.v]) ++cut;
  }
  return static_cast<double>(cut) /
         static_cast<double>(std::min(vol_s, vol_rest));
}

double exact_conductance(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 16) throw std::invalid_argument("exact conductance limited to n <= 16");
  if (n < 2 || g.num_edges() == 0) return 0.0;
  if (!graph::is_connected(g)) return 0.0;
  double best = 1e18;
  std::vector<bool> in_s(n);
  // Fix vertex 0 out of S: every cut appears once.
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 1; v < n; ++v) in_s[v] = (mask >> (v - 1)) & 1u;
    in_s[0] = false;
    best = std::min(best, cut_conductance(g, in_s));
  }
  return best == 1e18 ? 0.0 : best;
}

double lambda2_normalized(const Graph& g, int iterations, std::uint64_t seed) {
  if (g.num_vertices() < 2 || g.num_edges() == 0) return 0.0;
  // mu is the Rayleigh quotient of M = (I + N)/2 on the space deflated
  // against phi_1(v) = sqrt(deg v), so lambda2(L) = 2 - 2 mu.
  const PowerIteration it = power_iteration(g, false, iterations, seed);
  if (it.vanished) return 1.0;  // deflated space collapsed: well expanding
  return std::clamp(2.0 * (1.0 - it.mu), 0.0, 2.0);
}

CheegerBounds conductance_bounds(const Graph& g, int iterations,
                                 std::uint64_t seed) {
  const double l2 = lambda2_normalized(g, iterations, seed);
  return {l2 / 2.0, std::sqrt(2.0 * l2)};
}

double certified_conductance_lower_bound(const Graph& g, int exact_threshold,
                                         int iterations, std::uint64_t seed) {
  if (g.num_vertices() <= 1) return 1.0;  // no nontrivial cut exists
  if (g.num_vertices() <= std::min(exact_threshold, 16)) {
    return exact_conductance(g);
  }
  // Power iteration overestimates mu (converges from below in Rayleigh
  // quotient terms is not guaranteed); apply a small safety discount.
  return 0.9 * conductance_bounds(g, iterations, seed).lower;
}

}  // namespace ecd::expander
