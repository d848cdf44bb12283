#include "src/expander/conductance.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/graph/metrics.h"

namespace ecd::expander {

using graph::Graph;

double cut_conductance(const Graph& g, const std::vector<bool>& in_s,
                       bool weighted) {
  std::int64_t cut = 0, vol_s = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    const std::int64_t w = weighted ? g.weight(e) : 1;
    vol_s += w * (in_s[ed.u] + in_s[ed.v]);
    if (in_s[ed.u] != in_s[ed.v]) cut += w;
  }
  const std::int64_t vol = weighted ? 2 * g.total_weight() : g.volume();
  const std::int64_t small_vol = std::min(vol_s, vol - vol_s);
  return small_vol > 0
             ? static_cast<double>(cut) / static_cast<double>(small_vol)
             : 0.0;
}

SweepResult exact_min_cut(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 16) throw std::invalid_argument("exact cuts limited to n <= 16");
  SweepResult best;
  if (n < 2 || g.num_edges() == 0) return best;
  std::vector<bool> in_s(n);
  // Fix vertex 0 out of S: every cut appears once.
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 1; v < n; ++v) in_s[v] = (mask >> (v - 1)) & 1u;
    const double phi = cut_conductance(g, in_s);
    if (phi > 0.0 && (!best.valid || phi < best.conductance)) {
      best.in_s = in_s;
      best.conductance = phi;
      best.valid = true;
    }
  }
  return best;
}

double exact_conductance(const Graph& g) {
  const SweepResult cut = exact_min_cut(g);
  // On a connected graph every nontrivial cut has conductance > 0, so the
  // minimum cut exact_min_cut keeps is Φ(G).
  return cut.valid && graph::is_connected(g) ? cut.conductance : 0.0;
}

double lambda2_normalized(const Graph& g, int iterations, std::uint64_t seed) {
  if (g.num_vertices() < 2 || g.num_edges() == 0) return 0.0;
  return lambda2(power_iteration(g, false, iterations, seed));
}

CheegerBounds conductance_bounds(const Graph& g, int iterations,
                                 std::uint64_t seed) {
  const double l2 = lambda2_normalized(g, iterations, seed);
  return {l2 / 2.0, std::sqrt(2.0 * l2)};
}

double cheeger_certificate(double lambda2) { return 0.9 * (lambda2 / 2.0); }

double certified_conductance_lower_bound(const Graph& g, int exact_threshold,
                                         int iterations, std::uint64_t seed) {
  if (g.num_vertices() <= 1) return 1.0;  // no nontrivial cut exists
  if (g.num_vertices() <= std::min(exact_threshold, 16)) {
    return exact_conductance(g);
  }
  return cheeger_certificate(lambda2_normalized(g, iterations, seed));
}

}  // namespace ecd::expander
