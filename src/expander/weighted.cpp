#include "src/expander/weighted.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/expander/sweep_cut.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

namespace {

std::vector<double> weighted_degrees(const Graph& g) {
  std::vector<double> wd(g.num_vertices(), 0.0);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    wd[ed.u] += static_cast<double>(g.weight(e));
    wd[ed.v] += static_cast<double>(g.weight(e));
  }
  return wd;
}

}  // namespace

double weighted_cut_conductance(const Graph& g, const std::vector<bool>& in_s) {
  const auto wd = weighted_degrees(g);
  double vol_s = 0.0, vol_total = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vol_total += wd[v];
    if (in_s[v]) vol_s += wd[v];
  }
  const double vol_rest = vol_total - vol_s;
  if (vol_s <= 0.0 || vol_rest <= 0.0) return 0.0;
  double cut = 0.0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (in_s[ed.u] != in_s[ed.v]) cut += static_cast<double>(g.weight(e));
  }
  return cut / std::min(vol_s, vol_rest);
}

std::vector<double> weighted_fiedler_embedding(const Graph& g, int iterations,
                                               std::uint64_t seed) {
  return fiedler_coordinates(power_iteration(g, true, iterations, seed));
}

namespace {

struct WeightedSweep {
  std::vector<bool> in_s;
  double conductance = 0.0;
  bool valid = false;
};

// Weighted sweep cut over the embedding; `wd` holds the weighted degrees.
WeightedSweep weighted_sweep_cut(const Graph& g,
                                 const std::vector<double>& score,
                                 const std::vector<double>& wd) {
  const int n = g.num_vertices();
  WeightedSweep result;
  if (n < 2 || g.num_edges() == 0) return result;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](VertexId a, VertexId b) {
    return score[a] < score[b];
  });
  std::vector<bool> inside(n, false);
  double vol_total = 0.0;
  for (double w : wd) vol_total += w;
  double vol_s = 0.0, cut = 0.0, best = 1e18;
  int best_k = -1;
  for (int k = 0; k + 1 < n; ++k) {
    const VertexId v = order[k];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double w = static_cast<double>(g.weight(eids[i]));
      cut += inside[nbrs[i]] ? -w : w;
    }
    inside[v] = true;
    vol_s += wd[v];
    const double small = std::min(vol_s, vol_total - vol_s);
    if (small <= 0) continue;
    const double phi = cut / small;
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

}  // namespace

WeightedDecomposition expander_decompose_weighted(
    const Graph& g, double eps, const DecompositionOptions& options) {
  if (eps <= 0.0 || eps >= 1.0) throw std::invalid_argument("eps out of (0,1)");
  const std::int64_t total_weight = g.total_weight();
  double phi = options.phi;
  if (phi <= 0.0) {
    const double logm =
        std::max(1.0, std::log2(static_cast<double>(std::max(2, g.num_edges()))));
    phi = eps / (8.0 * logm);
  }

  ComponentSplitter splitter(g);
  for (int attempt = 0; attempt <= options.max_retries; ++attempt, phi /= 2.0) {
    WeightedDecomposition result;
    auto& d = result.base;
    d.cluster_of.assign(g.num_vertices(), -1);
    d.num_clusters = 0;
    d.phi = phi;

    std::vector<VertexId> all(g.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    std::vector<std::vector<VertexId>> work;
    splitter.split(all, work);
    std::uint64_t seed = options.seed;
    while (!work.empty()) {
      std::vector<VertexId> piece = std::move(work.back());
      work.pop_back();
      if (piece.size() <= 2) {
        const int label = d.num_clusters++;
        for (VertexId v : piece) d.cluster_of[v] = label;
        d.cluster_phi_certified.push_back(1.0);
        continue;
      }
      const auto sub = graph::induced_subgraph(g, piece);
      const PowerIteration it = power_iteration(
          sub.graph, true, options.spectral_iterations, seed);
      if (!options.deterministic) seed += 7919;
      const auto cut =
          weighted_sweep_cut(sub.graph, fiedler_coordinates(it), it.degree);
      if (cut.valid && cut.conductance < phi) {
        std::vector<VertexId> left, right;
        for (int i = 0; i < sub.graph.num_vertices(); ++i) {
          (cut.in_s[i] ? left : right).push_back(sub.to_parent[i]);
        }
        splitter.split(left, work);
        splitter.split(right, work);
      } else {
        const int label = d.num_clusters++;
        for (VertexId v : piece) d.cluster_of[v] = label;
        // 0.9 lambda2/2 with lambda2 = 2(1 - mu), the unweighted clusters'
        // bound; the sweep's conductance bounds the cluster from above.
        d.cluster_phi_certified.push_back(
            it.vanished ? 0.0 : 0.9 * std::clamp(1.0 - it.mu, 0.0, 1.0));
      }
    }

    d.is_inter_cluster.assign(g.num_edges(), false);
    d.inter_cluster_edges = 0;
    result.inter_cluster_weight = 0;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      if (d.cluster_of[ed.u] != d.cluster_of[ed.v]) {
        d.is_inter_cluster[e] = true;
        ++d.inter_cluster_edges;
        result.inter_cluster_weight += g.weight(e);
      }
    }
    if (result.inter_cluster_weight <= eps * total_weight) return result;
  }
  throw std::runtime_error(
      "expander_decompose_weighted: weight budget unsatisfied after retries");
}

}  // namespace ecd::expander
