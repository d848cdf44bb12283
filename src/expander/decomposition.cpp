#include "src/expander/decomposition.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/expander/conductance.h"
#include "src/expander/sweep_cut.h"
#include "src/graph/splitmix.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

namespace {

// Exact minimum-conductance cut by enumeration (n <= 16).
SweepResult exact_min_cut(const Graph& g) {
  const int n = g.num_vertices();
  SweepResult best;
  if (n < 2 || g.num_edges() == 0) return best;
  std::vector<bool> in_s(n);
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 1; v < n; ++v) in_s[v] = (mask >> (v - 1)) & 1u;
    in_s[0] = false;
    const double phi = cut_conductance(g, in_s);
    if (phi > 0.0 && (!best.valid || phi < best.conductance)) {
      best.in_s = in_s;
      best.conductance = phi;
      best.valid = true;
    }
  }
  return best;
}

struct Attempt {
  std::vector<int> cluster_of;
  int num_clusters = 0;
  std::vector<double> cluster_phi;
};

Attempt decompose_with_phi(const Graph& g, double phi,
                           const DecompositionOptions& options) {
  const int n = g.num_vertices();
  Attempt attempt;
  attempt.cluster_of.assign(n, -1);

  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  ComponentSplitter splitter(g);
  std::vector<std::vector<VertexId>> work;
  splitter.split(all, work);
  std::uint64_t cut_seed = options.seed;

  while (!work.empty()) {
    std::vector<VertexId> piece = std::move(work.back());
    work.pop_back();
    auto finalize = [&](const std::vector<VertexId>& members, double phi_cert) {
      const int label = attempt.num_clusters++;
      for (VertexId v : members) attempt.cluster_of[v] = label;
      attempt.cluster_phi.push_back(phi_cert);
    };
    if (piece.size() <= 2) {
      finalize(piece, 1.0);
      continue;
    }
    const auto sub = graph::induced_subgraph(g, piece);
    // The certificate comes from the cut search itself. A piece is
    // connected, so every cut is nontrivial and the exact minimum is Φ; a
    // larger piece takes the discounted Cheeger bound 0.9·λ2/2 of the
    // restarts' iterations.
    SweepResult cut;
    double phi_cert = 0.0;
    if (sub.graph.num_vertices() <=
        std::min(options.exact_cut_threshold, 16)) {
      cut = exact_min_cut(sub.graph);
      phi_cert = cut.conductance;
    } else {
      cut = spectral_cut(sub.graph, options.spectral_iterations, cut_seed,
                         options.deterministic ? 1 : options.spectral_restarts);
      phi_cert = 0.9 * (cut.lambda2 / 2.0);
      // Chain per-piece sub-seeds through splitmix64 (the canonical
      // splitmix stream) instead of += 104729, which reused streams across
      // nearby user seeds and pieces.
      if (!options.deterministic) cut_seed = graph::splitmix64(cut_seed);
    }
    if (cut.valid && cut.conductance < phi) {
      std::vector<VertexId> left, right;
      for (int i = 0; i < sub.graph.num_vertices(); ++i) {
        (cut.in_s[i] ? left : right).push_back(sub.to_parent[i]);
      }
      splitter.split(left, work);
      splitter.split(right, work);
    } else {
      finalize(piece, phi_cert);
    }
  }
  return attempt;
}

}  // namespace

ExpanderDecomposition expander_decompose(const Graph& g, double eps,
                                         const DecompositionOptions& options) {
  if (eps <= 0.0 || eps >= 1.0) throw std::invalid_argument("eps out of (0,1)");
  const int m = g.num_edges();
  double phi = options.phi;
  if (phi <= 0.0) {
    const double logm = std::max(1.0, std::log2(static_cast<double>(std::max(2, m))));
    phi = eps / (8.0 * logm);
  }

  for (int attempt_idx = 0; attempt_idx <= options.max_retries; ++attempt_idx) {
    Attempt attempt = decompose_with_phi(g, phi, options);
    ExpanderDecomposition result;
    result.cluster_of = std::move(attempt.cluster_of);
    result.num_clusters = attempt.num_clusters;
    result.cluster_phi_certified = std::move(attempt.cluster_phi);
    result.phi = phi;
    result.is_inter_cluster.assign(m, false);
    result.inter_cluster_edges = 0;
    for (graph::EdgeId e = 0; e < m; ++e) {
      const graph::Edge ed = g.edge(e);
      if (result.cluster_of[ed.u] != result.cluster_of[ed.v]) {
        result.is_inter_cluster[e] = true;
        ++result.inter_cluster_edges;
      }
    }
    if (result.inter_cluster_edges <= eps * m) return result;
    phi /= 2.0;  // too many cut edges: aim for stronger clusters next round
  }
  throw std::runtime_error(
      "expander_decompose: inter-cluster budget unsatisfied after retries");
}

ComponentSplitter::ComponentSplitter(const Graph& g)
    : g_(g), mark_(g.num_vertices(), kOutside) {}

void ComponentSplitter::split(std::span<const VertexId> vertices,
                              std::vector<std::vector<VertexId>>& out) {
  for (const VertexId v : vertices) mark_[v] = kWaiting;
  for (const VertexId s : vertices) {
    if (mark_[s] != kWaiting) continue;
    // The component doubles as the BFS queue: members are listed in the
    // order they are reached.
    std::vector<VertexId>& comp = out.emplace_back();
    comp.push_back(s);
    mark_[s] = kReached;
    for (std::size_t head = 0; head < comp.size(); ++head) {
      for (const VertexId u : g_.neighbors(comp[head])) {
        if (mark_[u] == kWaiting) {
          mark_[u] = kReached;
          comp.push_back(u);
        }
      }
    }
  }
  for (const VertexId v : vertices) mark_[v] = kOutside;
}

std::vector<std::vector<VertexId>> cluster_members(
    const ExpanderDecomposition& d) {
  std::vector<std::vector<VertexId>> members(d.num_clusters);
  for (VertexId v = 0; v < static_cast<VertexId>(d.cluster_of.size()); ++v) {
    members[d.cluster_of[v]].push_back(v);
  }
  return members;
}

}  // namespace ecd::expander
