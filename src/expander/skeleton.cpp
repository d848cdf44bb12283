#include "src/expander/skeleton.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "src/graph/subgraph.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

std::int64_t count_inter_cluster(const Graph& g, ExpanderDecomposition& d) {
  d.is_inter_cluster.assign(g.num_edges(), false);
  d.inter_cluster_edges = 0;
  std::int64_t weight = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (d.cluster_of[ed.u] != d.cluster_of[ed.v]) {
      d.is_inter_cluster[e] = true;
      ++d.inter_cluster_edges;
      weight += g.weight(e);
    }
  }
  return weight;
}

ExpanderDecomposition decompose_within_budget(
    const Graph& g, double eps, double phi, int max_retries, bool weighted,
    const char* driver, const ClusteringAttempt& attempt,
    std::int64_t* inter_cluster_weight) {
  if (!(eps > 0 && eps < 1)) throw std::invalid_argument("eps out of (0,1)");
  const int m = g.num_edges();
  if (phi <= 0.0) {
    const double log_m = std::log2(static_cast<double>(std::max(2, m)));
    phi = eps / (8.0 * std::max(1.0, log_m));
  }
  const std::int64_t total = weighted ? g.total_weight() : m;
  for (int retry = 0; retry <= max_retries; ++retry, phi /= 2.0) {
    ExpanderDecomposition d = attempt(phi);
    d.phi = phi;
    const std::int64_t weight = count_inter_cluster(g, d);
    if ((weighted ? weight : d.inter_cluster_edges) <= eps * total) {
      if (inter_cluster_weight) *inter_cluster_weight = weight;
      return d;
    }
    // Too many cut edges: aim for stronger clusters next round.
  }
  throw std::runtime_error(std::string(driver) +
                           (weighted ? ": weight" : ": inter-cluster") +
                           " budget unsatisfied after retries");
}

ExpanderDecomposition decompose_by_cuts(
    const Graph& g, double eps, const DecompositionOptions& options,
    bool weighted, const char* driver, const PieceCutSearch& search,
    std::int64_t* inter_cluster_weight) {
  const int n = g.num_vertices();
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0);
  // Pushes the components of G[vertices] on the work stack, in the order of
  // their first member in `vertices`, each listed in BFS order from that
  // member. Each component doubles as its BFS queue, and the marks live for
  // the whole decomposition, so a split costs O(vol(vertices)) plus the
  // components it appends.
  enum Mark : char { kOutside, kWaiting, kReached };
  std::vector<Mark> mark(n, kOutside);
  std::vector<std::vector<VertexId>> work;
  const auto split = [&](std::span<const VertexId> vertices) {
    for (const VertexId v : vertices) mark[v] = kWaiting;
    for (const VertexId s : vertices) {
      if (mark[s] != kWaiting) continue;
      std::vector<VertexId>& comp = work.emplace_back(1, s);
      mark[s] = kReached;
      for (std::size_t head = 0; head < comp.size(); ++head) {
        for (const VertexId u : g.neighbors(comp[head])) {
          if (mark[u] == kWaiting) {
            mark[u] = kReached;
            comp.push_back(u);
          }
        }
      }
    }
    for (const VertexId v : vertices) mark[v] = kOutside;
  };
  const auto attempt = [&](double phi) {
    ExpanderDecomposition d;
    d.cluster_of.assign(n, -1);
    const auto finalize = [&](const std::vector<VertexId>& members,
                              double certificate) {
      const int label = d.num_clusters++;
      for (VertexId v : members) d.cluster_of[v] = label;
      d.cluster_phi_certified.push_back(certificate);
    };
    split(all);
    std::uint64_t seed = options.seed;
    while (!work.empty()) {
      std::vector<VertexId> piece = std::move(work.back());
      work.pop_back();
      if (piece.size() <= 2) {
        finalize(piece, 1.0);
        continue;
      }
      const auto sub = graph::induced_subgraph(g, piece);
      const PieceCut found = search(sub.graph, seed);
      if (found.cut.valid && found.cut.conductance < phi) {
        std::vector<VertexId> left, right;
        for (int i = 0; i < sub.graph.num_vertices(); ++i) {
          (found.cut.in_s[i] ? left : right).push_back(sub.to_parent[i]);
        }
        split(left);
        split(right);
      } else {
        finalize(piece, found.certificate);
      }
    }
    return d;
  };
  return decompose_within_budget(g, eps, options.phi, options.max_retries,
                                 weighted, driver, attempt,
                                 inter_cluster_weight);
}

}  // namespace ecd::expander
