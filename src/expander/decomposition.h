// (ε, φ) expander decomposition (Theorems 2.1/2.2 of the paper).
//
// Contract (what downstream code relies on, verified by tests):
//   * every vertex gets a cluster; inter-cluster edges number <= ε|E|;
//   * every cluster G_i = (V_i, E_i) is connected and has conductance
//     >= φ, with φ = ε^{O(1)} / log^{O(1)} n.
//
// Substitution note (see DESIGN.md): the paper uses the distributed
// Chang–Saranurak construction, whose literal implementation has galactic
// constants. We build the decomposition by recursive spectral sweep cuts —
// the same output contract — and charge its *round cost* analytically via
// the theorem's formula (ε^{-O(1)} log^{O(1)} n randomized,
// ε^{-O(1)} 2^{O(sqrt(log n log log n))} deterministic); see
// congest::RoundLedger for how modeled rounds are reported separately from
// measured ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::expander {

struct DecompositionOptions {
  // Conductance target; 0 derives φ = ε / (8 * log2 m) from ε.
  double phi = 0.0;
  int spectral_iterations = 300;
  int spectral_restarts = 2;
  // Clusters at most this large get an exact minimum-conductance cut.
  int exact_cut_threshold = 12;
  std::uint64_t seed = 1;
  // Deterministic mode pins the seed and single restart; it also changes the
  // *modeled* round complexity (Theorem 2.2 instead of 2.1).
  bool deterministic = false;
  // If the inter-cluster budget is exceeded, halve φ and retry.
  int max_retries = 4;
};

struct ExpanderDecomposition {
  std::vector<int> cluster_of;           // dense labels in [0, num_clusters)
  int num_clusters = 0;
  std::vector<bool> is_inter_cluster;    // per edge id of the input graph
  int inter_cluster_edges = 0;
  double phi = 0.0;                      // target φ actually used
  // Certified conductance lower bound per cluster (exact for tiny clusters,
  // the discounted Cheeger bound 0.9·λ2/2 otherwise; weighted conductance
  // for expander_decompose_weighted).
  std::vector<double> cluster_phi_certified;
};

// Decomposes g so that inter-cluster edges <= eps * |E|. Throws
// std::runtime_error if the budget still fails after max_retries.
ExpanderDecomposition expander_decompose(
    const graph::Graph& g, double eps,
    const DecompositionOptions& options = {});

// Members of each cluster (utility shared by framework/tests/benches).
std::vector<std::vector<graph::VertexId>> cluster_members(
    const ExpanderDecomposition& d);

// Splits vertex subsets of one graph into the connected components they
// induce; expander_decompose and expander_decompose_weighted split their
// pieces with it. Components come in the order of their first member in
// `vertices`, each listed in BFS order from that member. The per-vertex
// marks live as long as the splitter, so a split costs O(vol(vertices))
// plus the components it appends.
class ComponentSplitter {
 public:
  explicit ComponentSplitter(const graph::Graph& g);
  // Appends the components of G[vertices] to `out`.
  void split(std::span<const graph::VertexId> vertices,
             std::vector<std::vector<graph::VertexId>>& out);

 private:
  enum Mark : char { kOutside, kWaiting, kReached };
  const graph::Graph& g_;
  std::vector<Mark> mark_;  // per vertex
};

}  // namespace ecd::expander
