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
//
// Every driver — expander_decompose, expander_decompose_weighted
// (weighted.h) and distributed_expander_decompose — runs on one skeleton
// (skeleton.h, DESIGN.md §21); the two host drivers differ only in the
// per-piece cut search they pass to it.
#pragma once

#include <cstdint>
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
  // Certified conductance lower bound per cluster: 1 for a cluster of at
  // most 2 vertices, else its exact conductance up to exact_cut_threshold
  // vertices, else the discounted Cheeger bound 0.9·λ2/2.
  // expander_decompose_weighted certifies weighted conductance, always by
  // the Cheeger bound.
  std::vector<double> cluster_phi_certified;
};

// Decomposes g so that inter-cluster edges <= eps * |E|. A piece of at
// most exact_cut_threshold vertices is cut by exact_min_cut, a larger one
// by spectral_cut on a splitmix64 seed chain. Throws
// std::invalid_argument unless 0 < eps < 1, and std::runtime_error if the
// budget still fails after max_retries.
ExpanderDecomposition expander_decompose(
    const graph::Graph& g, double eps,
    const DecompositionOptions& options = {});

// Members of each cluster (utility shared by framework/tests/benches).
std::vector<std::vector<graph::VertexId>> cluster_members(
    const ExpanderDecomposition& d);

}  // namespace ecd::expander
