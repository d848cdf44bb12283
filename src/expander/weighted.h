// Weighted (ε, φ) expander decomposition.
//
// For weighted problems (§1.3 of the paper) the count-based decomposition
// is insufficient: the ε-fraction of removed edges can carry most of the
// weight. This variant uses weighted volumes and cuts — vol_w(S) = total
// weight incident to S, Φ_w(S) = w(∂S)/min(vol_w(S), vol_w(V\S)) — and
// guarantees the inter-cluster *weight* is at most ε·w(E), mirroring the
// weighted low-diameter decompositions of Czygrinow et al. the paper cites.
#pragma once

#include "src/expander/decomposition.h"
#include "src/graph/graph.h"

namespace ecd::expander {

// Weighted analogue of cut_conductance; weights default to 1 on unweighted
// graphs, recovering the unweighted notion exactly.
double weighted_cut_conductance(const graph::Graph& g,
                                const std::vector<bool>& in_s);

// Weighted Fiedler-style embedding: fiedler_coordinates of the weighted
// power_iteration (sweep_cut.h), whose walk matrix carries the weights.
std::vector<double> weighted_fiedler_embedding(const graph::Graph& g,
                                               int iterations = 400,
                                               std::uint64_t seed = 1);

// Decomposition with weighted volumes: inter-cluster weight <= eps * w(E).
// The result's `inter_cluster_edges` still counts edges; the weighted
// budget is returned via `inter_cluster_weight`. A cluster of three or
// more vertices is certified the discounted Cheeger bound 0.9 lambda2/2 of
// its weighted walk, read off the iteration that tried to cut it.
struct WeightedDecomposition {
  ExpanderDecomposition base;
  std::int64_t inter_cluster_weight = 0;
};
WeightedDecomposition expander_decompose_weighted(
    const graph::Graph& g, double eps,
    const DecompositionOptions& options = {});

}  // namespace ecd::expander
