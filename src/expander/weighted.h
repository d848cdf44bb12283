// Weighted (ε, φ) expander decomposition.
//
// For weighted problems (§1.3 of the paper) the count-based decomposition
// is insufficient: the ε-fraction of removed edges can carry most of the
// weight. This variant uses weighted volumes and cuts — vol_w(S) = total
// weight incident to S, Φ_w(S) = w(∂S)/min(vol_w(S), vol_w(V\S)), which
// cut_conductance and sweep_cut compute when `weighted` — and guarantees
// the inter-cluster *weight* is at most ε·w(E), mirroring the weighted
// low-diameter decompositions of Czygrinow et al. the paper cites. It runs
// on the host skeleton of expander_decompose (decompose_by_cuts) and
// differs only in its per-piece cut search.
#pragma once

#include "src/expander/decomposition.h"
#include "src/graph/graph.h"

namespace ecd::expander {

// Decomposition with weighted volumes: inter-cluster weight <= eps * w(E).
// The result's `inter_cluster_edges` still counts edges; the weighted
// budget is returned via `inter_cluster_weight`. Each piece of three or
// more vertices is cut by the weighted sweep_cut over one weighted
// power_iteration, its seeds chained by += 7919, and a cluster keeps the
// discounted Cheeger bound 0.9 lambda2/2 of that iteration (0 when it
// vanished).
struct WeightedDecomposition {
  ExpanderDecomposition base;
  std::int64_t inter_cluster_weight = 0;
};
WeightedDecomposition expander_decompose_weighted(
    const graph::Graph& g, double eps,
    const DecompositionOptions& options = {});

}  // namespace ecd::expander
