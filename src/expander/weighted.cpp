#include "src/expander/weighted.h"

#include "src/expander/conductance.h"
#include "src/expander/skeleton.h"

namespace ecd::expander {

using graph::Graph;

WeightedDecomposition expander_decompose_weighted(
    const Graph& g, double eps, const DecompositionOptions& options) {
  const auto search = [&](const Graph& piece, std::uint64_t& seed) {
    const PowerIteration it =
        power_iteration(piece, true, options.spectral_iterations, seed);
    if (!options.deterministic) seed += 7919;
    // The sweep's conductance bounds the cluster from above; the
    // certificate is the weighted walk's Cheeger bound.
    return PieceCut{
        sweep_cut(piece, fiedler_coordinates(it), /*weighted=*/true),
        it.vanished ? 0.0 : cheeger_certificate(lambda2(it))};
  };
  WeightedDecomposition result;
  result.base = decompose_by_cuts(g, eps, options, /*weighted=*/true,
                                  "expander_decompose_weighted", search,
                                  &result.inter_cluster_weight);
  return result;
}

}  // namespace ecd::expander
