#include "src/expander/decomposition.h"

#include <algorithm>

#include "src/expander/conductance.h"
#include "src/expander/skeleton.h"
#include "src/graph/splitmix.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

ExpanderDecomposition expander_decompose(const Graph& g, double eps,
                                         const DecompositionOptions& options) {
  // A piece is connected, so every cut is nontrivial and the exact minimum
  // is Φ; a larger piece takes the discounted Cheeger bound of the
  // restarts' iterations.
  const auto search = [&](const Graph& piece, std::uint64_t& seed) {
    if (piece.num_vertices() <= std::min(options.exact_cut_threshold, 16)) {
      SweepResult cut = exact_min_cut(piece);
      const double certificate = cut.conductance;
      return PieceCut{std::move(cut), certificate};
    }
    SweepResult cut =
        spectral_cut(piece, options.spectral_iterations, seed,
                     options.deterministic ? 1 : options.spectral_restarts);
    // Chain per-piece sub-seeds through splitmix64 (the canonical splitmix
    // stream) instead of += 104729, which reused streams across nearby
    // user seeds and pieces.
    if (!options.deterministic) seed = graph::splitmix64(seed);
    const double certificate = cheeger_certificate(cut.lambda2);
    return PieceCut{std::move(cut), certificate};
  };
  return decompose_by_cuts(g, eps, options, /*weighted=*/false,
                           "expander_decompose", search);
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
