// Conductance computation: exact enumeration for tiny graphs, spectral
// (Cheeger) bounds for everything else (§2 of the paper). Every driver's
// certificate is built from these: the exact minimum cut of a small
// cluster, otherwise cheeger_certificate of a λ2 estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "src/expander/sweep_cut.h"
#include "src/graph/graph.h"

namespace ecd::expander {

// Φ(S) = |∂S| / min(vol(S), vol(V\S)); 0 for trivial cuts. When
// `weighted`, edges count by their weight: Φ_w(S) = w(∂S) / min(vol_w(S),
// vol_w(V\S)) with vol_w(S) the weight incident to S.
double cut_conductance(const graph::Graph& g, const std::vector<bool>& in_s,
                       bool weighted = false);

// Minimum-conductance cut by enumerating every cut with vertex 0 outside S,
// the first found on ties; cuts of conductance 0 are skipped. Invalid for
// graphs with < 2 vertices or no edges. Throws std::invalid_argument for
// n > 16.
SweepResult exact_min_cut(const graph::Graph& g);

// Exact Φ(G) = min over all nontrivial cuts; requires n <= 16. Returns 0 for
// graphs with < 2 vertices and for disconnected graphs.
double exact_conductance(const graph::Graph& g);

// Second-smallest eigenvalue of the normalized Laplacian: lambda2() of one
// power_iteration. Accurate to roughly the iteration count; deterministic
// given the seed. 0 for graphs with < 2 vertices or no edges.
double lambda2_normalized(const graph::Graph& g, int iterations = 400,
                          std::uint64_t seed = 1);

// Cheeger: λ2/2 <= Φ(G) <= sqrt(2 λ2).
struct CheegerBounds {
  double lower = 0.0;
  double upper = 0.0;
};
CheegerBounds conductance_bounds(const graph::Graph& g, int iterations = 400,
                                 std::uint64_t seed = 1);

// The certificate a cluster takes from a λ2 estimate: the Cheeger lower
// bound λ2/2, discounted by 0.9 as a margin for an iteration that has not
// fully converged (μ approaches the second eigenvalue from below).
double cheeger_certificate(double lambda2);

// Conductance lower bound certificate for one connected cluster: 1 when it
// has at most one vertex, its exact value when it has at most
// min(exact_threshold, 16), cheeger_certificate of one power iteration's λ2
// otherwise.
double certified_conductance_lower_bound(const graph::Graph& g,
                                         int exact_threshold = 14,
                                         int iterations = 400,
                                         std::uint64_t seed = 1);

}  // namespace ecd::expander
