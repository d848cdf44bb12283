// Sweep cuts: turn a vertex embedding (e.g. an approximate Fiedler vector)
// into the best prefix cut by conductance, and the one power-iteration
// kernel that every spectral routine of the decomposition reads its
// embeddings and λ2 estimates from.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::expander {

struct SweepResult {
  std::vector<bool> in_s;
  double conductance = 0.0;
  bool valid = false;  // false when no nontrivial cut exists
  // spectral_cut only: the smallest lambda2() among the restarts whose
  // iteration did not vanish; 1 when every restart vanished, 0 when there
  // was no restart.
  double lambda2 = 0.0;
};

// Sorts vertices by `score` ascending (stable, so ties keep id order) and
// returns the prefix cut of least conductance, the first on ties. Volumes
// and cuts count each edge once, or by its weight when `weighted`; the sums
// are exact integers. O(m + n log n).
SweepResult sweep_cut(const graph::Graph& g, const std::vector<double>& score,
                      bool weighted = false);

// Deflated power iteration on the lazy walk operator M = (I + N)/2, with
// N = D^{-1/2} W D^{-1/2} (DESIGN.md §21). It starts from an mt19937_64
// uniform(-1, 1) vector, deflates it against sqrt(d) and normalizes it,
// then takes `iterations` steps x <- M x / |M x| with the deflation fused
// in. W is the 0/1 adjacency unless `weighted`, in which case it carries
// the edge weights.
struct PowerIteration {
  std::vector<double> x;            // last unit iterate, orthogonal to sqrt(d)
  std::vector<double> degree;       // d(v): degree, or weighted degree
  std::vector<double> sqrt_degree;  // sqrt(d(v))
  // Rayleigh quotient x·Mx of the iterate the last step started from (0
  // when the iteration vanished or took no step).
  double mu = 0.0;
  bool vanished = false;  // stopped early: the deflated iterate was 0
};
PowerIteration power_iteration(const graph::Graph& g, bool weighted,
                               int iterations, std::uint64_t seed);

// Fiedler coordinates of an iteration: x(v) / sqrt(d(v)), 0 where d(v) = 0.
std::vector<double> fiedler_coordinates(const PowerIteration& it);

// The λ2 estimate of an iteration: λ2 = 2(1 − μ) of the normalized
// Laplacian, clamped to [0, 2]; 1 when the iteration vanished (the deflated
// space collapsed: well expanding).
double lambda2(const PowerIteration& it);

// The unweighted sweep over `restarts` power iterations with splitmix
// sub-seeds, keeping the cut of least conductance (the first on ties) and
// the restarts' λ2 estimate.
SweepResult spectral_cut(const graph::Graph& g, int iterations = 400,
                         std::uint64_t seed = 1, int restarts = 2);

}  // namespace ecd::expander
