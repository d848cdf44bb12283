// Balanced edge separators (Theorem 1.6).
//
// The paper proves every H-minor-free graph has a cut {S, V\S} with
// min(|S|,|V\S|) >= n/3 and |∂S| = O(sqrt(Δ n)). This module *finds* small
// balanced separators (BFS-sweep + Fiedler-style sweep + FM refinement) so
// the benchmark can plot measured |∂S| against the sqrt(Δ n) envelope.
#pragma once

#include <random>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::seq {

struct SeparatorResult {
  std::vector<bool> in_s;  // side indicator
  int cut_size = 0;
  int smaller_side = 0;
};

// Finds a balanced (>= n/3 per side) edge separator, heuristically
// minimizing the cut. `sweeps` controls how many BFS orderings are tried.
SeparatorResult edge_separator(const graph::Graph& g, std::mt19937_64& rng,
                               int sweeps = 4);

}  // namespace ecd::seq
