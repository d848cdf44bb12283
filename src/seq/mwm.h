// Exact maximum-weight matching in general graphs.
//
// This is the local solver cluster leaders run for the weighted matching
// application (Theorem 1.1): MWM is polynomial, so the leader can solve its
// cluster exactly. The implementation is the classical O(n^3) primal-dual
// blossom algorithm (Galil's presentation) with integral dual variables.
#pragma once

#include "src/graph/graph.h"
#include "src/seq/matching.h"

namespace ecd::seq {

// Exact maximum-weight matching (the matching maximizing total weight; it
// need not have maximum cardinality). Uses g.weight(e), which defaults to 1
// for unweighted graphs. O(n^3) time, O(n^2) memory.
Mates max_weight_matching(const graph::Graph& g);

// Greedy heaviest-edge-first maximal matching: the classic 1/2-approximation
// baseline for MWM.
Mates greedy_weight_matching(const graph::Graph& g);

// Total weight of the matching under g's edge weights.
std::int64_t matching_weight(const graph::Graph& g, const Mates& mates);

}  // namespace ecd::seq
