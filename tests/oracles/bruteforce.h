// Exhaustive solvers for tiny graphs: the oracles the leaders' exact and
// approximate solvers (src/seq) are checked against.
#pragma once

#include <vector>

#include "src/graph/graph.h"
#include "src/seq/matching.h"
#include "src/seq/separator.h"

namespace ecd::seq {

// Subset-enumeration maximum independent set for n <= 24; throws
// std::invalid_argument above that.
std::vector<graph::VertexId> max_independent_set_bruteforce(
    const graph::Graph& g);

// Exhaustive-search MCM for tiny graphs (|E| <= 30 recommended).
Mates max_cardinality_matching_bruteforce(const graph::Graph& g);

// Exhaustive-search MWM for tiny graphs (|E| <= 30 recommended).
Mates max_weight_matching_bruteforce(const graph::Graph& g);

// The true minimum balanced (>= n/3 per side) edge cut, for 3 <= n <= 20;
// throws std::invalid_argument outside that range.
SeparatorResult edge_separator_bruteforce(const graph::Graph& g);

}  // namespace ecd::seq
