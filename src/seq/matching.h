// Maximum-cardinality matching (Edmonds' blossom algorithm) and helpers.
//
// These are the sequential substrates cluster leaders run in §3.2: the model
// grants the leader unlimited local computation, and MCM is polynomial, so
// the leader's "compute the maximum matching of G[V_i] locally" step is
// implemented exactly.
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace ecd::seq {

// A matching is represented by the mate array: mate[v] is v's partner or
// graph::kInvalidVertex if v is unmatched.
using Mates = std::vector<graph::VertexId>;

// Exact maximum-cardinality matching via Edmonds' blossom algorithm, O(V·E·α).
Mates max_cardinality_matching(const graph::Graph& g);

// Greedy maximal matching (scans edges in id order): the classic 1/2-approx
// baseline.
Mates greedy_maximal_matching(const graph::Graph& g);

int matching_size(const Mates& mates);

// True iff `mates` is symmetric and every matched pair is a real edge.
bool is_valid_matching(const graph::Graph& g, const Mates& mates);

// Edge ids of the matching (each matched pair reported once).
std::vector<graph::EdgeId> matching_edges(const graph::Graph& g,
                                          const Mates& mates);

}  // namespace ecd::seq
