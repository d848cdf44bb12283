// The path return's test oracles (src/congest/primitives.h,
// return_along_paths): the first-arrival path by its definition, and the
// mirror schedule the return replaced.
#pragma once

#include <cstdint>
#include <vector>

#include "src/congest/primitives.h"

namespace ecd::congest {

// The first-arrival path of `walk` by its definition, in quadratic time: from
// where the walk ends, search the walk from its start for the first hop into
// the current vertex, keep that hop and go on from its sender, until the
// origin. Empty for an empty walk or one that ends at its origin.
std::vector<TokenHop> first_arrival_reference(
    graph::VertexId origin, const std::vector<TokenHop>& walk);

// `gather` with the walk of each token in `ids` replaced by its
// first_arrival_reference path: the hops a return to those tokens sends on.
GatherResult with_first_arrival_paths(GatherResult gather,
                                      const std::vector<std::int64_t>& ids);

struct ReverseDeliveryResult {
  // Reply payload received by each origin vertex (one per token, in token
  // id order restricted to that origin).
  std::vector<std::vector<std::vector<std::int64_t>>> received;
  RunStats stats;
  // True iff the reverse schedule respected the per-edge budget every round
  // (it must: it mirrors a part of the forward schedule hop by hop).
  bool load_ok = false;
};

// Delivers `reply[token_id]` from each cluster leader back to the token's
// origin along its trace, in reverse: the hop taken at forward round r is
// traversed backwards at round T − 1 − r, T the forward round count. A
// trace holds the forward walk or a part of it, so the replayed hops are
// part of the forward schedule at their forward rounds: in every round each
// edge carries at most its forward load, and the delivery takes at most T
// rounds (exactly the forward load and rounds when every token's whole walk
// is replayed). The forward budget `gather.bandwidth_tokens` is verified, not
// assumed, in O(hops + rounds) time and O(tokens + rounds) scratch: the
// replied hop logs are decoded in place, one round at a time. Throws
// std::invalid_argument for a reply to a token whose origin lies outside
// [0, num_vertices). Run on with_first_arrival_paths, it is the schedule
// return_along_paths must match in messages and words and stay within in
// rounds.
ReverseDeliveryResult reverse_delivery(
    int num_vertices, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply);

}  // namespace ecd::congest
