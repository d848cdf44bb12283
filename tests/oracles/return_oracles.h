// The walk gathers' and the path return's test oracles
// (src/congest/primitives.h): a serial walker that replays the walk gather's
// schedule and keeps whole walks, the first arrivals of a walk by their
// definition, the first-arrival path, and the mirror schedule the return
// replaced.
#pragma once

#include <cstdint>
#include <vector>

#include "src/congest/primitives.h"

namespace ecd::congest {

// One hop of a whole walk: the vertex the token moved to and the round it
// moved in. The hop's sender is the previous hop's `to` (the origin for the
// first hop).
struct TokenHop {
  graph::VertexId to = graph::kInvalidVertex;
  std::int32_t round = -1;
  friend bool operator==(const TokenHop&, const TokenHop&) = default;
};

struct ReferenceGather {
  // Per token id (numbered as the gather numbers them): every hop it made.
  std::vector<std::vector<TokenHop>> walks;
  // Per cluster: the absorbed token ids in the order the leader took them.
  std::vector<std::vector<std::int64_t>> delivered_ids;
  // rounds, messages_sent, words_sent and max_edge_load of the run.
  RunStats stats;
  bool complete = false;
};

// random_walk_gather's schedule replayed without the Network, one vertex
// after another each round: every vertex's WalkStream seeded as the gather
// seeds it; the held order, last round's kept tokens and then the arrivals
// by port, first in first out; the per-port budget
// options.net.bandwidth_tokens; and the leader absorbing on arrival. Stops
// after options.net.max_rounds rounds, incomplete.
ReferenceGather reference_walk_gather(
    const graph::Graph& g, const std::vector<int>& cluster_of,
    const std::vector<graph::VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const GatherOptions& options);

// The first arrivals of `walk` from `origin` by their definition: each hop
// into a vertex other than the origin that the walk had not reached before,
// as (that vertex, its port toward the hop's sender, the hop's round), in
// walk order.
std::vector<FirstArrival> first_arrival_reference(
    const graph::Graph& g, graph::VertexId origin,
    const std::vector<TokenHop>& walk);

// The first-arrival path a first-arrival list records, by its definition, in
// quadratic time: from the last record, search the list from its start for
// the record of the vertex its port leads to, until the port leads to the
// origin. Origin end first; empty for an empty list. Throws
// std::invalid_argument when a port leads to a vertex with no record.
std::vector<FirstArrival> first_arrival_path(
    const graph::Graph& g, graph::VertexId origin,
    const std::vector<FirstArrival>& list);

struct ReverseDeliveryResult {
  // Per vertex: the reply it received, empty if none.
  std::vector<std::vector<std::int64_t>> received;
  RunStats stats;
  // True iff the reverse schedule respected the per-edge budget every round
  // (it must: it mirrors a part of the forward schedule hop by hop).
  bool load_ok = false;
};

// Delivers `reply[v]` (none when empty) from where v's registration ended
// back to v along the first-arrival path of gather.first_arrivals[v], in
// reverse: the hop taken at forward round r is traversed backwards at round
// T − 1 − r, T the forward round count. The replayed hops are part of the
// forward schedule at their forward rounds, so in every round each edge
// carries at most its forward load, and the delivery takes at most T rounds.
// The forward budget `gather.bandwidth_tokens` is verified, not assumed; a
// hop outside [0, T) fails the check. It is the schedule return_along_paths
// must match in messages and words and stay within in rounds. Throws
// std::invalid_argument for a reply to a vertex outside `g`.
ReverseDeliveryResult reverse_delivery(
    const graph::Graph& g, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply);

}  // namespace ecd::congest
