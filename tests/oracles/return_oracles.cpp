#include "tests/oracles/return_oracles.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ecd::congest {

using graph::kInvalidVertex;
using graph::VertexId;

std::vector<TokenHop> first_arrival_reference(
    VertexId origin, const std::vector<TokenHop>& walk) {
  std::vector<TokenHop> path;
  if (walk.empty()) return path;
  for (VertexId at = walk.back().to; at != origin;) {
    std::size_t i = 0;
    while (walk[i].to != at) ++i;
    path.insert(path.begin(), walk[i]);
    at = i == 0 ? origin : walk[i - 1].to;
  }
  return path;
}

GatherResult with_first_arrival_paths(GatherResult gather,
                                      const std::vector<std::int64_t>& ids) {
  for (const std::int64_t id : ids) {
    TokenTrace& t = gather.traces.at(static_cast<std::size_t>(id));
    const std::vector<TokenHop> path =
        first_arrival_reference(t.origin, t.hops());
    t.clear();
    for (const TokenHop& hop : path) t.append(hop);
  }
  return gather;
}

ReverseDeliveryResult reverse_delivery(
    int num_vertices, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply) {
  ReverseDeliveryResult result;
  result.received.resize(num_vertices);
  result.load_ok = true;
  const std::int64_t horizon = std::max<std::int64_t>(0, gather.stats.rounds);
  const auto replied = [&](std::size_t id) {
    return id < reply.size() && !reply[id].empty();
  };
  // The hop taken at forward round r is traversed backwards at round
  // horizon - 1 - r: strictly increasing forward times become strictly
  // increasing reverse times along the reversed path, and the per-edge
  // per-round load is the mirror image of the replayed part of the forward
  // run. A hop outside [0, horizon) has no mirror round, so the schedule
  // fails the check.
  //
  // Rounds are visited in forward order; each round's loads are those of
  // its mirror. A replied token waits, as a cursor into its hop log, in the
  // bucket of its next hop's round. Reading that hop moves the token on to
  // the bucket of the hop after it, which is a later round.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  struct Cursor {
    std::size_t pos = 0;  // log position after `hop`
    TokenHop hop;         // the token's next hop
    VertexId from = kInvalidVertex;  // that hop's sender
    std::size_t next = kNone;        // next token in the same bucket
  };
  std::vector<Cursor> cursor(gather.traces.size());
  std::vector<std::size_t> bucket(static_cast<std::size_t>(horizon), kNone);
  const auto advance = [&](std::size_t id) {
    const TokenTrace& trace = gather.traces[id];
    Cursor& c = cursor[id];
    if (c.pos == trace.log_size()) return;  // walk done
    c.from = c.hop.to;
    c.pos = trace.decode(c.pos, c.hop);
    if (c.hop.round >= horizon) {
      result.load_ok = false;
      return;
    }
    c.next = bucket[static_cast<std::size_t>(c.hop.round)];
    bucket[static_cast<std::size_t>(c.hop.round)] = id;
  };
  for (std::size_t id = 0; id < gather.traces.size(); ++id) {
    if (!replied(id)) continue;  // no reply due
    const TokenTrace& trace = gather.traces[id];
    if (trace.origin < 0 || trace.origin >= num_vertices) {
      throw std::invalid_argument("reverse_delivery: token " +
                                  std::to_string(id) +
                                  " has its origin out of range");
    }
    const std::int64_t hops = trace.hop_count();
    result.stats.messages_sent += hops;
    result.stats.words_sent +=
        hops * (static_cast<std::int64_t>(reply[id].size()) + 1);
    result.received[trace.origin].push_back(reply[id]);
    cursor[id].hop = {trace.origin, -1};
    advance(id);
    // The first hop is the earliest, so its mirror is the last reverse round.
    if (hops > 0) {
      result.stats.rounds =
          std::max(result.stats.rounds, horizon - cursor[id].hop.round);
    }
  }
  // One key per reverse hop: the full 32-bit (from, to) pair, so distinct
  // directed edges never share a counter. Sorting a round's keys puts each
  // directed edge's hops in one run: its load that round.
  std::vector<std::uint64_t> edge;
  for (std::size_t r = 0; r < bucket.size(); ++r) {
    edge.clear();
    for (std::size_t id = bucket[r]; id != kNone;) {
      const Cursor& c = cursor[id];
      const std::size_t next = c.next;
      // Reverse hop: c.hop.to -> c.from.
      edge.push_back(
          (std::uint64_t{static_cast<std::uint32_t>(c.hop.to)} << 32) |
          static_cast<std::uint32_t>(c.from));
      advance(id);
      id = next;
    }
    std::sort(edge.begin(), edge.end());
    for (std::size_t i = 0; i < edge.size();) {
      std::size_t j = i + 1;
      while (j < edge.size() && edge[j] == edge[i]) ++j;
      const int load = static_cast<int>(j - i);
      result.stats.max_edge_load = std::max(result.stats.max_edge_load, load);
      if (load > gather.bandwidth_tokens) result.load_ok = false;
      i = j;
    }
  }
  return result;
}

}  // namespace ecd::congest
