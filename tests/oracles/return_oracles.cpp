#include "tests/oracles/return_oracles.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace ecd::congest {

using graph::Graph;
using graph::VertexId;

namespace {

int port_to(const Graph& g, VertexId v, VertexId u) {
  const auto nbrs = g.neighbors(v);
  const auto it = std::find(nbrs.begin(), nbrs.end(), u);
  return it == nbrs.end() ? -1 : static_cast<int>(it - nbrs.begin());
}

}  // namespace

ReferenceGather reference_walk_gather(
    const Graph& g, const std::vector<int>& cluster_of,
    const std::vector<VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const GatherOptions& options) {
  const int n = g.num_vertices();
  ReferenceGather out;
  std::vector<std::vector<int>> intra(n);
  std::vector<WalkStream> stream;
  std::vector<std::vector<std::int64_t>> held(n);
  std::vector<std::int64_t> words;  // per token: words on the wire
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      if (cluster_of[nbrs[p]] == cluster_of[v]) intra[v].push_back(p);
    }
    stream.emplace_back(options.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
    for (const GatherToken& t : tokens[v]) {
      held[v].push_back(static_cast<std::int64_t>(words.size()));
      words.push_back(1 + static_cast<std::int64_t>(t.payload.size()));
    }
  }
  out.walks.resize(words.size());
  std::vector<std::vector<std::int64_t>> absorbed(n);
  // Per vertex: the (port, token) pairs sent to it this round, in send order.
  std::vector<std::vector<std::pair<int, std::int64_t>>> inbox(n), next(n);
  std::vector<std::int64_t> kept;
  std::vector<int> load;
  bool sent = true;
  for (std::int64_t r = 0; r < options.net.max_rounds; ++r) {
    const bool holding = std::any_of(held.begin(), held.end(),
                                     [](const auto& h) { return !h.empty(); });
    if (r > 0 && !sent && !holding) {
      out.stats.rounds = r;
      break;
    }
    sent = false;
    for (VertexId v = 0; v < n; ++v) {
      std::stable_sort(
          inbox[v].begin(), inbox[v].end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& arrival : inbox[v]) held[v].push_back(arrival.second);
      inbox[v].clear();
      if (leader_of[v] == v) {
        absorbed[v].insert(absorbed[v].end(), held[v].begin(), held[v].end());
        held[v].clear();
        continue;
      }
      if (held[v].empty() || intra[v].empty()) continue;
      load.assign(intra[v].size(), 0);
      kept.clear();
      for (const std::int64_t id : held[v]) {
        if (stream[v].lazy()) {
          kept.push_back(id);
          continue;
        }
        const std::size_t i = stream[v].pick(intra[v].size());
        if (load[i] >= options.net.bandwidth_tokens) {
          kept.push_back(id);
          continue;
        }
        ++load[i];
        sent = true;
        const VertexId u = g.neighbors(v)[intra[v][i]];
        out.walks[id].push_back({u, static_cast<std::int32_t>(r)});
        next[u].emplace_back(port_to(g, u, v), id);
        ++out.stats.messages_sent;
        out.stats.words_sent += words[id];
        out.stats.max_edge_load = std::max(out.stats.max_edge_load, load[i]);
      }
      held[v].swap(kept);
    }
    inbox.swap(next);
  }
  int clusters = 0;
  for (const int c : cluster_of) clusters = std::max(clusters, c + 1);
  out.delivered_ids.resize(clusters);
  std::size_t received = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] != v) continue;
    auto& ids = out.delivered_ids[cluster_of[v]];
    ids.insert(ids.end(), absorbed[v].begin(), absorbed[v].end());
    received += absorbed[v].size();
  }
  out.complete = received == words.size();
  return out;
}

std::vector<FirstArrival> first_arrival_reference(
    const Graph& g, VertexId origin, const std::vector<TokenHop>& walk) {
  std::vector<FirstArrival> out;
  VertexId from = origin;
  for (std::size_t h = 0; h < walk.size(); ++h) {
    const VertexId at = walk[h].to;
    bool before = at == origin;
    for (std::size_t k = 0; k < h && !before; ++k) before = walk[k].to == at;
    if (!before) out.push_back({at, port_to(g, at, from), walk[h].round});
    from = at;
  }
  return out;
}

std::vector<FirstArrival> first_arrival_path(
    const Graph& g, VertexId origin, const std::vector<FirstArrival>& list) {
  std::vector<FirstArrival> path;
  if (list.empty()) return path;
  for (FirstArrival step = list.back();;) {
    path.push_back(step);
    const VertexId from = g.neighbors(step.at)[step.port];
    if (from == origin) break;
    const auto it = std::find_if(
        list.begin(), list.end(),
        [from](const FirstArrival& a) { return a.at == from; });
    if (it == list.end()) {
      throw std::invalid_argument("first_arrival_path: vertex " +
                                  std::to_string(from) + " has no record");
    }
    step = *it;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

ReverseDeliveryResult reverse_delivery(
    const Graph& g, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply) {
  for (std::size_t v = static_cast<std::size_t>(g.num_vertices());
       v < reply.size(); ++v) {
    if (!reply[v].empty()) {
      throw std::invalid_argument("reverse_delivery: a reply to vertex " +
                                  std::to_string(v) + ", outside the graph");
    }
  }
  ReverseDeliveryResult result;
  result.received.resize(g.num_vertices());
  result.load_ok = true;
  const std::int64_t horizon = std::max<std::int64_t>(0, gather.stats.rounds);
  // One key per reverse hop, (reverse round, from, to): the hop at forward
  // round r from u to `at` goes back from `at` to u at round horizon − 1 − r.
  // Sorted, each directed edge-round's hops form one run: its load.
  std::vector<std::tuple<std::int64_t, VertexId, VertexId>> hops;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (static_cast<std::size_t>(v) >= reply.size() || reply[v].empty()) {
      continue;
    }
    result.received[v] = reply[v];
    const std::vector<FirstArrival> path =
        first_arrival_path(g, v, gather.first_arrivals.at(v));
    for (const FirstArrival& step : path) {
      ++result.stats.messages_sent;
      result.stats.words_sent += static_cast<std::int64_t>(reply[v].size()) + 1;
      if (step.round < 0 || step.round >= horizon) {
        result.load_ok = false;
        continue;
      }
      hops.emplace_back(horizon - 1 - step.round, step.at,
                        g.neighbors(step.at)[step.port]);
    }
    // The first hop is the earliest, so its mirror is the last reverse round.
    if (!path.empty()) {
      result.stats.rounds =
          std::max(result.stats.rounds, horizon - path.front().round);
    }
  }
  std::sort(hops.begin(), hops.end());
  for (std::size_t i = 0; i < hops.size();) {
    std::size_t j = i + 1;
    while (j < hops.size() && hops[j] == hops[i]) ++j;
    const int load = static_cast<int>(j - i);
    result.stats.max_edge_load = std::max(result.stats.max_edge_load, load);
    if (load > gather.bandwidth_tokens) result.load_ok = false;
    i = j;
  }
  return result;
}

}  // namespace ecd::congest
