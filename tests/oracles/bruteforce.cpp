#include "tests/oracles/bruteforce.h"

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace ecd::seq {

using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

namespace {

void mcm_brute(const Graph& g, int edge_index, Mates& current, int size,
               Mates& best, int& best_size) {
  if (size > best_size) {
    best_size = size;
    best = current;
  }
  if (edge_index >= g.num_edges()) return;
  // Prune: even taking every remaining edge cannot beat `best`.
  if (size + (g.num_edges() - edge_index) <= best_size) return;
  const graph::Edge e = g.edge(edge_index);
  if (current[e.u] == kInvalidVertex && current[e.v] == kInvalidVertex) {
    current[e.u] = e.v;
    current[e.v] = e.u;
    mcm_brute(g, edge_index + 1, current, size + 1, best, best_size);
    current[e.u] = kInvalidVertex;
    current[e.v] = kInvalidVertex;
  }
  mcm_brute(g, edge_index + 1, current, size, best, best_size);
}

void mwm_brute(const Graph& g, int edge_index, Mates& current,
               std::int64_t weight, std::vector<std::int64_t>& suffix_sum,
               Mates& best, std::int64_t& best_weight) {
  if (weight > best_weight) {
    best_weight = weight;
    best = current;
  }
  if (edge_index >= g.num_edges()) return;
  if (weight + suffix_sum[edge_index] <= best_weight) return;
  const graph::Edge e = g.edge(edge_index);
  if (current[e.u] == kInvalidVertex && current[e.v] == kInvalidVertex) {
    current[e.u] = e.v;
    current[e.v] = e.u;
    mwm_brute(g, edge_index + 1, current, weight + g.weight(edge_index),
              suffix_sum, best, best_weight);
    current[e.u] = kInvalidVertex;
    current[e.v] = kInvalidVertex;
  }
  mwm_brute(g, edge_index + 1, current, weight, suffix_sum, best, best_weight);
}

int cut_of(const Graph& g, const std::vector<bool>& in_s) {
  int cut = 0;
  for (const graph::Edge& e : g.edges()) {
    if (in_s[e.u] != in_s[e.v]) ++cut;
  }
  return cut;
}

}  // namespace

std::vector<VertexId> max_independent_set_bruteforce(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 24) throw std::invalid_argument("bruteforce MIS limited to n <= 24");
  std::vector<std::uint32_t> nbr_mask(n, 0);
  for (const graph::Edge& e : g.edges()) {
    nbr_mask[e.u] |= 1u << e.v;
    nbr_mask[e.v] |= 1u << e.u;
  }
  std::uint32_t best = 0;
  int best_count = -1;
  for (std::uint32_t s = 0; s < (1u << n); ++s) {
    bool independent = true;
    for (int v = 0; v < n && independent; ++v) {
      if ((s >> v & 1u) && (s & nbr_mask[v])) independent = false;
    }
    if (independent && std::popcount(s) > best_count) {
      best = s;
      best_count = std::popcount(s);
    }
  }
  std::vector<VertexId> result;
  for (int v = 0; v < n; ++v) {
    if (best >> v & 1u) result.push_back(v);
  }
  return result;
}

Mates max_cardinality_matching_bruteforce(const Graph& g) {
  Mates current(g.num_vertices(), kInvalidVertex);
  Mates best = current;
  int best_size = 0;
  mcm_brute(g, 0, current, 0, best, best_size);
  return best;
}

Mates max_weight_matching_bruteforce(const Graph& g) {
  Mates current(g.num_vertices(), kInvalidVertex);
  Mates best = current;
  std::int64_t best_weight = 0;
  std::vector<std::int64_t> suffix_sum(g.num_edges() + 1, 0);
  for (int e = g.num_edges() - 1; e >= 0; --e) {
    suffix_sum[e] = suffix_sum[e + 1] + g.weight(e);
  }
  mwm_brute(g, 0, current, 0, suffix_sum, best, best_weight);
  return best;
}

SeparatorResult edge_separator_bruteforce(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 20) throw std::invalid_argument("bruteforce limited to n <= 20");
  if (n < 3) throw std::invalid_argument("separator needs n >= 3");
  const int lo = (n + 2) / 3;
  SeparatorResult best;
  best.cut_size = -1;
  for (std::uint32_t mask = 1; mask < (1u << n) - 1u; ++mask) {
    const int size = std::popcount(mask);
    if (std::min(size, n - size) < lo) continue;
    std::vector<bool> in_s(n);
    for (int v = 0; v < n; ++v) in_s[v] = (mask >> v) & 1u;
    const int cut = cut_of(g, in_s);
    if (best.cut_size == -1 || cut < best.cut_size) {
      best.cut_size = cut;
      best.in_s = in_s;
      best.smaller_side = std::min(size, n - size);
    }
  }
  return best;
}

}  // namespace ecd::seq
