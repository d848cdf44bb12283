// Maximum independent set solvers: exact branch-and-bound (with a node
// budget), greedy minimum-degree, local search, and a brute-force oracle.
//
// MaxIS is NP-hard; the CONGEST model nevertheless grants cluster leaders
// unlimited local computation (§3.1). On a real machine best_effort_mis
// first certifies greedy + local search against a clique-partition upper
// bound, searches exactly only when that bound does not close, and falls
// back to greedy + local search when the search budget runs out; results
// report whether the answer is certified maximum, and an upper bound on α.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::seq {

// Exact maximum independent set via branch and bound with degree-0/1
// reductions. `node_budget` counts search nodes: every recursive call,
// including one the bound prunes at once. Returns std::nullopt if the search
// needs more than `node_budget` of them. A node reads O(n/64) words per
// reduction pass and O(n/64 + alive) for the pivot, plus the degree updates
// of the vertices it removes, and allocates nothing (DESIGN.md §20).
std::optional<std::vector<graph::VertexId>> max_independent_set_exact(
    const graph::Graph& g, std::int64_t node_budget = 4'000'000);

// Repeatedly takes a minimum-degree vertex (the lowest id on ties) and
// deletes its neighborhood, in O((n + m) log n). For a graph of edge
// density d this yields >= n/(2d+1) vertices (§3.1).
std::vector<graph::VertexId> greedy_mis_min_degree(const graph::Graph& g);

// Hill climbing with (1,2)-swaps starting from `initial`.
std::vector<graph::VertexId> mis_local_search(
    const graph::Graph& g, std::vector<graph::VertexId> initial,
    int max_iterations = 100);

// Greedy + local search when its size meets a greedy clique-partition
// bound on α (no search runs); otherwise the exact search, or the greedy +
// local search set if the search exceeds `node_budget`.
struct MisResult {
  std::vector<graph::VertexId> vertices;
  bool exact = false;  // vertices is a maximum independent set
  // α(g) <= upper_bound: the clique-partition bound, or the exact set's size
  // when the search finished. Equals vertices.size() iff exact.
  int upper_bound = 0;
};
MisResult best_effort_mis(const graph::Graph& g,
                          std::int64_t node_budget = 4'000'000);

bool is_independent_set(const graph::Graph& g,
                        const std::vector<graph::VertexId>& vertices);

}  // namespace ecd::seq
