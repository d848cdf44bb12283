// (1-ε)-approximate maximum independent set (Theorem 1.2, §3.1).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/framework.h"
#include "src/graph/graph.h"

namespace ecd::core {

struct MisApproxOptions {
  FrameworkOptions framework;
  // Budget for each cluster's exact branch-and-bound solve, which runs only
  // when greedy + local search does not meet the cluster's clique-partition
  // bound; clusters whose search exceeds it fall back to greedy + local
  // search (reported).
  std::int64_t exact_node_budget = 4'000'000;
};

struct MisApproxResult {
  std::vector<graph::VertexId> independent_set;
  // True iff every cluster was solved exactly (then the (1-ε) bound of
  // §3.1 is unconditional).
  bool all_clusters_exact = false;
  int clusters_exact = 0;
  int num_clusters = 0;
  // Σ over clusters of seq::MisResult::upper_bound. α(G) <= Σ α(G[V_i]), so
  // |independent_set| / upper_bound is a certified lower bound on the
  // approximation ratio of every run, exact clusters or not.
  int upper_bound = 0;
  int conflicts_removed = 0;  // |Z| in the §3.1 analysis
  congest::RoundLedger ledger;
};

// §3.1: partition with ε' = ε/(2d+1), d the class edge-density bound; each
// leader solves its cluster; one endpoint of every conflicting inter-cluster
// edge is dropped.
MisApproxResult mis_approx(const graph::Graph& g, double eps,
                           const MisApproxOptions& options = {});

}  // namespace ecd::core
