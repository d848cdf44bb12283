// A fully distributed (ε, φ) expander decomposition, measured in CONGEST.
//
// DESIGN.md's substitution table charges the Chang–Saranurak construction
// (Thms 2.1/2.2) by its published formula because a literal implementation
// is infeasible. This module closes half of that gap: it is a *practical*
// distributed decomposition whose every round executes on the simulator
// with O(log n)-bit messages:
//
//   per level, for all active pieces in parallel —
//     1. t rounds of distributed lazy power iteration (one fixed-point
//        word per edge per round) produce an approximate Fiedler score;
//     2. one round exchanges final scores between neighbors;
//     3. leader election + BFS tree (existing primitives);
//     4. min/max score convergecast + broadcast fix a histogram of B
//        candidate thresholds;
//     5. one convergecast per bucket sums (crossing-edge count, volume)
//        packed into a single word; the leader picks the best sweep cut;
//     6. the winning threshold index is broadcast; pieces below target
//        conductance split and recurse.
//
// Rounds are *measured* (returned and ledger-able); the output satisfies
// the same contract as expander_decompose. It makes no claim to the
// theoretical round bound — that remains the modeled entry — but it shows
// the entire pipeline, decomposition included, can run under the model's
// bandwidth constraints. The ε check, φ default, halving retry and
// inter-cluster count are the host drivers' (skeleton.h). Each final
// cluster is certified on the host, uncharged, as the host drivers certify
// theirs: certified_conductance_lower_bound at their default threshold and
// iteration count, i.e. the exact cut up to 12 vertices, otherwise
// 0.9·λ2/2 of one power iteration.
#pragma once

#include <cstdint>

#include "src/congest/network.h"
#include "src/expander/decomposition.h"
#include "src/graph/graph.h"

namespace ecd::expander {

struct DistributedDecompositionOptions {
  double phi = 0.0;  // 0: derive eps / (8 log2 m)
  // 0 = auto: ceil((2/phi) * log2 n), capped at 2000 — the sweep needs the
  // walk to run past the target conductance's relaxation time.
  int power_iterations = 0;
  int histogram_buckets = 24;
  int max_levels = 64;
  int max_retries = 4;
  std::uint64_t seed = 1;
  // Every simulator run of the construction uses these: threads and the
  // observers (trace, metrics, profiler) included.
  congest::NetworkOptions net;
};

struct DistributedDecompositionResult {
  ExpanderDecomposition decomposition;
  // Totals over every CONGEST run of the successful attempt, all levels.
  congest::RunStats stats;
  int levels = 0;
};

DistributedDecompositionResult distributed_expander_decompose(
    const graph::Graph& g, double eps,
    const DistributedDecompositionOptions& options = {});

}  // namespace ecd::expander
