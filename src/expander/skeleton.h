// The one skeleton of the expander-decomposition drivers (DESIGN.md §21),
// shared by expander_decompose, expander_decompose_weighted and
// distributed_expander_decompose, and by refresh_decomposition's
// inter-cluster count. Internal to src/expander.
#pragma once

#include <cstdint>
#include <functional>

#include "src/expander/decomposition.h"
#include "src/expander/sweep_cut.h"
#include "src/graph/graph.h"

namespace ecd::expander {

// Fills d.is_inter_cluster and d.inter_cluster_edges from d.cluster_of and
// returns the weight of the inter-cluster edges (their count on unweighted
// graphs).
std::int64_t count_inter_cluster(const graph::Graph& g,
                                 ExpanderDecomposition& d);

// A clustering at one φ: cluster_of, num_clusters and cluster_phi_certified
// filled in.
using ClusteringAttempt = std::function<ExpanderDecomposition(double phi)>;

// The budget loop of every driver. Throws std::invalid_argument unless
// 0 < eps < 1 (NaN included). Starts at `phi`, or at ε / (8 log2 m) when it
// is 0, and returns the first attempt whose inter-cluster edges are at most
// ε|E| — when `weighted`, whose inter-cluster weight is at most ε·w(E) —
// with phi and the inter-cluster fields filled in, halving φ after each
// attempt that exceeds it. Throws std::runtime_error naming `driver` when
// max_retries retries all exceed it. `inter_cluster_weight`, if given,
// receives the returned attempt's inter-cluster weight.
ExpanderDecomposition decompose_within_budget(
    const graph::Graph& g, double eps, double phi, int max_retries,
    bool weighted, const char* driver, const ClusteringAttempt& attempt,
    std::int64_t* inter_cluster_weight = nullptr);

// A host driver's search on one connected piece of >= 3 vertices: its best
// cut, and the conductance certificate the piece keeps if that cut does not
// split it. `seed` is the attempt's seed chain: it is the options' seed at
// the first piece of every attempt, and the search may advance it.
struct PieceCut {
  SweepResult cut;
  double certificate = 0.0;
};
using PieceCutSearch =
    std::function<PieceCut(const graph::Graph& piece, std::uint64_t& seed)>;

// The host recursion under decompose_within_budget: splits g into its
// components and keeps them on a stack. A popped piece of <= 2 vertices
// becomes a cluster certified 1. Otherwise `search` runs on its induced
// subgraph; a valid cut below φ splits the piece, and each side's
// components are pushed, else the piece becomes a cluster with the
// search's certificate.
ExpanderDecomposition decompose_by_cuts(
    const graph::Graph& g, double eps, const DecompositionOptions& options,
    bool weighted, const char* driver, const PieceCutSearch& search,
    std::int64_t* inter_cluster_weight = nullptr);

}  // namespace ecd::expander
