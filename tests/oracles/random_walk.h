// Lazy random walks and mixing time (§2 of the paper), for the tests.
//
// The paper's routing primitive (Lemma 2.4) rides lazy random walks until
// they hit the cluster leader; these helpers compute walk distributions and
// the paper's mixing time τ_mix(G) = min { t : |p_t^v(u) − π(u)| <= π(u)/n },
// which the tests compare with the decomposition's conductance.
#pragma once

#include <optional>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::expander {

// π(u) = deg(u) / vol(V).
std::vector<double> stationary_distribution(const graph::Graph& g);

// Exact distribution of a lazy walk (stay probability 1/2) after `steps`.
std::vector<double> lazy_walk_distribution(const graph::Graph& g,
                                           graph::VertexId source, int steps);

// Smallest t <= max_steps with the paper's pointwise guarantee from
// `source`; nullopt if not mixed by then. (Formerly the sentinel
// max_steps + 1, which a caller could silently consume as a real — and
// wildly wrong — mixing time.)
std::optional<int> mixing_time_from(const graph::Graph& g,
                                    graph::VertexId source, int max_steps);

// Max of mixing_time_from over a sample of sources (includes a
// minimum-degree vertex, typically the slowest to mix); nullopt if any
// sampled source fails to mix within max_steps.
std::optional<int> mixing_time_estimate(const graph::Graph& g, int max_steps,
                                        int extra_sources = 2);

}  // namespace ecd::expander
