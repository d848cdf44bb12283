// Linear-time planarity testing via the left-right criterion
// (de Fraysseix–Rosenstiehl, in Brandes' formulation).
//
// Used by §3.4 property testing: cluster leaders must decide whether G[V_i]
// has the minor-closed property; for P = planarity that is this test.
#pragma once

#include "src/graph/graph.h"

namespace ecd::seq {

bool is_planar(const graph::Graph& g);

// Fast necessary condition (Euler's bound): planar => m <= 3n - 6 for n >= 3.
bool satisfies_euler_bound(const graph::Graph& g);

}  // namespace ecd::seq
