// A second planarity test, the oracle the left-right test
// (src/seq/planarity.h) is checked against.
#pragma once

#include "src/graph/graph.h"

namespace ecd::seq {

// Independent second implementation: Demoucron–Malgrange–Pertuiset face
// embedding over biconnected components, O(n·m). Used to cross-validate the
// left-right test on instances far beyond the exponential minor oracle.
bool is_planar_demoucron(const graph::Graph& g);

}  // namespace ecd::seq
