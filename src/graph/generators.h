// Graph-family generators used by tests, examples, and the benchmark suite.
//
// The paper's results apply to H-minor-free networks; the generators below
// produce the concrete families the evaluation exercises:
//   * planar:          grid, random maximal planar (triangulations) + subgraphs
//   * bounded genus:   torus grid
//   * bounded treewidth: random 2-trees (series-parallel), outerplanar
//   * pathological:    stars / double stars (§3.2 preprocessing), barbell
//   * non-minor-free controls: hypercube, random regular, Erdős–Rényi,
//     planar-plus-random-edges (ε-far inputs for property testing, §3.4)
#pragma once

#include <random>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::graph {

using Rng = std::mt19937_64;

// --- Deterministic families -------------------------------------------------

Graph path(int n);
Graph cycle(int n);
Graph star(int leaves);
Graph complete(int n);
Graph complete_bipartite(int a, int b);
Graph grid(int rows, int cols);
// Grid with wrap-around rows/columns: embeds on the torus (genus 1).
Graph torus_grid(int rows, int cols);
Graph hypercube(int dim);
// Two k-cliques joined by a path of `bridge_len` vertices: the canonical
// low-conductance instance.
Graph barbell(int k, int bridge_len);

// --- Random families ---------------------------------------------------------

// Random recursive tree on n vertices.
Graph random_tree(int n, Rng& rng);

// Random planar triangulation on n >= 3 vertices (3n - 6 edges), built by
// iterated vertex insertion into a uniformly random face.
Graph random_maximal_planar(int n, Rng& rng);

// Uniformly keeps `m` edges of a random triangulation (subgraphs of planar
// graphs are planar). Requires m <= 3n - 6.
Graph random_planar(int n, int m, Rng& rng);

// Random maximal outerplanar graph: n-cycle plus a uniformly random
// non-crossing triangulation of the polygon's interior.
Graph random_outerplanar(int n, Rng& rng);

// Random 2-tree (treewidth exactly 2, K4-minor-free): repeatedly picks an
// existing edge {u, v} and attaches a fresh vertex to both endpoints.
Graph random_two_tree(int n, Rng& rng);

// Pairing-model random d-regular graph (d*n must be even); resamples until
// simple. High conductance w.h.p. — used as the expander control family.
Graph random_regular(int n, int d, Rng& rng);

Graph erdos_renyi(int n, double p, Rng& rng);

// Adds `extra` uniformly random non-edges to `base` — used to manufacture
// ε-far-from-planar inputs for the property-testing experiments.
Graph plus_random_edges(const Graph& base, int extra, Rng& rng);

// A planar graph that is mostly 2-stars and 3-double-stars, so its maximum
// matching is far from linear in n until the §3.2 preprocessing runs.
Graph star_pathology(int num_stars, int leaves_per_star, Rng& rng);

// --- Attribute generators ------------------------------------------------------

// Uniform integer weights in [1, max_weight].
std::vector<Weight> random_weights(const Graph& g, Weight max_weight, Rng& rng);

// Planted correlation-clustering signs: vertices are partitioned into
// BFS-grown regions of ~`target_cluster_size`; intra-region edges are
// positive and inter-region edges negative, then each sign flips
// independently with probability `noise`.
std::vector<EdgeSign> planted_signs(const Graph& g, int target_cluster_size,
                                    double noise, Rng& rng);

// --- Composition ---------------------------------------------------------------

Graph disjoint_union(const std::vector<Graph>& parts);

// --- Named families --------------------------------------------------------------

// The names make_family accepts, the vocabulary of `ecd_cli gen`, the sweep
// specs and the benches: grid, tri, planar, outer, twotree, tree, torus,
// hypercube, expander.
const std::vector<std::string>& family_names();

// A member of the named family with about n vertices: the square grid and
// torus (side >= 3) and the hypercube round n up, the 6-regular expander
// rounds it down to even, and `planar` keeps 2n edges of a triangulation.
// Throws std::invalid_argument on an unknown name.
Graph make_family(const std::string& name, int n, Rng& rng);

}  // namespace ecd::graph
