#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>

#include "src/expander/conductance.h"
#include "src/expander/decomposition.h"
#include "src/expander/distributed_decomposition.h"
#include "src/expander/incremental.h"
#include "src/expander/sweep_cut.h"
#include "src/expander/weighted.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "tests/oracles/random_walk.h"

namespace ecd::expander {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

TEST(Conductance, CutConductanceByHand) {
  // Path 0-1-2-3: cut {0,1} has 1 crossing edge, vol 3 each side.
  Graph g = graph::path(4);
  std::vector<bool> in_s{true, true, false, false};
  EXPECT_DOUBLE_EQ(cut_conductance(g, in_s), 1.0 / 3.0);
}

TEST(Conductance, TrivialCutsAreZero) {
  Graph g = graph::path(3);
  EXPECT_DOUBLE_EQ(cut_conductance(g, {false, false, false}), 0.0);
  EXPECT_DOUBLE_EQ(cut_conductance(g, {true, true, true}), 0.0);
}

TEST(Conductance, ExactOnCompleteGraph) {
  // K4: the worst cut takes 1 vertex: 3 crossing / vol 3 = 1... the balanced
  // cut 2|2 has 4 crossing / vol 6 = 2/3, which is smaller.
  EXPECT_NEAR(exact_conductance(graph::complete(4)), 2.0 / 3.0, 1e-12);
}

TEST(Conductance, ExactOnCycle) {
  // C8: best cut is an arc of 4: 2 crossing / vol 8 = 1/4.
  EXPECT_NEAR(exact_conductance(graph::cycle(8)), 0.25, 1e-12);
}

TEST(Conductance, ExactOnBarbellIsSmall) {
  Graph g = graph::barbell(5, 0);  // two K5s joined by one edge
  // Cutting between the cliques: 1 edge / vol(K5 side)=21.
  EXPECT_NEAR(exact_conductance(g), 1.0 / 21.0, 1e-12);
}

TEST(Conductance, DisconnectedIsZero) {
  EXPECT_DOUBLE_EQ(
      exact_conductance(graph::disjoint_union({graph::path(2), graph::path(2)})),
      0.0);
}

TEST(Conductance, Lambda2OfCompleteGraph) {
  // Normalized Laplacian of K_n has lambda2 = n/(n-1).
  EXPECT_NEAR(lambda2_normalized(graph::complete(8)), 8.0 / 7.0, 1e-3);
}

TEST(Conductance, Lambda2OfCycleMatchesFormula) {
  // lambda2(C_n) = 1 - cos(2 pi / n).
  const int n = 16;
  EXPECT_NEAR(lambda2_normalized(graph::cycle(n), 2000),
              1.0 - std::cos(2.0 * M_PI / n), 1e-3);
}

TEST(Conductance, CheegerBoundsBracketExactValue) {
  Rng rng(1);
  for (const Graph& g :
       {graph::cycle(10), graph::complete(6), graph::grid(3, 4),
        graph::barbell(4, 1), graph::random_maximal_planar(12, rng)}) {
    const double phi = exact_conductance(g);
    const auto bounds = conductance_bounds(g, 2000);
    EXPECT_LE(bounds.lower, phi + 1e-6);
    EXPECT_GE(bounds.upper, phi - 1e-6);
  }
}

TEST(SweepCut, FindsTheBarbellBottleneck) {
  Graph g = graph::barbell(8, 2);
  const auto cut = spectral_cut(g, 500);
  ASSERT_TRUE(cut.valid);
  // The bottleneck conductance is about 1/vol(K8) = 1/(8*7+2) tiny; the
  // sweep must find something of that order.
  EXPECT_LT(cut.conductance, 0.05);
}

TEST(SweepCut, GridCutIsBalancedish) {
  Graph g = graph::grid(12, 12);
  const auto cut = spectral_cut(g, 500);
  ASSERT_TRUE(cut.valid);
  // Φ(grid k x k) = Θ(1/k).
  EXPECT_LT(cut.conductance, 2.0 / 12.0 + 0.05);
  EXPECT_GT(cut.conductance, 0.01);
}

TEST(RandomWalk, DistributionSumsToOne) {
  Graph g = graph::grid(4, 4);
  const auto p = lazy_walk_distribution(g, 0, 10);
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RandomWalk, ConvergesToStationary) {
  Graph g = graph::complete(6);
  const auto p = lazy_walk_distribution(g, 0, 60);
  const auto pi = stationary_distribution(g);
  for (int v = 0; v < 6; ++v) EXPECT_NEAR(p[v], pi[v], 1e-9);
}

TEST(RandomWalk, MixingTimeOrdersFamiliesCorrectly) {
  // Expanders mix much faster than cycles of equal size.
  Rng rng(5);
  Graph expander = graph::random_regular(64, 4, rng);
  Graph ring = graph::cycle(64);
  const std::optional<int> t_exp = mixing_time_estimate(expander, 5000);
  const std::optional<int> t_ring = mixing_time_estimate(ring, 50000);
  ASSERT_TRUE(t_exp.has_value());
  ASSERT_TRUE(t_ring.has_value());
  EXPECT_LT(*t_exp * 5, *t_ring);
}

// Regression: an unmixed walk used to report the sentinel max_steps + 1,
// which callers could consume as a real (absurdly small) mixing time.
TEST(RandomWalk, UnmixedWalkReportsNullopt) {
  Graph ring = graph::cycle(64);
  EXPECT_FALSE(mixing_time_from(ring, 0, 5).has_value());
  EXPECT_FALSE(mixing_time_estimate(ring, 5).has_value());
}

TEST(RandomWalk, MixingTimeVsConductanceBound) {
  // tau_mix <= Theta(log n / Phi^2) (§2). Check on a grid.
  Graph g = graph::grid(8, 8);
  const double phi = cut_conductance(
      g, [&] {
        std::vector<bool> in_s(64, false);
        for (int i = 0; i < 32; ++i) in_s[i] = true;  // half the rows
        return in_s;
      }());
  const std::optional<int> t = mixing_time_estimate(g, 100000);
  ASSERT_TRUE(t.has_value());
  EXPECT_LE(*t, 40.0 * std::log(64.0) / (phi * phi));
}

// --- Decomposition contract (the heart of the reproduction) ---------------

void check_contract(const Graph& g, double eps,
                    const ExpanderDecomposition& d) {
  // Every vertex clustered.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(d.cluster_of[v], 0);
    ASSERT_LT(d.cluster_of[v], d.num_clusters);
  }
  // Inter-cluster edge budget.
  EXPECT_LE(d.inter_cluster_edges, eps * g.num_edges() + 1e-9);
  // is_inter_cluster matches cluster_of.
  int recount = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    const bool inter = d.cluster_of[ed.u] != d.cluster_of[ed.v];
    EXPECT_EQ(inter, static_cast<bool>(d.is_inter_cluster[e]));
    recount += inter;
  }
  EXPECT_EQ(recount, d.inter_cluster_edges);
  // Clusters connected, and each certified bound honest (verified exactly
  // on small clusters).
  const auto members = cluster_members(d);
  ASSERT_EQ(static_cast<int>(members.size()), d.num_clusters);
  for (int c = 0; c < d.num_clusters; ++c) {
    ASSERT_FALSE(members[c].empty());
    const auto sub = graph::induced_subgraph(g, members[c]);
    EXPECT_TRUE(graph::is_connected(sub.graph)) << "cluster " << c;
    if (sub.graph.num_vertices() <= 14 && sub.graph.num_vertices() >= 2 &&
        sub.graph.num_edges() > 0) {
      EXPECT_GE(exact_conductance(sub.graph) + 1e-9,
                d.cluster_phi_certified[c])
          << "cluster " << c;
    }
  }
}

TEST(Decomposition, ContractOnGrid) {
  Graph g = graph::grid(16, 16);
  for (double eps : {0.1, 0.3}) {
    const auto d = expander_decompose(g, eps);
    check_contract(g, eps, d);
  }
}

TEST(Decomposition, ContractOnRandomPlanar) {
  Rng rng(7);
  Graph g = graph::random_maximal_planar(300, rng);
  const auto d = expander_decompose(g, 0.2);
  check_contract(g, 0.2, d);
}

TEST(Decomposition, ContractOnSparsePlanar) {
  Rng rng(8);
  Graph g = graph::random_planar(400, 700, rng);
  const auto d = expander_decompose(g, 0.15);
  check_contract(g, 0.15, d);
}

TEST(Decomposition, ContractOnTree) {
  Rng rng(9);
  Graph g = graph::random_tree(200, rng);
  const auto d = expander_decompose(g, 0.25);
  check_contract(g, 0.25, d);
}

TEST(Decomposition, ContractOnDisconnectedInput) {
  Rng rng(10);
  Graph g = graph::disjoint_union(
      {graph::grid(6, 6), graph::random_tree(40, rng), graph::cycle(30)});
  const auto d = expander_decompose(g, 0.2);
  check_contract(g, 0.2, d);
}

TEST(Decomposition, ExpanderStaysWhole) {
  // A good expander should not be split at moderate eps: its conductance
  // already exceeds the phi target.
  Rng rng(11);
  Graph g = graph::random_regular(128, 6, rng);
  const auto d = expander_decompose(g, 0.3);
  EXPECT_EQ(d.num_clusters, 1);
  EXPECT_EQ(d.inter_cluster_edges, 0);
}

TEST(Decomposition, BarbellIsSplitAtTheBridge) {
  Graph g = graph::barbell(12, 4);
  // At the auto-derived φ the barbell already qualifies as a φ-expander
  // (its bottleneck conductance ≈ 1/vol(K12) beats ε/(8 log m)); pin φ
  // above the bottleneck to force the split.
  DecompositionOptions opt;
  opt.phi = 0.05;
  const auto d = expander_decompose(g, 0.2, opt);
  // The two cliques must land in different clusters.
  EXPECT_NE(d.cluster_of[0], d.cluster_of[g.num_vertices() - 1]);
  EXPECT_LE(d.inter_cluster_edges, 6);
}

TEST(Decomposition, DeterministicModeIsReproducible) {
  Graph g = graph::grid(10, 10);
  DecompositionOptions opt;
  opt.deterministic = true;
  const auto d1 = expander_decompose(g, 0.2, opt);
  const auto d2 = expander_decompose(g, 0.2, opt);
  EXPECT_EQ(d1.cluster_of, d2.cluster_of);
}

// NaN fails every comparison, so a check written as eps <= 0 || eps >= 1
// let it through to a NaN φ and five futile attempts.
TEST(Decomposition, RejectsBadEps) {
  Graph g = graph::path(4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double eps : {0.0, 1.0, nan}) {
    EXPECT_THROW(expander_decompose(g, eps), std::invalid_argument);
    EXPECT_THROW(expander_decompose_weighted(g, eps), std::invalid_argument);
  }
}

TEST(Decomposition, HypercubeTightness) {
  // §2 / [4]: after removing a constant fraction of hypercube edges some
  // component has conductance O(1/log n) — so at constant eps the
  // decomposition must either keep big low-ish-conductance clusters or cut
  // a lot. Sanity-check our construction handles it within budget.
  Graph g = graph::hypercube(7);
  const auto d = expander_decompose(g, 0.3);
  check_contract(g, 0.3, d);
}

TEST(ClusterMembers, PartitionsVertices) {
  Graph g = graph::grid(8, 8);
  const auto d = expander_decompose(g, 0.2);
  const auto members = cluster_members(d);
  int total = 0;
  for (const auto& m : members) total += static_cast<int>(m.size());
  EXPECT_EQ(total, g.num_vertices());
}


// --- The power-iteration kernel against the loops it replaced --------------

// The three power iterations that power_iteration replaced, kept verbatim
// as oracles (DESIGN.md §21): the same operator and start vector, with two
// divisions per term and separate deflate and normalize passes.
std::vector<double> reference_fiedler_embedding(const Graph& g, int iterations,
                                                std::uint64_t seed) {
  const int n = g.num_vertices();
  std::vector<double> sqrt_deg(n);
  double phi1_norm_sq = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    sqrt_deg[v] = std::sqrt(static_cast<double>(g.degree(v)));
    phi1_norm_sq += g.degree(v);
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> x(n), y(n);
  for (auto& xi : x) xi = unit(rng);

  auto deflate = [&](std::vector<double>& v) {
    if (phi1_norm_sq <= 0) return;
    double dot = 0.0;
    for (int i = 0; i < n; ++i) dot += v[i] * sqrt_deg[i];
    dot /= phi1_norm_sq;
    for (int i = 0; i < n; ++i) v[i] -= dot * sqrt_deg[i];
  };
  auto normalize = [&](std::vector<double>& v) {
    double norm = 0.0;
    for (double vi : v) norm += vi * vi;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return false;
    for (double& vi : v) vi /= norm;
    return true;
  };
  deflate(x);
  normalize(x);
  for (int it = 0; it < iterations; ++it) {
    for (int v = 0; v < n; ++v) {
      double acc = 0.0;
      for (VertexId u : g.neighbors(v)) {
        if (sqrt_deg[u] > 0) acc += x[u] / sqrt_deg[u];
      }
      y[v] = 0.5 * (x[v] + (sqrt_deg[v] > 0 ? acc / sqrt_deg[v] : 0.0));
    }
    deflate(y);
    if (!normalize(y)) break;
    x.swap(y);
  }
  // Embed back: Fiedler coordinate of v is x[v] / sqrt(deg v).
  std::vector<double> out(n, 0.0);
  for (int v = 0; v < n; ++v) {
    out[v] = sqrt_deg[v] > 0 ? x[v] / sqrt_deg[v] : 0.0;
  }
  return out;
}

double reference_lambda2_normalized(const Graph& g, int iterations,
                                    std::uint64_t seed) {
  const int n = g.num_vertices();
  if (n < 2 || g.num_edges() == 0) return 0.0;
  // Power iteration on N = D^{-1/2} A D^{-1/2} shifted to M = (I + N)/2 so
  // all eigenvalues are nonnegative; deflate the top eigenvector
  // phi_1(v) = sqrt(deg v). lambda2(L) = 2 - 2*mu where mu is the Rayleigh
  // quotient of M on the deflated space.
  std::vector<double> sqrt_deg(n), x(n);
  double phi1_norm_sq = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    sqrt_deg[v] = std::sqrt(static_cast<double>(g.degree(v)));
    phi1_norm_sq += g.degree(v);
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (auto& xi : x) xi = unit(rng);

  auto deflate = [&](std::vector<double>& v) {
    double dot = 0.0;
    for (int i = 0; i < n; ++i) dot += v[i] * sqrt_deg[i];
    dot /= phi1_norm_sq;
    for (int i = 0; i < n; ++i) v[i] -= dot * sqrt_deg[i];
  };
  auto normalize = [&](std::vector<double>& v) {
    double norm = 0.0;
    for (double vi : v) norm += vi * vi;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return false;
    for (double& vi : v) vi /= norm;
    return true;
  };

  deflate(x);
  if (!normalize(x)) return 0.0;
  std::vector<double> y(n);
  double mu = 0.0;
  for (int it = 0; it < iterations; ++it) {
    // y = M x = (x + N x) / 2.
    for (int v = 0; v < n; ++v) {
      double acc = 0.0;
      for (VertexId u : g.neighbors(v)) {
        if (sqrt_deg[u] > 0) acc += x[u] / sqrt_deg[u];
      }
      y[v] = 0.5 * (x[v] + (sqrt_deg[v] > 0 ? acc / sqrt_deg[v] : 0.0));
    }
    deflate(y);
    mu = 0.0;
    for (int v = 0; v < n; ++v) mu += x[v] * y[v];
    if (!normalize(y)) return 1.0;  // deflated space collapsed: well expanding
    x.swap(y);
  }
  // mu is the Rayleigh quotient of M = (I+N)/2, so lambda2 = 2(1 - mu).
  return std::clamp(2.0 * (1.0 - mu), 0.0, 2.0);
}

std::vector<double> reference_weighted_degrees(const Graph& g) {
  std::vector<double> wd(g.num_vertices(), 0.0);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    wd[ed.u] += static_cast<double>(g.weight(e));
    wd[ed.v] += static_cast<double>(g.weight(e));
  }
  return wd;
}

std::vector<double> reference_weighted_fiedler_embedding(const Graph& g,
                                                         int iterations,
                                                         std::uint64_t seed) {
  const int n = g.num_vertices();
  const auto wd = reference_weighted_degrees(g);
  std::vector<double> sqrt_wd(n);
  double phi1_norm_sq = 0.0;
  for (int v = 0; v < n; ++v) {
    sqrt_wd[v] = std::sqrt(wd[v]);
    phi1_norm_sq += wd[v];
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> x(n), y(n);
  for (auto& xi : x) xi = unit(rng);

  auto deflate = [&](std::vector<double>& v) {
    if (phi1_norm_sq <= 0) return;
    double dot = 0.0;
    for (int i = 0; i < n; ++i) dot += v[i] * sqrt_wd[i];
    dot /= phi1_norm_sq;
    for (int i = 0; i < n; ++i) v[i] -= dot * sqrt_wd[i];
  };
  auto normalize = [&](std::vector<double>& v) {
    double norm = 0.0;
    for (double vi : v) norm += vi * vi;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return false;
    for (double& vi : v) vi /= norm;
    return true;
  };
  deflate(x);
  normalize(x);
  for (int it = 0; it < iterations; ++it) {
    std::fill(y.begin(), y.end(), 0.0);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      const double w = static_cast<double>(g.weight(e));
      if (sqrt_wd[ed.u] > 0 && sqrt_wd[ed.v] > 0) {
        y[ed.u] += w * x[ed.v] / (sqrt_wd[ed.u] * sqrt_wd[ed.v]);
        y[ed.v] += w * x[ed.u] / (sqrt_wd[ed.u] * sqrt_wd[ed.v]);
      }
    }
    for (int v = 0; v < n; ++v) y[v] = 0.5 * (x[v] + y[v]);
    deflate(y);
    if (!normalize(y)) break;
    x.swap(y);
  }
  std::vector<double> out(n, 0.0);
  for (int v = 0; v < n; ++v) {
    out[v] = sqrt_wd[v] > 0 ? x[v] / sqrt_wd[v] : 0.0;
  }
  return out;
}

// Inputs for the kernel comparisons. The first seven are connected, as
// every piece the decomposition cuts is: regular and irregular, bipartite
// and not, with leaves. The last two are disconnected, one with an isolated
// vertex.
constexpr std::size_t kConnectedKernelInputs = 7;
std::vector<Graph> kernel_inputs() {
  Rng rng(2024);
  std::vector<Graph> out;
  out.push_back(graph::grid(12, 12));
  out.push_back(graph::random_maximal_planar(200, rng));
  out.push_back(graph::random_tree(120, rng));
  out.push_back(graph::barbell(9, 3));
  out.push_back(graph::hypercube(6));
  out.push_back(graph::cycle(31));
  out.push_back(graph::complete(7));
  out.push_back(graph::random_planar(150, 300, rng));
  out.push_back(graph::disjoint_union({graph::path(5), graph::path(1)}));
  return out;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// The weighted sweep's choice over `score`: the prefix of the ascending
// stable order with the least weighted conductance, the first on ties.
std::vector<bool> weighted_sweep_choice(const Graph& g,
                                        const std::vector<double>& score) {
  const int n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](VertexId a, VertexId b) {
    return score[a] < score[b];
  });
  std::vector<bool> in_s(n, false), best_s;
  double best = 1e18;
  for (int k = 0; k + 1 < n; ++k) {
    in_s[order[k]] = true;
    const double phi = cut_conductance(g, in_s, /*weighted=*/true);
    if (phi < best) {
      best = phi;
      best_s = in_s;
    }
  }
  return best_s;
}

TEST(PowerIterationKernel, FiedlerEmbeddingMatchesReference) {
  const auto inputs = kernel_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (const int iterations : {0, 1, 37, 300}) {
      for (const std::uint64_t seed : {1ull, 9ull, 0x9e3779b97f4a7c15ull}) {
        const auto got =
            fiedler_coordinates(power_iteration(g, false, iterations, seed));
        const auto want = reference_fiedler_embedding(g, iterations, seed);
        EXPECT_LE(max_abs_diff(got, want), 1e-9)
            << "input " << i << " iterations " << iterations << " seed " << seed;
        if (i >= kConnectedKernelInputs) continue;
        const auto cut = sweep_cut(g, got);
        const auto ref_cut = sweep_cut(g, want);
        EXPECT_EQ(cut.valid, ref_cut.valid);
        EXPECT_EQ(cut.in_s, ref_cut.in_s)
            << "input " << i << " iterations " << iterations << " seed " << seed;
        EXPECT_EQ(cut.conductance, ref_cut.conductance);
      }
    }
  }
}

TEST(PowerIterationKernel, WeightedEmbeddingMatchesReference) {
  Rng rng(77);
  const auto inputs = kernel_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const graph::Weight max_weight : {1, 1000}) {
      const Graph g = inputs[i].with_weights(
          graph::random_weights(inputs[i], max_weight, rng));
      for (const int iterations : {1, 37, 300}) {
        for (const std::uint64_t seed : {1ull, 7920ull}) {
          const auto got =
              fiedler_coordinates(power_iteration(g, true, iterations, seed));
          const auto want =
              reference_weighted_fiedler_embedding(g, iterations, seed);
          EXPECT_LE(max_abs_diff(got, want), 1e-9)
              << "input " << i << " max weight " << max_weight
              << " iterations " << iterations << " seed " << seed;
          if (i >= kConnectedKernelInputs) continue;
          EXPECT_EQ(weighted_sweep_choice(g, got),
                    weighted_sweep_choice(g, want))
              << "input " << i << " max weight " << max_weight
              << " iterations " << iterations << " seed " << seed;
        }
      }
    }
  }
}

TEST(PowerIterationKernel, Lambda2MatchesReference) {
  const auto inputs = kernel_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const int iterations : {0, 1, 37, 300, 2000}) {
      for (const std::uint64_t seed : {1ull, 5ull}) {
        EXPECT_NEAR(lambda2_normalized(inputs[i], iterations, seed),
                    reference_lambda2_normalized(inputs[i], iterations, seed),
                    1e-9)
            << "input " << i << " iterations " << iterations << " seed " << seed;
      }
    }
  }
  // The two-vertex path collapses on the first step in both.
  EXPECT_EQ(lambda2_normalized(graph::path(2), 10, 1),
            reference_lambda2_normalized(graph::path(2), 10, 1));
}

TEST(PowerIterationKernel, ReportsUnitIterateAndDegrees) {
  Rng rng(5);
  const Graph base = graph::random_maximal_planar(60, rng);
  const Graph g = base.with_weights(graph::random_weights(base, 50, rng));
  for (const bool weighted : {false, true}) {
    const PowerIteration it = power_iteration(g, weighted, 100, 3);
    EXPECT_FALSE(it.vanished);
    const auto wd = reference_weighted_degrees(g);
    double norm_sq = 0.0, dot = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(it.degree[v], weighted ? wd[v] : g.degree(v));
      EXPECT_EQ(it.sqrt_degree[v], std::sqrt(it.degree[v]));
      norm_sq += it.x[v] * it.x[v];
      dot += it.x[v] * it.sqrt_degree[v];
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-12);
    EXPECT_NEAR(dot, 0.0, 1e-9);
    EXPECT_GT(it.mu, 0.0);
    EXPECT_LT(it.mu, 1.0);
  }
}

// --- One sweep and one cut conductance for both weightings ----------------

// The sweeps and the weighted cut conductance that the weight switches of
// sweep_cut and cut_conductance replaced, kept verbatim as oracles: the
// unweighted sweep summed integer cuts and degrees, the weighted code summed
// weights and weighted degrees in doubles.
SweepResult reference_sweep_cut(const Graph& g,
                                const std::vector<double>& score) {
  const int n = g.num_vertices();
  SweepResult result;
  if (n < 2 || g.num_edges() == 0) return result;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](VertexId a, VertexId b) {
    return score[a] < score[b];
  });
  std::vector<bool> inside(n, false);
  std::int64_t vol_s = 0;
  const std::int64_t vol_total = g.volume();
  std::int64_t cut = 0;
  double best = 1e18;
  int best_k = -1;
  for (int k = 0; k + 1 < n; ++k) {
    const VertexId v = order[k];
    int inside_nbrs = 0;
    for (VertexId u : g.neighbors(v)) {
      if (inside[u]) ++inside_nbrs;
    }
    cut += g.degree(v) - 2 * inside_nbrs;
    inside[v] = true;
    vol_s += g.degree(v);
    const std::int64_t small_vol = std::min(vol_s, vol_total - vol_s);
    if (small_vol == 0) continue;
    const double phi = static_cast<double>(cut) / static_cast<double>(small_vol);
    if (phi < best) {
      best = phi;
      best_k = k + 1;
    }
  }
  if (best_k < 0) return result;
  result.in_s.assign(n, false);
  for (int i = 0; i < best_k; ++i) result.in_s[order[i]] = true;
  result.conductance = best;
  result.valid = true;
  return result;
}

SweepResult reference_weighted_sweep_cut(const Graph& g,
                                         const std::vector<double>& score) {
  const int n = g.num_vertices();
  const auto wd = reference_weighted_degrees(g);
  SweepResult result;
  if (n < 2 || g.num_edges() == 0) return result;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](VertexId a, VertexId b) {
    return score[a] < score[b];
  });
  std::vector<bool> inside(n, false);
  double vol_total = 0.0;
  for (double w : wd) vol_total += w;
  double vol_s = 0.0, cut = 0.0, best = 1e18;
  int best_k = -1;
  for (int k = 0; k + 1 < n; ++k) {
    const VertexId v = order[k];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double w = static_cast<double>(g.weight(eids[i]));
      cut += inside[nbrs[i]] ? -w : w;
    }
    inside[v] = true;
    vol_s += wd[v];
    const double small = std::min(vol_s, vol_total - vol_s);
    if (small <= 0) continue;
    const double phi = cut / small;
    if (phi < best) {
      best = phi;
      best_k = k + 1;
    }
  }
  if (best_k < 0) return result;
  result.in_s.assign(n, false);
  for (int i = 0; i < best_k; ++i) result.in_s[order[i]] = true;
  result.conductance = best;
  result.valid = true;
  return result;
}

double reference_weighted_cut_conductance(const Graph& g,
                                          const std::vector<bool>& in_s) {
  const auto wd = reference_weighted_degrees(g);
  double vol_s = 0.0, vol_total = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vol_total += wd[v];
    if (in_s[v]) vol_s += wd[v];
  }
  const double vol_rest = vol_total - vol_s;
  if (vol_s <= 0.0 || vol_rest <= 0.0) return 0.0;
  double cut = 0.0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (in_s[ed.u] != in_s[ed.v]) cut += static_cast<double>(g.weight(e));
  }
  return cut / std::min(vol_s, vol_rest);
}

void expect_same_cut(const SweepResult& got, const SweepResult& want,
                     const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.in_s, want.in_s) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.conductance),
            std::bit_cast<std::uint64_t>(want.conductance))
      << where;
}

// Every kernel input, unweighted and with weights up to 1000, swept by
// Fiedler coordinates of both kernels and by small integer scores full of
// ties; a weighted graph is also swept unweighted, as expander_decompose
// sweeps one. Cuts and conductances must match bit for bit.
TEST(SweepCut, WeightSwitchMatchesTheSweepsItReplaced) {
  Rng rng(31);
  const auto inputs = kernel_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph weighted =
        inputs[i].with_weights(graph::random_weights(inputs[i], 1000, rng));
    for (const Graph* g : {&inputs[i], &weighted}) {
      std::vector<std::vector<double>> scores;
      for (const bool w : {false, true}) {
        scores.push_back(fiedler_coordinates(power_iteration(*g, w, 300, i)));
      }
      std::uniform_int_distribution<int> small(0, 3);
      std::vector<double>& ties = scores.emplace_back(g->num_vertices());
      for (double& x : ties) x = small(rng);
      scores.emplace_back(g->num_vertices(), 0.0);
      for (std::size_t s = 0; s < scores.size(); ++s) {
        const std::string where = "input " + std::to_string(i) + " weighted " +
                                  std::to_string(g == &weighted) + " score " +
                                  std::to_string(s);
        expect_same_cut(sweep_cut(*g, scores[s]),
                        reference_sweep_cut(*g, scores[s]), where);
        expect_same_cut(sweep_cut(*g, scores[s], /*weighted=*/true),
                        reference_weighted_sweep_cut(*g, scores[s]), where);
      }
      std::bernoulli_distribution coin(0.5);
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<bool> in_s(g->num_vertices());
        for (std::size_t v = 0; v < in_s.size(); ++v) in_s[v] = coin(rng);
        EXPECT_EQ(cut_conductance(*g, in_s, /*weighted=*/true),
                  reference_weighted_cut_conductance(*g, in_s))
            << "input " << i << " trial " << trial;
      }
    }
  }
}

// --- Pinned decompositions --------------------------------------------------

// FNV-1a over 64-bit words, eight bytes each, low byte first.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// A decomposition's labels: num_clusters, then cluster_of in vertex order.
std::uint64_t cluster_hash(const ExpanderDecomposition& d) {
  Fnv1a f;
  f.mix(d.num_clusters);
  for (const int c : d.cluster_of) f.mix(c);
  return f.h;
}

// Every other field but the certificates: the labels, then the bits of phi,
// is_inter_cluster in edge order, inter_cluster_edges and the inter-cluster
// weight (0 for the unweighted drivers).
std::uint64_t field_hash(const ExpanderDecomposition& d,
                         std::int64_t inter_cluster_weight = 0) {
  Fnv1a f;
  f.mix(cluster_hash(d));
  f.mix(std::bit_cast<std::uint64_t>(d.phi));
  for (const bool inter : d.is_inter_cluster) f.mix(inter);
  f.mix(d.inter_cluster_edges);
  f.mix(inter_cluster_weight);
  return f.h;
}

// The bits of every cluster_phi_certified, in cluster order. Kept apart
// from field_hash so that a declared certificate change re-records only
// this column.
std::uint64_t certificate_hash(const ExpanderDecomposition& d) {
  Fnv1a f;
  f.mix(d.cluster_phi_certified.size());
  for (const double c : d.cluster_phi_certified) {
    f.mix(std::bit_cast<std::uint64_t>(c));
  }
  return f.h;
}

// Labels recorded before the power iterations became one division-free
// kernel (DESIGN.md §21); the other fields were recorded before the drivers
// shared one skeleton. The weighted inputs are the perfbench
// mwm-multicluster shape: a 48x48 grid with weights in [1, 1000],
// decomposed at eps 0.2 and phi 0.1 as one MWM phase does.
TEST(PinnedDecomposition, WeightedGrids) {
  struct Case {
    std::uint64_t input_seed;
    std::uint64_t seed;
    std::uint64_t hash;
    std::uint64_t fields;
    std::uint64_t certificates;
  };
  const Case cases[] = {
      {1, 1, 0x6459b9042009dfc9ull, 0xa6b8e182451f1f69ull,
       0xecb885faddff46b0ull},
      {1, 2, 0x739cc3fb5dc3c903ull, 0xf6d148524f3a091eull,
       0xc5d7ccb6abc7c401ull},
      {7919, 1, 0x8f45ff4fb25a702cull, 0xb3957864ad0341a7ull,
       0x2b660d4a5b5d6cfdull},
      {7919, 2, 0x61a14d3529dd8828ull, 0x367b0d50d5f7b4fcull,
       0xda1532531202a5f4ull},
      {3, 1, 0x7c0201ba95b0042full, 0x8e30ade580376025ull,
       0xefa39c971bccbee8ull},
      {3, 2, 0xe5f156855a1805a4ull, 0x8ee79d71f13d23efull,
       0x0803a57db13c0163ull},
  };
  for (const Case& c : cases) {
    Rng rng(c.input_seed);
    const Graph base = graph::grid(48, 48);
    const Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
    DecompositionOptions opt;
    opt.phi = 0.1;
    opt.seed = c.seed;
    const auto d = expander_decompose_weighted(g, 0.2, opt);
    EXPECT_EQ(cluster_hash(d.base), c.hash)
        << "input seed " << c.input_seed << " seed " << c.seed;
    EXPECT_EQ(field_hash(d.base, d.inter_cluster_weight), c.fields)
        << "input seed " << c.input_seed << " seed " << c.seed;
    EXPECT_EQ(certificate_hash(d.base), c.certificates)
        << "input seed " << c.input_seed << " seed " << c.seed;
  }
}

// The bench_decomposition families at n = 1024 (same generators and input
// seed as that bench), at the default phi and at phi = 0.2.
TEST(PinnedDecomposition, UnweightedBenchFamilies) {
  struct Case {
    const char* family;
    double phi;
    std::uint64_t hash;
    std::uint64_t fields;
    std::uint64_t certificates;
  };
  const Case cases[] = {
      {"grid", 0.0, 0xee0c18234cc007c2ull, 0xfe1fade6ae440995ull,
       0x370164ca8762c70dull},
      {"grid", 0.2, 0x0bba1d4cd6522db9ull, 0x7d94d1f687d968fdull,
       0xb32e6faf56ba212bull},
      {"triangulation", 0.0, 0xee0c18234cc007c2ull, 0xfe8ba16920e73436ull,
       0xeda64f6bbb7e45b7ull},
      {"triangulation", 0.2, 0xc785dc303471440eull, 0xeeac5da22ebe403aull,
       0x680f06835dc44649ull},
      {"random_planar", 0.0, 0x7835478b1511265bull, 0xc31fad3160b47735ull,
       0xfa044628ff52fd6cull},
      {"random_planar", 0.2, 0xeacba2c99d1d0283ull, 0xb988b68c00e0312eull,
       0xcbc2c4a500f6bb57ull},
      {"outerplanar", 0.0, 0xee0c18234cc007c2ull, 0xfb71065a62344d43ull,
       0x0b3b47c87af738cfull},
      {"outerplanar", 0.2, 0x93e459b5f9e40a30ull, 0x28d819f50d9a4422ull,
       0x5ca83f57679034d1ull},
      {"tree", 0.0, 0xee0c18234cc007c2ull, 0x896ca3ea988655c2ull,
       0x88c56fbc3ffe0f1bull},
      {"tree", 0.2, 0x553fb16e4a761c5eull, 0x8ce00af8e415ff5full,
       0x81f3dfb075422a22ull},
  };
  const int n = 1024;
  for (const Case& c : cases) {
    Rng rng(12345 + n);
    const std::string family = c.family;
    const Graph g = family == "grid"            ? graph::grid(32, 32)
                    : family == "triangulation" ? graph::random_maximal_planar(n, rng)
                    : family == "random_planar" ? graph::random_planar(n, 2 * n, rng)
                    : family == "outerplanar"   ? graph::random_outerplanar(n, rng)
                                                : graph::random_tree(n, rng);
    DecompositionOptions opt;
    opt.phi = c.phi;
    opt.seed = 9;
    const auto d = expander_decompose(g, 0.2, opt);
    EXPECT_EQ(cluster_hash(d), c.hash) << family << " phi " << c.phi;
    EXPECT_EQ(field_hash(d), c.fields) << family << " phi " << c.phi;
    EXPECT_EQ(certificate_hash(d), c.certificates)
        << family << " phi " << c.phi;
  }
}

// The distributed_decomposition_test inputs, at their eps and phi. The
// certificate columns here and in Refresh were re-recorded once, when the
// distributed driver began to certify each cluster (the exact cut or
// 0.9·λ2/2) instead of writing the target φ; the field columns are the ones
// recorded before the drivers shared one skeleton.
TEST(PinnedDecomposition, Distributed) {
  Rng tri_rng(3), tree_rng(5);
  const struct {
    const char* name;
    Graph g;
    double eps, phi;
    std::uint64_t fields, certificates;
  } cases[] = {
      {"grid12", graph::grid(12, 12), 0.3, 0.0, 0xfffb871539f031e2ull,
       0x6e7334cf5f557027ull},
      {"grid14", graph::grid(14, 14), 0.45, 0.06, 0x70e6844cdd586dbaull,
       0x3126b4a9e8fef3faull},
      {"triangulation", graph::random_maximal_planar(200, tri_rng), 0.25, 0.0,
       0x0ce7c4a048bb8fadull, 0x6b9958add850f4b7ull},
      {"tree", graph::random_tree(150, tree_rng), 0.3, 0.0,
       0x839b20b943c5f56dull, 0x720a9469b5aaa544ull},
      {"barbell", graph::barbell(10, 2), 0.3, 0.05, 0xa0f0bf2c8b984b83ull,
       0xb6349849b8601b11ull},
      {"union", graph::disjoint_union({graph::grid(6, 6), graph::cycle(20)}),
       0.3, 0.0, 0x1b047018a9c31642ull, 0xef65eea95a7cc549ull},
  };
  for (const auto& c : cases) {
    DistributedDecompositionOptions opt;
    opt.phi = c.phi;
    const auto r = distributed_expander_decompose(c.g, c.eps, opt);
    EXPECT_EQ(field_hash(r.decomposition), c.fields) << c.name;
    EXPECT_EQ(certificate_hash(r.decomposition), c.certificates) << c.name;
  }
}

// One refresh per path of refresh_decomposition on a 14x14 grid cut at
// phi 0.06: no event (the old labels are re-anchored), two edge events in
// one corner (the dirty clusters are re-run and spliced), and a vertex
// leaving together with a quarter of the edges (the full rebuild).
TEST(PinnedDecomposition, Refresh) {
  const Graph g = graph::grid(14, 14);
  IncrementalRefreshOptions opt;
  opt.decomposition.phi = 0.06;
  const ExpanderDecomposition old_d =
      distributed_expander_decompose(g, 0.45, opt.decomposition).decomposition;
  using congest::ChurnEvent;
  using congest::ChurnKind;
  std::vector<ChurnEvent> corner = {
      {ChurnKind::kEdgeDelete, 0, 0, 1},
      {ChurnKind::kEdgeInsert, 0, 0, 15},
  };
  std::vector<ChurnEvent> wide = {{ChurnKind::kNodeLeave, 0, 100}};
  for (graph::EdgeId e = 0; e < g.num_edges(); e += 4) {
    wide.push_back({ChurnKind::kEdgeDelete, 0, g.edge(e).u, g.edge(e).v});
  }
  struct Case {
    const char* name;
    const std::vector<ChurnEvent>* events;
    std::uint64_t fields;
    std::uint64_t certificates;
  };
  const std::vector<ChurnEvent> none;
  const Case cases[] = {
      {"none", &none, 0x70e6844cdd586dbaull, 0x3126b4a9e8fef3faull},
      {"corner", &corner, 0x8872a517e127d3e6ull, 0xb8b1736de72e1d96ull},
      {"wide", &wide, 0xaf881404dad2c759ull, 0xad18eb6929f9d98eull},
  };
  for (const Case& c : cases) {
    const Graph churned = apply_churn_to_graph(g, *c.events);
    const auto r = refresh_decomposition(old_d, churned, *c.events, 0.45, opt);
    EXPECT_EQ(r.fell_back_to_full, c.events == &wide) << c.name;
    EXPECT_EQ(r.dirty_clusters > 0, c.events != &none) << c.name;
    EXPECT_EQ(field_hash(r.decomposition), c.fields) << c.name;
    EXPECT_EQ(certificate_hash(r.decomposition), c.certificates) << c.name;
  }
}

}  // namespace
}  // namespace ecd::expander
