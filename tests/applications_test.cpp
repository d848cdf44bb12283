#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/correlation.h"
#include "src/core/ldd.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/mis.h"
#include "src/seq/mwm.h"
#include "src/seq/planarity.h"
#include "tests/oracles/return_oracles.h"

namespace ecd::core {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// ---- Theorem 1.2: maximum independent set ---------------------------------

TEST(MisApprox, OutputIsIndependent) {
  Rng rng(1);
  Graph g = graph::random_maximal_planar(200, rng);
  const auto r = mis_approx(g, 0.3);
  EXPECT_TRUE(seq::is_independent_set(g, r.independent_set));
}

TEST(MisApprox, AchievesOneMinusEpsOnGrid) {
  // alpha(grid 8x8) = 32 (checkerboard).
  Graph g = graph::grid(8, 8);
  const double eps = 0.25;
  const auto r = mis_approx(g, eps);
  ASSERT_TRUE(seq::is_independent_set(g, r.independent_set));
  EXPECT_GE(r.independent_set.size(), (1.0 - eps) * 32);
}

TEST(MisApprox, AchievesOneMinusEpsVsExactOnSmallPlanar) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = graph::random_planar(60, 100, rng);
    const double eps = 0.3;
    const auto r = mis_approx(g, eps, {.framework = {.seed = 77 + trial}});
    ASSERT_TRUE(seq::is_independent_set(g, r.independent_set));
    const auto exact = seq::max_independent_set_exact(g);
    ASSERT_TRUE(exact.has_value());
    EXPECT_GE(r.independent_set.size() + 1e-9, (1.0 - eps) * exact->size())
        << "trial " << trial;
  }
}

TEST(MisApprox, GreedyLowerBoundHolds) {
  // §3.1: alpha(G) >= n/(2d+1); the output is within (1-eps) of alpha.
  Rng rng(3);
  Graph g = graph::random_maximal_planar(400, rng);  // d = 3
  const auto r = mis_approx(g, 0.2);
  EXPECT_GE(r.independent_set.size(), (1.0 - 0.2) * g.num_vertices() / 7.0);
}

TEST(MisApprox, LedgerCoversAllPhases) {
  Graph g = graph::grid(8, 8);
  const auto r = mis_approx(g, 0.3);
  EXPECT_GT(r.ledger.measured_total(), 0);
  EXPECT_GT(r.ledger.modeled_total(), 0);
  EXPECT_GT(r.num_clusters, 0);
}

// ---- Theorem 3.2: planar MCM ----------------------------------------------

TEST(StarElimination, RemovesExtraLeaves) {
  // Star with 5 leaves: 4 removed, matching size unchanged (=1).
  Graph g = graph::star(5);
  const auto r = eliminate_stars(g);
  EXPECT_EQ(r.removed_count, 4);
  EXPECT_FALSE(r.removed[0]);  // center stays
}

TEST(StarElimination, RemovesDoubleStarCompanions) {
  // K_{2,5}: 5 degree-2 companions of the pair (0,1): keep 2.
  Graph g = graph::complete_bipartite(2, 5);
  const auto r = eliminate_stars(g);
  EXPECT_EQ(r.removed_count, 3);
}

TEST(StarElimination, PreservesMaximumMatchingSize) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = graph::star_pathology(4, 4, rng);
    const auto before = seq::matching_size(seq::max_cardinality_matching(g));
    const auto elim = eliminate_stars(g);
    std::vector<bool> keep(g.num_edges(), true);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      keep[e] = !elim.removed[g.edge(e).u] && !elim.removed[g.edge(e).v];
    }
    const Graph g_bar = graph::edge_subgraph(g, keep);
    const auto after = seq::matching_size(seq::max_cardinality_matching(g_bar));
    EXPECT_EQ(before, after) << "trial " << trial;
  }
}

TEST(StarElimination, Lemma31LinearityAfterElimination) {
  // After elimination the maximum matching is Ω(#surviving non-isolated
  // vertices) — the engine behind §3.2.
  Rng rng(5);
  Graph g = graph::star_pathology(10, 8, rng);
  const auto elim = eliminate_stars(g);
  std::vector<bool> keep(g.num_edges(), true);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    keep[e] = !elim.removed[g.edge(e).u] && !elim.removed[g.edge(e).v];
  }
  const Graph g_bar = graph::edge_subgraph(g, keep);
  int surviving = 0;
  for (VertexId v = 0; v < g_bar.num_vertices(); ++v) {
    surviving += g_bar.degree(v) > 0;
  }
  const int matching = seq::matching_size(seq::max_cardinality_matching(g_bar));
  EXPECT_GE(8 * matching, surviving);  // c >= 1/8
}

TEST(McmApprox, ValidMatchingOnPlanar) {
  Rng rng(6);
  Graph g = graph::random_planar(300, 500, rng);
  const auto r = mcm_planar_approx(g, 0.3);
  EXPECT_TRUE(seq::is_valid_matching(g, r.mates));
}

TEST(McmApprox, AchievesOneMinusEps) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = graph::random_planar(200, 350, rng);
    const double eps = 0.3;
    const auto r =
        mcm_planar_approx(g, eps, {.framework = {.seed = 13 + trial}});
    const int opt = seq::matching_size(seq::max_cardinality_matching(g));
    EXPECT_GE(r.matching_size + 1e-9, (1.0 - eps) * opt) << "trial " << trial;
  }
}

TEST(McmApprox, HandlesStarPathology) {
  // Without preprocessing the optimum is far from linear in n; the
  // algorithm must still approximate well.
  Rng rng(8);
  Graph g = graph::star_pathology(12, 10, rng);
  const auto r = mcm_planar_approx(g, 0.3);
  EXPECT_TRUE(seq::is_valid_matching(g, r.mates));
  const int opt = seq::matching_size(seq::max_cardinality_matching(g));
  EXPECT_GE(r.matching_size + 1e-9, (1.0 - 0.3) * opt);
  EXPECT_GT(r.removed_vertices, 0);
}

// ---- Theorem 1.1: maximum weight matching -----------------------------------

TEST(MwmApprox, ValidAndMonotoneVsGreedy) {
  Rng rng(9);
  Graph base = graph::random_planar(150, 280, rng);
  Graph g = base.with_weights(graph::random_weights(base, 100, rng));
  const auto r = mwm_approx(g, 0.3);
  EXPECT_TRUE(seq::is_valid_matching(g, r.mates));
  const auto greedy = seq::greedy_weight_matching(g);
  EXPECT_GE(r.weight, seq::matching_weight(g, greedy));
}

TEST(MwmApprox, AchievesOneMinusEpsOnWeightedPlanar) {
  Rng rng(10);
  for (int trial = 0; trial < 4; ++trial) {
    Graph base = graph::random_planar(120, 200, rng);
    Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
    const double eps = 0.25;
    const auto r = mwm_approx(g, eps, {.framework = {.seed = 100 + trial}});
    const auto exact = seq::max_weight_matching(g);
    EXPECT_GE(r.weight + 1e-9, (1.0 - eps) * seq::matching_weight(g, exact))
        << "trial " << trial;
  }
}

TEST(MwmApprox, HandlesHighWeightSpread) {
  Rng rng(11);
  Graph base = graph::grid(10, 10);
  Graph g = base.with_weights(graph::random_weights(base, 1'000'000, rng));
  const auto r = mwm_approx(g, 0.3);
  const auto exact = seq::max_weight_matching(g);
  EXPECT_GE(r.weight + 1e-9, 0.7 * seq::matching_weight(g, exact));
}

// ---- One answer whatever the gather route ------------------------------------

// The gather configurations an application's answer must not depend on: the
// plain walk gather, the reliable gather, and the reliable gather at 1% drop,
// each at one and four threads. Each moves the tokens along other routes,
// but a complete gather delivers the same tokens, and the leader numbers its
// cluster canonically, so every configuration solves the same subgraphs.
// The epoch budget is set so that the faulted gathers complete.
struct GatherConfig {
  std::string name;
  FrameworkOptions framework;
};

std::vector<GatherConfig> gather_configs(std::uint64_t seed) {
  std::vector<GatherConfig> out;
  for (const int threads : {1, 4}) {
    for (const char* route : {"walk", "reliable", "reliable+1%drop"}) {
      GatherConfig c;
      c.name = std::string(route) + " threads=" + std::to_string(threads);
      c.framework.seed = seed;
      c.framework.num_threads = threads;
      c.framework.gather_epoch_rounds = 4096;
      c.framework.reliable_gather = route != std::string("walk");
      if (route == std::string("reliable+1%drop")) {
        c.framework.faults.seed = 77;
        c.framework.faults.drop_probability = 0.01;
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

TEST(GatherRouteEquivalence, MisAnswerIsTheSameOnEveryRoute) {
  Rng rng(21);
  const Graph g = graph::random_maximal_planar(90, rng);
  const double eps = 0.3;
  std::vector<VertexId> reference;
  for (const GatherConfig& c : gather_configs(5)) {
    SCOPED_TRACE(c.name);
    const auto r = mis_approx(g, eps, {.framework = c.framework});
    // The partition mis_approx runs: ε' = ε/(2d+1), density bound 1.
    FrameworkOptions f = c.framework;
    f.density_bound = 1;
    const int d = static_cast<int>(std::ceil(g.edge_density()));
    ASSERT_TRUE(partition_and_gather(g, eps / (2 * d + 1), f).gather_complete);
    if (reference.empty()) reference = r.independent_set;
    EXPECT_EQ(r.independent_set, reference);
  }
  EXPECT_FALSE(reference.empty());
}

TEST(GatherRouteEquivalence, McmAnswerIsTheSameOnEveryRoute) {
  Rng rng(22);
  const Graph g = graph::random_planar(120, 200, rng);
  const double eps = 0.3;
  // The partition mcm_planar_approx runs: Ḡ after star elimination,
  // ε' = ε/8, density bound 1.
  const auto removed = eliminate_stars(g).removed;
  std::vector<bool> keep_edge(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    keep_edge[e] = !removed[g.edge(e).u] && !removed[g.edge(e).v];
  }
  const Graph g_bar = graph::edge_subgraph(g, keep_edge);
  seq::Mates reference;
  for (const GatherConfig& c : gather_configs(6)) {
    SCOPED_TRACE(c.name);
    const auto r = mcm_planar_approx(g, eps, {.framework = c.framework});
    FrameworkOptions f = c.framework;
    f.density_bound = 1;
    ASSERT_TRUE(partition_and_gather(g_bar, eps * 0.125, f).gather_complete);
    if (reference.empty()) reference = r.mates;
    EXPECT_EQ(r.mates, reference);
  }
}

TEST(GatherRouteEquivalence, MwmAnswerIsTheSameOnEveryRoute) {
  Rng rng(23);
  const Graph base = graph::random_planar(100, 170, rng);
  const Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
  const double eps = 0.3;
  seq::Mates reference;
  for (const GatherConfig& c : gather_configs(7)) {
    SCOPED_TRACE(c.name);
    MwmApproxOptions opt;
    opt.framework = c.framework;
    opt.phases = 3;
    const auto r = mwm_approx(g, eps, opt);
    // The partition each mwm_approx phase runs.
    for (int phase = 0; phase < opt.phases; ++phase) {
      FrameworkOptions f = c.framework;
      f.weighted_volumes = opt.weighted_decomposition;
      f.seed = c.framework.seed + 0x51ED2701ULL * (phase + 1);
      ASSERT_TRUE(partition_and_gather(g, eps, f).gather_complete)
          << "phase " << phase;
    }
    if (reference.empty()) reference = r.mates;
    EXPECT_EQ(r.mates, reference);
  }
}

TEST(GatherRouteEquivalence, CorrelationAnswerIsTheSameOnEveryRoute) {
  Rng rng(24);
  const Graph base = graph::random_planar(120, 220, rng);
  const Graph g = base.with_signs(graph::planted_signs(base, 8, 0.1, rng));
  const double eps = 0.3;
  seq::Clustering reference;
  for (const GatherConfig& c : gather_configs(8)) {
    SCOPED_TRACE(c.name);
    const auto r = correlation_approx(g, eps, {.framework = c.framework});
    // The partition correlation_approx runs: ε' = ε/2, density bound 1.
    FrameworkOptions f = c.framework;
    f.density_bound = 1;
    ASSERT_TRUE(partition_and_gather(g, eps / 2, f).gather_complete);
    if (reference.empty()) reference = r.clustering;
    EXPECT_EQ(r.clustering, reference);
  }
}

TEST(GatherRouteEquivalence, LddAnswerIsTheSameOnEveryRoute) {
  Rng rng(25);
  const Graph g = graph::random_planar(120, 200, rng);
  const double eps = 0.3;
  std::vector<int> reference;
  for (const GatherConfig& c : gather_configs(9)) {
    SCOPED_TRACE(c.name);
    LddApproxOptions opt;
    opt.framework = c.framework;
    const auto r = ldd_approx(g, eps, opt);
    // The partition ldd_approx runs: ε' = ε/2, density bound 1.
    FrameworkOptions f = c.framework;
    f.density_bound = 1;
    ASSERT_TRUE(partition_and_gather(g, eps / 2, f).gather_complete);
    if (reference.empty()) reference = r.cluster_of;
    EXPECT_EQ(r.cluster_of, reference);
  }
}

// Property testing's verdicts, per vertex and overall, on a planar input
// and on one that a disjoint K6 puts far from planar.
TEST(GatherRouteEquivalence, PropertyTestVerdictIsTheSameOnEveryRoute) {
  Rng rng(26);
  const Graph planar = graph::random_maximal_planar(90, rng);
  const Graph far = graph::disjoint_union(
      {graph::random_maximal_planar(60, rng), graph::complete(6)});
  const double eps = 0.3;
  for (const auto& [g, accepts] :
       {std::pair{&planar, true}, std::pair{&far, false}}) {
    SCOPED_TRACE(accepts ? "planar" : "planar plus K6");
    std::vector<bool> reference;
    for (const GatherConfig& c : gather_configs(10)) {
      SCOPED_TRACE(c.name);
      const auto r = property_test(*g, seq::planar_property(), eps,
                                   {.framework = c.framework});
      // The partition property_test runs: density bound 3 for K5-minor-free
      // graphs (Mader).
      FrameworkOptions f = c.framework;
      f.density_bound = 3;
      ASSERT_TRUE(partition_and_gather(*g, eps, f).gather_complete);
      EXPECT_EQ(r.accept, accepts);
      if (reference.empty()) reference = r.vertex_accepts;
      EXPECT_EQ(r.vertex_accepts, reference);
    }
  }
}

// ---- The return follows first-arrival paths -----------------------------------

// Each result return sends one message along each hop of its partition's
// registration tokens' first-arrival paths (the reference's, tests/oracles),
// and takes no more rounds and no higher edge load than the gather it
// reverses. `partitions` are the partitions the application ran, rebuilt
// from its options, in ledger order.
void expect_return_follows_paths(const congest::RoundLedger& ledger,
                                 const std::vector<Partition>& partitions) {
  std::vector<const congest::LedgerEntry*> gathers;
  std::vector<const congest::LedgerEntry*> returns;
  for (const auto& e : ledger.entries()) {
    if (e.label.find("topology gather") == 0) gathers.push_back(&e);
    if (e.label == "result return (reversed walks)") returns.push_back(&e);
  }
  ASSERT_EQ(gathers.size(), partitions.size());
  ASSERT_EQ(returns.size(), partitions.size());
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    SCOPED_TRACE("partition " + std::to_string(k));
    const Partition& p = partitions[k];
    std::int64_t path_hops = 0;
    for (graph::VertexId v = 0; v < p.graph->num_vertices(); ++v) {
      path_hops += static_cast<std::int64_t>(
          congest::first_arrival_path(*p.graph, v, p.gather.first_arrivals[v])
              .size());
    }
    EXPECT_EQ(returns[k]->stats.messages_sent, path_hops);
    EXPECT_GT(path_hops, 0);
    EXPECT_LE(returns[k]->stats.rounds, gathers[k]->stats.rounds);
    EXPECT_LE(returns[k]->stats.max_edge_load,
              gathers[k]->stats.max_edge_load);
  }
}

TEST(ReturnAlongPaths, MisSendsOneMessagePerKeptHop) {
  Rng rng(26);
  const Graph g = graph::random_maximal_planar(90, rng);
  const double eps = 0.3;
  FrameworkOptions f;
  f.seed = 4;
  const auto r = mis_approx(g, eps, {.framework = f});
  // The partition mis_approx runs: ε' = ε/(2d+1), density bound 1.
  f.density_bound = 1;
  const int d = static_cast<int>(std::ceil(g.edge_density()));
  std::vector<Partition> partitions;
  partitions.push_back(partition_and_gather(g, eps / (2 * d + 1), f));
  expect_return_follows_paths(r.ledger, partitions);
}

TEST(ReturnAlongPaths, McmSendsOneMessagePerKeptHop) {
  Rng rng(27);
  const Graph g = graph::grid(9, 9);
  const double eps = 0.3;
  FrameworkOptions f;
  f.seed = 5;
  const auto r = mcm_planar_approx(g, eps, {.framework = f});
  // The partition mcm_planar_approx runs: Ḡ after star elimination,
  // ε' = ε/8, density bound 1.
  const auto removed = eliminate_stars(g).removed;
  std::vector<bool> keep_edge(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    keep_edge[e] = !removed[g.edge(e).u] && !removed[g.edge(e).v];
  }
  f.density_bound = 1;
  const Graph gbar = graph::edge_subgraph(g, keep_edge);
  std::vector<Partition> partitions;
  partitions.push_back(partition_and_gather(gbar, eps * 0.125, f));
  expect_return_follows_paths(r.ledger, partitions);
}

TEST(ReturnAlongPaths, MwmSendsOneMessagePerKeptHopInEveryPhase) {
  Rng rng(28);
  const Graph base = graph::random_planar(80, 140, rng);
  const Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
  const double eps = 0.3;
  MwmApproxOptions opt;
  opt.framework.seed = 6;
  opt.phases = 3;
  const auto r = mwm_approx(g, eps, opt);
  // The partition each mwm_approx phase runs.
  std::vector<Partition> partitions;
  for (int phase = 0; phase < opt.phases; ++phase) {
    FrameworkOptions f = opt.framework;
    f.weighted_volumes = opt.weighted_decomposition;
    f.seed = opt.framework.seed + 0x51ED2701ULL * (phase + 1);
    partitions.push_back(partition_and_gather(g, eps, f));
  }
  expect_return_follows_paths(r.ledger, partitions);
}

// ---- Theorem 1.3: correlation clustering ------------------------------------

TEST(CorrelationApprox, BeatsHalfEdgesBaseline) {
  Rng rng(12);
  Graph base = graph::random_maximal_planar(150, rng);
  Graph g = base.with_signs(graph::planted_signs(base, 10, 0.05, rng));
  const auto r = correlation_approx(g, 0.3);
  // γ(G) >= |E|/2 and the algorithm is (1-ε)-approximate, so certainly:
  EXPECT_GE(r.score, (1.0 - 0.3) * g.num_edges() / 2.0);
}

TEST(CorrelationApprox, NearOptimalOnPlantedInstances) {
  // With tiny noise the planted clustering is near-perfect; the algorithm
  // should recover almost all agreements.
  Rng rng(13);
  Graph base = graph::grid(10, 10);
  Graph g = base.with_signs(graph::planted_signs(base, 8, 0.02, rng));
  const auto r = correlation_approx(g, 0.2);
  EXPECT_GE(static_cast<double>(r.score), 0.75 * g.num_edges());
}

TEST(CorrelationApprox, ExactOnTinyClusters) {
  // C12 has conductance 1/6 > the derived φ, so it stays one cluster of 12
  // vertices <= the exact-DP threshold: the leader solves it optimally.
  Rng rng(14);
  Graph base = graph::cycle(12);
  Graph g = base.with_signs(graph::planted_signs(base, 4, 0.1, rng));
  const auto r = correlation_approx(g, 0.3);
  EXPECT_GT(r.clusters_exact, 0);
  // Cross-check against the exact optimum on the whole (single-cluster)
  // graph.
  const auto exact = seq::correlation_exact(g);
  if (r.num_clusters == 1) {
    EXPECT_EQ(r.score, seq::agreement_score(g, exact));
  }
}

// ---- Theorem 1.4: property testing ---------------------------------------------

TEST(PropertyTest, PlanarInputsAlwaysAccept) {
  Rng rng(15);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = graph::random_maximal_planar(150, rng);
    const auto r = property_test(g, seq::planar_property(), 0.2,
                                 {.framework = {.seed = 55 + trial}});
    EXPECT_TRUE(r.accept) << "trial " << trial
                          << " deg-cond fails: "
                          << r.clusters_failing_degree_condition;
  }
}

TEST(PropertyTest, FarFromPlanarInputsReject) {
  Rng rng(16);
  for (int trial = 0; trial < 5; ++trial) {
    Graph base = graph::random_maximal_planar(150, rng);
    // Add 0.5|E| random edges: far from planar.
    Graph g = graph::plus_random_edges(base, base.num_edges() / 2, rng);
    const auto r = property_test(g, seq::planar_property(), 0.2,
                                 {.framework = {.seed = 66 + trial}});
    EXPECT_FALSE(r.accept) << "trial " << trial;
  }
}

TEST(PropertyTest, ForestProperty) {
  Rng rng(17);
  Graph tree = graph::random_tree(200, rng);
  EXPECT_TRUE(property_test(tree, seq::forest_property(), 0.2).accept);
  Graph not_forest = graph::plus_random_edges(tree, 100, rng);
  EXPECT_FALSE(property_test(not_forest, seq::forest_property(), 0.2).accept);
}

TEST(PropertyTest, OuterplanarProperty) {
  Rng rng(18);
  Graph yes = graph::random_outerplanar(120, rng);
  EXPECT_TRUE(property_test(yes, seq::outerplanar_property(), 0.2).accept);
  Graph no = graph::random_maximal_planar(120, rng);  // far from outerplanar
  EXPECT_FALSE(property_test(no, seq::outerplanar_property(), 0.25).accept);
}

TEST(PropertyTest, Treewidth2Property) {
  Rng rng(19);
  Graph yes = graph::random_two_tree(150, rng);
  EXPECT_TRUE(property_test(yes, seq::treewidth2_property(), 0.2).accept);
}

// The messages the event stream delivered inside each top-level span.
class TopLevelSpanTraffic final : public congest::TraceSink {
 public:
  void on_span_begin(const std::string& name) override {
    if (depth_++ == 0) current_ = name;
  }
  void on_span_end(const std::string& name) override {
    (void)name;
    --depth_;
  }
  void on_edge_load(std::int64_t round, VertexId from, VertexId to,
                    int messages, std::int64_t words) override {
    (void)round, (void)from, (void)to, (void)words;
    total += messages;
    if (depth_ > 0) messages_in[current_] += messages;
  }

  std::map<std::string, std::int64_t> messages_in;
  std::int64_t total = 0;

 private:
  int depth_ = 0;
  std::string current_;
};

const congest::RunStats& ledger_entry(const congest::RoundLedger& ledger,
                                      const std::string& label) {
  for (const auto& e : ledger.entries()) {
    if (e.label == label) return e.stats;
  }
  ADD_FAILURE() << "no ledger entry " << label;
  static const congest::RunStats kNone;
  return kNone;
}

// The diameter self-check and the verdict broadcast run on the options the
// partition ran on: the caller's trace, registry and profiler see their
// runs, each in its own top-level phase, and the verdicts, the ledger and
// the registry snapshot do not depend on the thread count.
TEST(PropertyTest, PostPartitionPhasesRunOnThePartitionsOptions) {
  Rng rng(26);
  const Graph g = graph::random_maximal_planar(150, rng);
  struct Run {
    PropertyTestResult result;
    std::string snapshot;
  };
  const auto run = [&](int threads) {
    TopLevelSpanTraffic trace;
    congest::MetricsRegistry metrics;
    congest::ExecutionProfiler profiler;
    PropertyTestOptions opt;
    opt.framework.decomposition.phi = 0.08;
    opt.framework.num_threads = threads;
    opt.framework.sparse_serial_threshold = 0;  // shard every round
    opt.framework.trace = &trace;
    opt.framework.metrics = &metrics;
    opt.framework.profiler = &profiler;
    opt.diameter_check_factor = 2.0;
    Run out{property_test(g, seq::planar_property(), 0.3, opt),
            metrics.to_json()};
    const congest::RunStats& check =
        ledger_entry(out.result.ledger, "diameter self-check (Sec 2.3)");
    const congest::RunStats& broadcast =
        ledger_entry(out.result.ledger, "verdict broadcast");
    EXPECT_GT(check.messages_sent, 0);
    EXPECT_EQ(metrics.tag_messages(congest::kTagDiameter), check.messages_sent);
    EXPECT_GT(broadcast.messages_sent, 0);
    EXPECT_EQ(metrics.tag_messages(congest::kTagBroadcast),
              broadcast.messages_sent);
    // Each run has its own top-level phase, and the phases cover every round.
    std::map<std::string, std::int64_t> phase_messages;
    std::int64_t phase_rounds = 0;
    for (const auto& ph : metrics.phases()) {
      if (ph.depth != 0) continue;
      phase_rounds += ph.stats.rounds;
      phase_messages[ph.name] = ph.stats.messages_sent;
    }
    EXPECT_EQ(phase_rounds, metrics.totals().rounds);
    EXPECT_EQ(phase_messages["phase:diameter-check"], check.messages_sent);
    EXPECT_EQ(phase_messages["phase:verdict-broadcast"],
              broadcast.messages_sent);
    EXPECT_EQ(trace.messages_in["phase:diameter-check"], check.messages_sent);
    EXPECT_EQ(trace.messages_in["phase:verdict-broadcast"],
              broadcast.messages_sent);
    EXPECT_EQ(trace.total, metrics.totals().messages_sent);
    // The profiler saw every run and round the registry saw, on every shard.
    EXPECT_EQ(profiler.summary().runs, metrics.runs_observed());
    EXPECT_EQ(profiler.summary().rounds, metrics.totals().rounds);
    EXPECT_EQ(profiler.summary().num_shards, threads);
    return out;
  };
  const Run one = run(1);
  const Run four = run(4);
  EXPECT_TRUE(one.result.accept);
  EXPECT_EQ(four.result.vertex_accepts, one.result.vertex_accepts);
  EXPECT_EQ(four.result.ledger.to_string(), one.result.ledger.to_string());
  EXPECT_EQ(four.snapshot, one.snapshot);
}

// The diameter self-check and the verdict broadcast also keep the partition's
// sparse-serial threshold and trace sampling. At 4 threads a threshold above
// every round's active count runs every round on the caller, so shards 1-3
// never observe one; the default threshold (256) would dispatch the check's
// first round, where all 400 vertices are active. A vertex stride of 2 drops
// the traced deliveries to odd receivers from both phases.
TEST(PropertyTest, PostPartitionPhasesKeepTheThresholdAndTraceSampling) {
  Rng rng(27);
  const Graph g = graph::random_maximal_planar(400, rng);
  TopLevelSpanTraffic trace;
  congest::ExecutionProfiler profiler;
  PropertyTestOptions opt;
  opt.framework.decomposition.phi = 0.08;
  opt.framework.num_threads = 4;
  opt.framework.sparse_serial_threshold = g.num_vertices();
  opt.framework.trace = &trace;
  opt.framework.trace_config.vertex_stride = 2;
  opt.framework.profiler = &profiler;
  opt.diameter_check_factor = 2.0;
  const auto r = property_test(g, seq::planar_property(), 0.3, opt);
  EXPECT_TRUE(r.accept);
  const auto summary = profiler.summary();
  EXPECT_GT(summary.rounds, 0);
  EXPECT_EQ(summary.num_shards, 1);
  for (const auto& [phase, entry] :
       {std::pair{"phase:diameter-check", "diameter self-check (Sec 2.3)"},
        std::pair{"phase:verdict-broadcast", "verdict broadcast"}}) {
    const std::int64_t messages = ledger_entry(r.ledger, entry).messages_sent;
    EXPECT_GT(trace.messages_in[phase], 0) << phase;
    EXPECT_LT(trace.messages_in[phase], messages) << phase;
  }
}

// ---- Theorem 1.5: low-diameter decomposition -------------------------------------

TEST(LddApprox, CutAndDiameterBounds) {
  Graph g = graph::grid(16, 16);
  const double eps = 0.25;
  const auto r = ldd_approx(g, eps);
  EXPECT_LE(r.cut_edges, eps * g.num_edges() + 1e-9);
  // D = O(1/eps): generous constant 40.
  EXPECT_LE(r.max_diameter, 40.0 / eps);
  // Every vertex labeled.
  for (int c : r.cluster_of) EXPECT_GE(c, 0);
}

TEST(LddApprox, CycleMatchesOptimalTradeoff) {
  // On a cycle any (ε, D) decomposition needs D = Ω(1/ε): segments of
  // length 1/eps. Our output must be within a constant of that.
  Graph g = graph::cycle(400);
  const double eps = 0.1;
  const auto r = ldd_approx(g, eps);
  EXPECT_LE(r.cut_edges, eps * g.num_edges() + 1e-9);
  EXPECT_GE(r.max_diameter, 1);
  EXPECT_LE(r.max_diameter, 60.0 / eps);
}

TEST(LddApprox, ClustersAreConnected) {
  Rng rng(20);
  Graph g = graph::random_maximal_planar(250, rng);
  const auto r = ldd_approx(g, 0.3);
  std::vector<std::vector<VertexId>> members(r.num_clusters);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (r.cluster_of[v] >= 0) members[r.cluster_of[v]].push_back(v);
  }
  for (const auto& m : members) {
    if (m.size() <= 1) continue;
    const auto sub = graph::induced_subgraph(g, m);
    EXPECT_TRUE(graph::is_connected(sub.graph));
  }
}

// ---- Every application checks its ε -------------------------------------------

TEST(Applications, RejectEpsOutsideTheOpenUnitInterval) {
  const Graph g = graph::grid(4, 4);
  for (const double eps : {-0.5, 0.0, 1.0, 1.5, 3.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(eps);
    EXPECT_THROW(mis_approx(g, eps), std::invalid_argument);
    EXPECT_THROW(mcm_planar_approx(g, eps), std::invalid_argument);
    EXPECT_THROW(mwm_approx(g, eps), std::invalid_argument);
    EXPECT_THROW(correlation_approx(g, eps), std::invalid_argument);
    EXPECT_THROW(ldd_approx(g, eps), std::invalid_argument);
    EXPECT_THROW(property_test(g, seq::planar_property(), eps),
                 std::invalid_argument);
  }
}

// ---- Pinned answers and ledgers ------------------------------------------------

// Hashes recorded before the applications shared one cluster loop
// (core::solve_clusters): moving the loop may not move any answer or any
// ledger entry. Property testing pins verdicts and ledger rounds only: its
// diameter check and verdict broadcast gained their message counts in the
// same change. The MIS output at φ = 0.1 was re-recorded when
// best_effort_mis began returning greedy + local search whenever it meets
// the clique-partition bound: six of the twelve clusters return another
// maximum set of the same size, and one more boundary conflict drops |I|
// from 166 to 165. The ledger hashes were re-recorded when the return began
// to follow first-arrival paths: only the "result return (reversed walks)"
// entries moved, to fewer messages and words and a lower or equal peak
// edge load, at the same rounds. They were re-recorded again when the return
// began to run on the simulator in path-length rounds: only the same
// entries moved, to far fewer rounds and a higher peak edge load, at most
// the gather's, with the same messages and words.
class Fnv {
 public:
  void mix(std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    mix(static_cast<std::int64_t>(s.size()));
    for (const char c : s) mix(c);
  }
  template <class Range>
  void mix_all(const Range& r) {
    mix(static_cast<std::int64_t>(r.size()));
    for (const auto x : r) mix(static_cast<std::int64_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t ledger_hash(const congest::RoundLedger& ledger,
                          bool rounds_only = false) {
  Fnv h;
  for (const auto& e : ledger.entries()) {
    h.mix(e.label);
    h.mix(e.measured);
    h.mix(e.stats.rounds);
    if (rounds_only) continue;
    h.mix(e.stats.messages_sent);
    h.mix(e.stats.words_sent);
    h.mix(e.stats.max_edge_load);
  }
  return h.value();
}

std::string hex(std::uint64_t x) {
  std::ostringstream os;
  os << "0x" << std::hex << x;
  return os.str();
}

// A `planar`-family input (random_planar(n, 2n), six components) at the
// derived φ and at a φ and ε that split the components too.
struct PinCase {
  double phi;
  std::uint64_t output;
  std::uint64_t ledger;
};

FrameworkOptions pin_framework(double phi) {
  FrameworkOptions f;
  f.decomposition.phi = phi;
  f.seed = 3;
  return f;
}

Graph pin_planar() {
  Rng rng(31);
  return graph::random_planar(300, 600, rng);
}

TEST(PinnedApplications, Mis) {
  const Graph g = pin_planar();
  for (const PinCase& c :
       {PinCase{0.0, 0x2d92fd97a27e3e43ull, 0x819cc97f48f2d8ebull},
        PinCase{0.1, 0x1202868c8162d1f1ull, 0x798c0b59ba5ea202ull}}) {
    const auto r = mis_approx(g, 0.6, {.framework = pin_framework(c.phi)});
    EXPECT_GT(r.num_clusters, 1);
    Fnv h;
    h.mix_all(r.independent_set);
    h.mix(r.all_clusters_exact);
    h.mix(r.clusters_exact);
    h.mix(r.num_clusters);
    h.mix(r.conflicts_removed);
    EXPECT_EQ(hex(h.value()), hex(c.output)) << "phi " << c.phi;
    EXPECT_EQ(hex(ledger_hash(r.ledger)), hex(c.ledger)) << "phi " << c.phi;
  }
}

TEST(PinnedApplications, Mcm) {
  const Graph g = pin_planar();
  for (const PinCase& c :
       {PinCase{0.0, 0x44ec27b3d0c72a75ull, 0x1b35ccb38e9a0ea2ull},
        PinCase{0.3, 0x21c3521c89d37decull, 0x44530432c1d1e3e6ull}}) {
    const auto r =
        mcm_planar_approx(g, 0.9, {.framework = pin_framework(c.phi)});
    EXPECT_GT(r.num_clusters, 1);
    Fnv h;
    h.mix_all(r.mates);
    h.mix(r.matching_size);
    h.mix(r.removed_vertices);
    h.mix(r.num_clusters);
    EXPECT_EQ(hex(h.value()), hex(c.output)) << "phi " << c.phi;
    EXPECT_EQ(hex(ledger_hash(r.ledger)), hex(c.ledger)) << "phi " << c.phi;
  }
}

TEST(PinnedApplications, Mwm) {
  const Graph base = pin_planar();
  Rng rng(32);
  const Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
  for (const PinCase& c :
       {PinCase{0.0, 0x21a2e354669b8c2eull, 0x2b90d013f83c5b71ull},
        PinCase{0.1, 0x2e6f4c099aee2ecdull, 0xee27bd8ee6213f22ull}}) {
    MwmApproxOptions opt;
    opt.framework = pin_framework(c.phi);
    opt.exact_cluster_cap = 60;  // some clusters take the greedy path
    const auto r = mwm_approx(g, 0.4, opt);
    Fnv h;
    h.mix_all(r.mates);
    h.mix(r.weight);
    h.mix(r.phases);
    h.mix(r.clusters_greedy);
    EXPECT_EQ(hex(h.value()), hex(c.output)) << "phi " << c.phi;
    EXPECT_EQ(hex(ledger_hash(r.ledger)), hex(c.ledger)) << "phi " << c.phi;
  }
}

TEST(PinnedApplications, Correlation) {
  Rng rng(33);
  const Graph base = graph::random_planar(300, 600, rng);
  const Graph g = base.with_signs(graph::planted_signs(base, 10, 0.1, rng));
  for (const PinCase& c :
       {PinCase{0.0, 0x15023d44f4d4c959ull, 0x922ae054a612a2ceull},
        PinCase{0.1, 0x020dc4e931e8e2dcull, 0x90f05541eac281efull}}) {
    const auto r =
        correlation_approx(g, 0.3, {.framework = pin_framework(c.phi)});
    EXPECT_GT(r.num_clusters, 1);
    Fnv h;
    h.mix_all(r.clustering);
    h.mix(r.score);
    h.mix(r.clusters_exact);
    h.mix(r.num_clusters);
    EXPECT_EQ(hex(h.value()), hex(c.output)) << "phi " << c.phi;
    EXPECT_EQ(hex(ledger_hash(r.ledger)), hex(c.ledger)) << "phi " << c.phi;
  }
}

TEST(PinnedApplications, Ldd) {
  const Graph g = pin_planar();
  for (const PinCase& c :
       {PinCase{0.0, 0xbbc5e70a82e8f906ull, 0x7c3e0105c5d49969ull},
        PinCase{0.1, 0x28dbdbc5a02efcb7ull, 0xf28acd0e64c82a7cull}}) {
    LddApproxOptions opt;
    opt.framework = pin_framework(c.phi);
    const auto r = ldd_approx(g, 0.3, opt);
    Fnv h;
    h.mix_all(r.cluster_of);
    h.mix(r.num_clusters);
    h.mix(r.cut_edges);
    h.mix(r.max_diameter);
    EXPECT_EQ(hex(h.value()), hex(c.output)) << "phi " << c.phi;
    EXPECT_EQ(hex(ledger_hash(r.ledger)), hex(c.ledger)) << "phi " << c.phi;
  }
}

TEST(PinnedApplications, PropertyTestVerdictsAndRounds) {
  Rng rng(34);
  const Graph planar = graph::random_maximal_planar(200, rng);
  const Graph far =
      graph::plus_random_edges(planar, planar.num_edges() / 2, rng);
  struct Case {
    const Graph* g;
    double check_factor;
    std::uint64_t verdicts;
    std::uint64_t rounds;
  };
  const Case cases[] = {
      {&planar, 0.0, 0x6072d4191f875d4aull, 0xfbb3f2894a3a512cull},
      {&planar, 2.0, 0x6072d4191f875d4aull, 0x4a7a053f59bb6562ull},
      {&far, 2.0, 0x50658cbadb108a0aull, 0x96c14ac4cda7e208ull},
  };
  int k = 0;
  for (const Case& c : cases) {
    PropertyTestOptions opt;
    opt.framework = pin_framework(0.08);
    opt.diameter_check_factor = c.check_factor;
    const auto r = property_test(*c.g, seq::planar_property(), 0.3, opt);
    Fnv h;
    h.mix(r.accept);
    h.mix_all(r.vertex_accepts);
    h.mix(r.clusters_failing_property);
    h.mix(r.clusters_failing_degree_condition);
    EXPECT_EQ(hex(h.value()), hex(c.verdicts)) << "case " << k;
    EXPECT_EQ(hex(ledger_hash(r.ledger, /*rounds_only=*/true)), hex(c.rounds))
        << "case " << k;
    ++k;
  }
}

}  // namespace
}  // namespace ecd::core
