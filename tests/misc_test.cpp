// Edge-case and error-path coverage across modules.
#include <gtest/gtest.h>

#include <sstream>

#include "src/congest/network.h"
#include "src/expander/conductance.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/graph/metrics.h"
#include "src/seq/correlation.h"
#include "src/seq/matching.h"
#include "src/seq/mis.h"
#include "src/seq/separator.h"
#include "tests/oracles/bruteforce.h"

namespace ecd {
namespace {

using graph::Graph;
using graph::Rng;

TEST(IoErrors, RejectsGarbage) {
  std::stringstream empty("");
  EXPECT_THROW(graph::read_edge_list(empty), std::runtime_error);
  std::stringstream truncated("3 2\n0 1\n");
  EXPECT_THROW(graph::read_edge_list(truncated), std::runtime_error);
  std::stringstream bad_line("2 1\nx y\n");
  EXPECT_THROW(graph::read_edge_list(bad_line), std::runtime_error);
}

TEST(IoErrors, RoundTripsEmptyEdgeSet) {
  Graph g = Graph::from_edges(3, {});
  std::stringstream ss;
  graph::write_edge_list(g, ss);
  Graph h = graph::read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.num_edges(), 0);
}

TEST(GeneratorErrors, RejectBadParameters) {
  Rng rng(1);
  EXPECT_THROW(graph::cycle(2), std::invalid_argument);
  EXPECT_THROW(graph::random_maximal_planar(2, rng), std::invalid_argument);
  EXPECT_THROW(graph::random_planar(10, 100, rng), std::invalid_argument);
  EXPECT_THROW(graph::random_regular(5, 5, rng), std::invalid_argument);
  EXPECT_THROW(graph::random_regular(5, 3, rng), std::invalid_argument);
  EXPECT_THROW(graph::hypercube(0), std::invalid_argument);
  EXPECT_THROW(graph::torus_grid(2, 5), std::invalid_argument);
  EXPECT_THROW(graph::random_weights(graph::path(3), 0, rng),
               std::invalid_argument);
}

TEST(GeneratorErrors, PlusRandomEdgesOnFullGraphThrows) {
  Rng rng(2);
  EXPECT_THROW(graph::plus_random_edges(graph::complete(5), 1, rng),
               std::runtime_error);
}

class NeverFinishes final : public congest::VertexAlgorithm {
 public:
  void round(congest::Context&) override {}
  bool finished() const override { return false; }
};

TEST(NetworkLimits, MaxRoundsGuardsNonTermination) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<congest::VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<NeverFinishes>());
  algos.push_back(std::make_unique<NeverFinishes>());
  congest::NetworkOptions opt;
  opt.max_rounds = 10;
  congest::Network net(g, opt);
  EXPECT_THROW(net.run(algos), std::runtime_error);
}

TEST(NetworkLimits, AlgorithmCountMustMatchVertices) {
  Graph g = graph::path(3);
  std::vector<std::unique_ptr<congest::VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<NeverFinishes>());
  congest::Network net(g);
  EXPECT_THROW(net.run(algos), std::invalid_argument);
}

TEST(SolverGuards, SizeLimitsEnforced) {
  Rng rng(3);
  EXPECT_THROW(seq::max_independent_set_bruteforce(graph::grid(5, 5)),
               std::invalid_argument);
  EXPECT_THROW(seq::correlation_exact(graph::grid(5, 5)),
               std::invalid_argument);
  EXPECT_THROW(expander::exact_conductance(graph::grid(5, 5)),
               std::invalid_argument);
  EXPECT_THROW(seq::edge_separator_bruteforce(graph::grid(5, 5)),
               std::invalid_argument);
  EXPECT_THROW(seq::edge_separator(graph::path(2), rng),
               std::invalid_argument);
}

TEST(SolverGuards, MatchingValidationCatchesCorruption) {
  Graph g = graph::path(4);
  seq::Mates bad(4, graph::kInvalidVertex);
  bad[0] = 2;  // not an edge
  bad[2] = 0;
  EXPECT_FALSE(seq::is_valid_matching(g, bad));
  seq::Mates asymmetric(4, graph::kInvalidVertex);
  asymmetric[0] = 1;  // 1 does not point back
  EXPECT_FALSE(seq::is_valid_matching(g, asymmetric));
  EXPECT_FALSE(seq::is_valid_matching(g, seq::Mates(3, -1)));  // wrong size
}

TEST(SolverGuards, IndependentSetValidationCatchesViolations) {
  Graph g = graph::path(3);
  EXPECT_FALSE(seq::is_independent_set(g, {0, 1}));   // adjacent
  EXPECT_FALSE(seq::is_independent_set(g, {0, 0}));   // duplicate
  EXPECT_FALSE(seq::is_independent_set(g, {7}));      // out of range
  EXPECT_TRUE(seq::is_independent_set(g, {0, 2}));
}

TEST(WeightedConductance, DegenerateCutsAreZero) {
  Graph g = graph::path(3);
  EXPECT_DOUBLE_EQ(
      expander::cut_conductance(g, {false, false, false}, /*weighted=*/true),
      0.0);
  EXPECT_DOUBLE_EQ(
      expander::cut_conductance(g, {true, true, true}, /*weighted=*/true),
      0.0);
}

TEST(Degeneracy, EmptyAndSingletonGraphs) {
  EXPECT_EQ(graph::degeneracy(Graph::from_edges(0, {})).degeneracy, 0);
  EXPECT_EQ(graph::degeneracy(Graph::from_edges(1, {})).degeneracy, 0);
  EXPECT_EQ(graph::degeneracy(Graph::from_edges(5, {})).degeneracy, 0);
}

TEST(Conductance, SingleEdgeGraph) {
  // K2: only cut is {one vertex}: 1 crossing / vol 1 = 1.
  EXPECT_DOUBLE_EQ(expander::exact_conductance(graph::path(2)), 1.0);
}

}  // namespace
}  // namespace ecd
