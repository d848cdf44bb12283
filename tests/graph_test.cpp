#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/io.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"

namespace ecd::graph {
namespace {

TEST(Graph, BuildsCsrFromEdgeList) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NormalizesEndpointOrder) {
  Graph g = Graph::from_edges(3, {{2, 0}});
  EXPECT_EQ(g.edge(0).u, 0);
  EXPECT_EQ(g.edge(0).v, 2);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(2, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsParallelEdges) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, OtherEndpoint) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.other_endpoint(0, 0), 1);
  EXPECT_EQ(g.other_endpoint(0, 1), 0);
}

TEST(Graph, IncidentEdgesAlignWithNeighbors) {
  Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  auto nbrs = g.neighbors(0);
  auto eids = g.incident_edges(0);
  ASSERT_EQ(nbrs.size(), 3u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(g.other_endpoint(eids[i], 0), nbrs[i]);
  }
}

TEST(Graph, WeightsDefaultToOne) {
  Graph g = Graph::from_edges(2, {{0, 1}});
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.weight(0), 1);
  EXPECT_EQ(g.total_weight(), 1);
}

TEST(Graph, WithWeights) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}}).with_weights({5, 7});
  EXPECT_TRUE(g.is_weighted());
  EXPECT_EQ(g.total_weight(), 12);
  EXPECT_EQ(g.max_weight(), 7);
  EXPECT_THROW(g.with_weights({1}), std::invalid_argument);
  EXPECT_THROW(g.with_weights({0, 1}), std::invalid_argument);
}

TEST(Graph, WithSigns) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}})
                .with_signs({EdgeSign::kPositive, EdgeSign::kNegative});
  EXPECT_TRUE(g.is_signed());
  EXPECT_EQ(g.sign(0), EdgeSign::kPositive);
  EXPECT_EQ(g.sign(1), EdgeSign::kNegative);
}

// --- Streamed CSR construction ----------------------------------------------

// Replayable stream over a fixed callback; the test-local analogue of the
// generator-internal FnEdgeStream.
class FnStream final : public EdgeStream {
 public:
  explicit FnStream(std::function<void(EdgeSink&)> fn) : fn_(std::move(fn)) {}
  void generate(EdgeSink& sink) override { fn_(sink); }

 private:
  std::function<void(EdgeSink&)> fn_;
};

// FNV-1a over the full CSR layout (edge list in id order, then each
// vertex's adjacency and incident-edge rows). Pins the "byte-identical to
// from_edges" contract to a number.
std::uint64_t topology_hash(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(g.num_vertices());
  mix(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mix(g.edge(e).u);
    mix(g.edge(e).v);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId w : g.neighbors(v)) mix(w);
    for (const EdgeId e : g.incident_edges(v)) mix(e);
  }
  return h;
}

TEST(EdgeStream, MatchesFromEdgesByteForByte) {
  const std::vector<Edge> edges = {{0, 1}, {3, 1}, {2, 4}, {4, 0}, {1, 2}};
  FnStream stream([&edges](EdgeSink& sink) {
    for (const Edge& e : edges) sink.edge(e.u, e.v);
  });
  const Graph streamed = Graph::from_edge_stream(5, stream);
  const Graph listed = Graph::from_edges(5, edges);
  ASSERT_EQ(streamed.num_vertices(), listed.num_vertices());
  ASSERT_EQ(streamed.num_edges(), listed.num_edges());
  for (EdgeId e = 0; e < listed.num_edges(); ++e) {
    EXPECT_EQ(streamed.edge(e), listed.edge(e));
  }
  for (VertexId v = 0; v < listed.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(streamed.neighbors(v), listed.neighbors(v)));
    EXPECT_TRUE(std::ranges::equal(streamed.incident_edges(v),
                                   listed.incident_edges(v)));
  }
  EXPECT_EQ(streamed.max_degree(), listed.max_degree());
  EXPECT_EQ(topology_hash(streamed), topology_hash(listed));
}

TEST(EdgeStream, RejectsTheSameInputsAsFromEdges) {
  FnStream self_loop([](EdgeSink& sink) { sink.edge(1, 1); });
  EXPECT_THROW(Graph::from_edge_stream(2, self_loop), std::invalid_argument);
  FnStream out_of_range([](EdgeSink& sink) { sink.edge(0, 2); });
  EXPECT_THROW(Graph::from_edge_stream(2, out_of_range),
               std::invalid_argument);
  FnStream parallel([](EdgeSink& sink) {
    sink.edge(0, 1);
    sink.edge(1, 0);
  });
  EXPECT_THROW(Graph::from_edge_stream(2, parallel), std::invalid_argument);
}

TEST(EdgeStream, RejectsStreamsThatDoNotReplayIdentically) {
  // Emits {0,1} on the first pass and {1,2} on the second: degree counts
  // and fill disagree, which the cursor bounds check must catch.
  int pass = 0;
  FnStream flaky([&pass](EdgeSink& sink) {
    sink.edge(0, ++pass == 1 ? 1 : 2);
  });
  EXPECT_THROW(Graph::from_edge_stream(3, flaky), std::invalid_argument);
  // Same edges, one extra on the replay.
  pass = 0;
  FnStream growing([&pass](EdgeSink& sink) {
    sink.edge(0, 1);
    if (++pass > 1) sink.edge(1, 2);
  });
  EXPECT_THROW(Graph::from_edge_stream(3, growing), std::invalid_argument);
}

TEST(EdgeStream, MillionVertexGridGoldenHashAndMemoryCeiling) {
  // grid(1000, 1000) routes through from_edge_stream (generators.cpp): a
  // million vertices, 1998000 edges. The golden hash pins the exact CSR
  // layout — edge ids, adjacency order, everything — so a change to the
  // streaming path or the generator's emission order cannot slip by; it was
  // recorded from the from_edges construction of the same sequence, which
  // MatchesFromEdgesByteForByte ties to this hash function.
  const Graph g = grid(1000, 1000);
  EXPECT_EQ(g.num_vertices(), 1000000);
  EXPECT_EQ(g.num_edges(), 2 * 1000 * 999);
  EXPECT_EQ(topology_hash(g), 0xc53b0539411c5a3cull);
#if defined(__unix__) || defined(__APPLE__)
  // Sanity ceiling on the streaming claim: the CSR for this graph is
  // ~50 MB, so process peak RSS while holding it should sit far below the
  // ~2x-edge-list overhead a from_edges build of a much larger graph would
  // add. Generous bound — this guards against reintroducing a full
  // materialized edge list per pass, not against allocator noise.
  struct rusage usage = {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
#if defined(__APPLE__)
  const double peak_mb = static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  const double peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
  EXPECT_LT(peak_mb, 1024.0) << "peak RSS while holding a 1M-vertex grid";
#endif
}

TEST(GraphBuilder, DeduplicatesEdges) {
  GraphBuilder b(3);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));
  EXPECT_FALSE(b.add_edge(2, 2));
  EXPECT_TRUE(b.add_edge(1, 2));
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Generators, GridShape) {
  Graph g = grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, TorusIsFourRegular) {
  Graph g = torus_grid(4, 5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, HypercubeShape) {
  Graph g = hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, TriangulationHasMaximalPlanarEdgeCount) {
  Rng rng(7);
  for (int n : {3, 4, 10, 50, 200}) {
    Graph g = random_maximal_planar(n, rng);
    EXPECT_EQ(g.num_edges(), 3 * n - 6) << "n=" << n;
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(11);
  Graph g = random_tree(100, rng);
  EXPECT_EQ(g.num_edges(), 99);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, TwoTreeEdgeCount) {
  Rng rng(3);
  Graph g = random_two_tree(50, rng);
  EXPECT_EQ(g.num_edges(), 1 + 2 * 48);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomRegularDegrees) {
  Rng rng(5);
  Graph g = random_regular(60, 4, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Generators, BarbellConductanceStructure) {
  Graph g = barbell(10, 3);
  EXPECT_EQ(g.num_vertices(), 23);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(10), 2);  // bridge vertex
}

TEST(Generators, PlusRandomEdgesAddsExactly) {
  Rng rng(13);
  Graph base = grid(8, 8);
  Graph g = plus_random_edges(base, 17, rng);
  EXPECT_EQ(g.num_edges(), base.num_edges() + 17);
}

TEST(Generators, DisjointUnionOffsetsIds) {
  Graph g = disjoint_union({path(3), cycle(3)});
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 2 + 3);
  EXPECT_EQ(connected_components(g).count, 2);
}

TEST(Generators, PlantedSignsRespectNoiseZero) {
  Rng rng(17);
  Graph g = grid(6, 6);
  auto signs = planted_signs(g, 9, 0.0, rng);
  ASSERT_EQ(static_cast<int>(signs.size()), g.num_edges());
  // With zero noise at least the diagonal structure exists: some edges
  // positive (intra-region); regions of size 9 in a 36-vertex grid force
  // some negative inter-region edges too.
  int pos = 0;
  for (auto s : signs) pos += (s == EdgeSign::kPositive);
  EXPECT_GT(pos, 0);
  EXPECT_LT(pos, g.num_edges());
}

TEST(Metrics, BfsDistancesOnPath) {
  Graph g = path(5);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[0], 0);
}

TEST(Metrics, ExactDiameter) {
  EXPECT_EQ(exact_diameter(path(6)), 5);
  EXPECT_EQ(exact_diameter(cycle(6)), 3);
  EXPECT_EQ(exact_diameter(complete(5)), 1);
  EXPECT_EQ(exact_diameter(grid(4, 4)), 6);
}

TEST(Metrics, DiameterOfDisconnected) {
  Graph g = disjoint_union({path(2), path(2)});
  EXPECT_EQ(exact_diameter(g), kUnreachable);
}

TEST(Metrics, TwoSweepExactOnTrees) {
  Rng rng(23);
  for (int seed = 0; seed < 5; ++seed) {
    Graph t = random_tree(60, rng);
    EXPECT_EQ(two_sweep_diameter_lower_bound(t), exact_diameter(t));
  }
}

TEST(Metrics, DegeneracyOfFamilies) {
  Rng rng(29);
  EXPECT_EQ(degeneracy(random_tree(50, rng)).degeneracy, 1);
  EXPECT_EQ(degeneracy(cycle(10)).degeneracy, 2);
  EXPECT_EQ(degeneracy(complete(6)).degeneracy, 5);
  EXPECT_EQ(degeneracy(random_two_tree(40, rng)).degeneracy, 2);
  EXPECT_LE(degeneracy(random_maximal_planar(80, rng)).degeneracy, 5);
}

TEST(Metrics, OrientationBoundsOutDegree) {
  Rng rng(31);
  Graph g = random_maximal_planar(100, rng);
  auto owned = degeneracy_orientation(g);
  const int d = degeneracy(g).degeneracy;
  std::size_t total = 0;
  for (const auto& list : owned) {
    EXPECT_LE(static_cast<int>(list.size()), d);
    total += list.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(g.num_edges()));
}

TEST(Metrics, BiconnectedComponentsPartitionEdges) {
  // Two triangles sharing a cut vertex + a pendant edge: 3 blocks.
  Graph g = Graph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}});
  const auto blocks = biconnected_components(g);
  EXPECT_EQ(blocks.size(), 3u);
  std::vector<int> owner(g.num_edges(), 0);
  for (const auto& b : blocks) {
    for (EdgeId e : b) ++owner[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(owner[e], 1);
}

TEST(Metrics, BiconnectedOfBiconnectedGraphIsOneBlock) {
  Rng rng(61);
  EXPECT_EQ(biconnected_components(graph::cycle(12)).size(), 1u);
  EXPECT_EQ(biconnected_components(graph::complete(6)).size(), 1u);
  EXPECT_EQ(biconnected_components(graph::grid(4, 5)).size(), 1u);
  // Every tree edge is a bridge: n-1 singleton blocks.
  Graph t = graph::random_tree(30, rng);
  const auto blocks = biconnected_components(t);
  EXPECT_EQ(blocks.size(), 29u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 1u);
}

TEST(Subgraph, InducedCarriesAttributes) {
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}})
                .with_weights({3, 4, 5})
                .with_signs({EdgeSign::kPositive, EdgeSign::kNegative,
                             EdgeSign::kPositive});
  const std::vector<VertexId> keep{1, 2, 3};
  auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);
  EXPECT_EQ(sub.graph.weight(0), 4);
  EXPECT_EQ(sub.graph.sign(0), EdgeSign::kNegative);
  EXPECT_EQ(sub.to_parent[0], 1);
}

// induced_subgraph as it was before it read incidence lists, kept verbatim
// as the oracle: one scan over all m edges of the parent per call.
InducedSubgraph reference_induced_subgraph(const Graph& g,
                                           std::span<const VertexId> vertices) {
  InducedSubgraph out;
  out.to_parent.assign(vertices.begin(), vertices.end());
  std::vector<VertexId> to_local(g.num_vertices(), kInvalidVertex);
  for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
    const VertexId v = vertices[i];
    if (v < 0 || v >= g.num_vertices()) {
      throw std::invalid_argument("vertex out of range");
    }
    if (to_local[v] != kInvalidVertex) {
      throw std::invalid_argument("duplicate vertex in induced set");
    }
    to_local[v] = i;
  }
  std::vector<Edge> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    if (to_local[ed.u] != kInvalidVertex && to_local[ed.v] != kInvalidVertex) {
      edges.push_back({to_local[ed.u], to_local[ed.v]});
      out.edge_to_parent.push_back(e);
    }
  }
  out.graph = Graph::from_edges(static_cast<int>(vertices.size()),
                                std::move(edges));
  if (g.is_weighted()) {
    std::vector<Weight> w(out.edge_to_parent.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = g.weight(out.edge_to_parent[i]);
    }
    out.graph = out.graph.with_weights(std::move(w));
  }
  if (g.is_signed()) {
    std::vector<EdgeSign> s(out.edge_to_parent.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = g.sign(out.edge_to_parent[i]);
    }
    out.graph = out.graph.with_signs(std::move(s));
  }
  return out;
}

TEST(Subgraph, InducedMatchesReferenceOnShuffledSubsets) {
  Rng rng(19);
  const Graph plain = random_maximal_planar(300, rng);
  std::vector<EdgeSign> signs(plain.num_edges());
  for (auto& s : signs) {
    s = rng() % 2 ? EdgeSign::kPositive : EdgeSign::kNegative;
  }
  const Graph attributed =
      plain.with_weights(random_weights(plain, 1000, rng)).with_signs(signs);
  for (const Graph* g : {&plain, &attributed}) {
    for (int trial = 0; trial < 40; ++trial) {
      // A random subset of random size, in random (unsorted) order.
      std::vector<VertexId> subset(g->num_vertices());
      std::iota(subset.begin(), subset.end(), 0);
      std::shuffle(subset.begin(), subset.end(), rng);
      subset.resize(rng() % (g->num_vertices() + 1));
      const auto got = induced_subgraph(*g, subset);
      EXPECT_EQ(got, reference_induced_subgraph(*g, subset))
          << "trial " << trial << " size " << subset.size();
    }
  }
  // Whole graph, empty set, and the rejected inputs.
  std::vector<VertexId> all(plain.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(induced_subgraph(attributed, all),
            reference_induced_subgraph(attributed, all));
  EXPECT_EQ(induced_subgraph(attributed, std::vector<VertexId>{}),
            reference_induced_subgraph(attributed, std::vector<VertexId>{}));
  EXPECT_THROW(induced_subgraph(plain, std::vector<VertexId>{3, 5, 3}),
               std::invalid_argument);
  EXPECT_THROW(induced_subgraph(plain, std::vector<VertexId>{1, 300}),
               std::invalid_argument);
}

TEST(Subgraph, EdgeSubgraphKeepsVertexCount) {
  Graph g = cycle(5);
  std::vector<bool> keep(5, true);
  keep[0] = false;
  Graph sub = edge_subgraph(g, keep);
  EXPECT_EQ(sub.num_vertices(), 5);
  EXPECT_EQ(sub.num_edges(), 4);
}

TEST(Io, RoundTripUnweighted) {
  Graph g = grid(3, 3);
  std::stringstream ss;
  write_edge_list(g, ss);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_FALSE(h.is_weighted());
}

TEST(Io, RoundTripWeighted) {
  Rng rng(37);
  Graph g = cycle(4).with_weights({2, 3, 4, 5});
  std::stringstream ss;
  write_edge_list(g, ss);
  Graph h = read_edge_list(ss);
  ASSERT_TRUE(h.is_weighted());
  EXPECT_EQ(h.total_weight(), g.total_weight());
}

TEST(Io, DotContainsAllEdges) {
  Graph g = path(3);
  const std::string dot = to_dot(g, {0, 0, 1});
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
}

}  // namespace
}  // namespace ecd::graph
