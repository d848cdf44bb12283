#include "src/graph/generators.h"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace ecd::graph {
namespace {

int checked_positive(int n, const char* what) {
  if (n <= 0) throw std::invalid_argument(std::string(what) + " must be positive");
  return n;
}

// The index-function families (edges are a pure function of loop indices)
// build through Graph::from_edge_stream: no edge-list materialization, no
// sorted duplicate-check copy, so the multi-million-vertex bench sizes
// construct without the ~2x-edge-list peak-memory spike of from_edges. The
// emitted sequence matches what the old edge-vector code pushed, so the
// resulting Graph is byte-identical (golden-hashed in graph_test).
template <typename Fn>
class FnEdgeStream final : public EdgeStream {
 public:
  explicit FnEdgeStream(Fn fn) : fn_(std::move(fn)) {}
  void generate(EdgeSink& sink) override { fn_(sink); }

 private:
  Fn fn_;
};

template <typename Fn>
Graph from_stream_fn(int n, Fn fn) {
  FnEdgeStream<Fn> stream(std::move(fn));
  return Graph::from_edge_stream(n, stream);
}

}  // namespace

Graph path(int n) {
  checked_positive(n, "n");
  return from_stream_fn(n, [n](EdgeSink& sink) {
    for (VertexId v = 0; v + 1 < n; ++v) sink.edge(v, v + 1);
  });
}

Graph cycle(int n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  return from_stream_fn(n, [n](EdgeSink& sink) {
    for (VertexId v = 0; v + 1 < n; ++v) sink.edge(v, v + 1);
    sink.edge(0, n - 1);
  });
}

Graph star(int leaves) {
  checked_positive(leaves, "leaves");
  std::vector<Edge> edges;
  edges.reserve(leaves);
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph::from_edges(leaves + 1, std::move(edges));
}

Graph complete(int n) {
  checked_positive(n, "n");
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph complete_bipartite(int a, int b) {
  checked_positive(a, "a");
  checked_positive(b, "b");
  std::vector<Edge> edges;
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) edges.push_back({u, a + v});
  }
  return Graph::from_edges(a + b, std::move(edges));
}

Graph grid(int rows, int cols) {
  checked_positive(rows, "rows");
  checked_positive(cols, "cols");
  auto id = [cols](int r, int c) { return static_cast<VertexId>(r * cols + c); };
  return from_stream_fn(rows * cols, [rows, cols, id](EdgeSink& sink) {
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (c + 1 < cols) sink.edge(id(r, c), id(r, c + 1));
        if (r + 1 < rows) sink.edge(id(r, c), id(r + 1, c));
      }
    }
  });
}

Graph torus_grid(int rows, int cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("torus needs >= 3x3");
  auto id = [cols](int r, int c) { return static_cast<VertexId>(r * cols + c); };
  GraphBuilder b(rows * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(b).build();
}

Graph hypercube(int dim) {
  if (dim < 1 || dim > 24) throw std::invalid_argument("dim out of range");
  const int n = 1 << dim;
  return from_stream_fn(n, [n, dim](EdgeSink& sink) {
    for (VertexId v = 0; v < n; ++v) {
      for (int bit = 0; bit < dim; ++bit) {
        const VertexId u = v ^ (1 << bit);
        if (u > v) sink.edge(v, u);
      }
    }
  });
}

Graph barbell(int k, int bridge_len) {
  if (k < 2) throw std::invalid_argument("barbell needs k >= 2");
  if (bridge_len < 0) throw std::invalid_argument("negative bridge");
  const int n = 2 * k + bridge_len;
  GraphBuilder b(n);
  for (VertexId u = 0; u < k; ++u) {
    for (VertexId v = u + 1; v < k; ++v) b.add_edge(u, v);
  }
  const int right = k + bridge_len;
  for (VertexId u = 0; u < k; ++u) {
    for (VertexId v = u + 1; v < k; ++v) b.add_edge(right + u, right + v);
  }
  // Path k-1 -> bridge -> right clique's vertex `right`.
  VertexId prev = k - 1;
  for (int i = 0; i < bridge_len; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  b.add_edge(prev, right);
  return std::move(b).build();
}

Graph random_tree(int n, Rng& rng) {
  checked_positive(n, "n");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId v = 1; v < n; ++v) {
    std::uniform_int_distribution<VertexId> pick(0, v - 1);
    edges.push_back({pick(rng), v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph random_maximal_planar(int n, Rng& rng) {
  if (n < 3) throw std::invalid_argument("triangulation needs n >= 3");
  GraphBuilder b(n);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  std::vector<std::array<VertexId, 3>> faces{{0, 1, 2}, {0, 1, 2}};
  for (VertexId w = 3; w < n; ++w) {
    std::uniform_int_distribution<std::size_t> pick(0, faces.size() - 1);
    const std::size_t f = pick(rng);
    const auto [a, u, v] = faces[f];
    b.add_edge(w, a);
    b.add_edge(w, u);
    b.add_edge(w, v);
    faces[f] = {a, u, w};
    faces.push_back({u, v, w});
    faces.push_back({a, v, w});
  }
  return std::move(b).build();
}

Graph random_planar(int n, int m, Rng& rng) {
  if (n < 3) throw std::invalid_argument("n >= 3 required");
  if (m < 0 || m > 3 * n - 6) throw std::invalid_argument("m out of range");
  Graph tri = random_maximal_planar(n, rng);
  std::vector<Edge> pool(tri.edges().begin(), tri.edges().end());
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(m);
  return Graph::from_edges(n, std::move(pool));
}

namespace {

// Adds a uniformly random triangulation of the polygon arc [i..j] (vertices
// i, i+1, ..., j on the outer cycle, with chord {i, j} already present).
void triangulate_arc(GraphBuilder& b, VertexId i, VertexId j, Rng& rng) {
  if (j - i < 2) return;
  std::uniform_int_distribution<VertexId> pick(i + 1, j - 1);
  const VertexId k = pick(rng);
  b.add_edge(i, k);
  b.add_edge(k, j);
  triangulate_arc(b, i, k, rng);
  triangulate_arc(b, k, j, rng);
}

}  // namespace

Graph random_outerplanar(int n, Rng& rng) {
  if (n < 3) throw std::invalid_argument("outerplanar needs n >= 3");
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  b.add_edge(0, n - 1);
  triangulate_arc(b, 0, n - 1, rng);
  return std::move(b).build();
}

Graph random_two_tree(int n, Rng& rng) {
  if (n < 2) throw std::invalid_argument("2-tree needs n >= 2");
  std::vector<Edge> edges{{0, 1}};
  for (VertexId w = 2; w < n; ++w) {
    std::uniform_int_distribution<std::size_t> pick(0, edges.size() - 1);
    const Edge base = edges[pick(rng)];
    edges.push_back({base.u, w});
    edges.push_back({base.v, w});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph random_regular(int n, int d, Rng& rng) {
  if (d < 1 || d >= n) throw std::invalid_argument("bad degree");
  if ((static_cast<std::int64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("n*d must be even");
  }
  // Pairing model with local repair: restarting until the pairing is simple
  // has success probability ~exp(-(d²-1)/4), hopeless already at d = 6.
  // Instead, conflicting pairs are fixed by random 2-swaps.
  auto pair_key = [](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  };
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::vector<VertexId> points;
    points.reserve(static_cast<std::size_t>(n) * d);
    for (VertexId v = 0; v < n; ++v) {
      for (int i = 0; i < d; ++i) points.push_back(v);
    }
    std::shuffle(points.begin(), points.end(), rng);
    const int num_pairs = static_cast<int>(points.size()) / 2;
    std::vector<std::pair<VertexId, VertexId>> pairs(num_pairs);
    std::unordered_map<std::uint64_t, int> multiplicity;
    for (int i = 0; i < num_pairs; ++i) {
      pairs[i] = {points[2 * i], points[2 * i + 1]};
      ++multiplicity[pair_key(pairs[i].first, pairs[i].second)];
    }
    auto is_bad = [&](const std::pair<VertexId, VertexId>& p) {
      return p.first == p.second || multiplicity[pair_key(p.first, p.second)] > 1;
    };
    std::uniform_int_distribution<int> pick(0, num_pairs - 1);
    bool ok = false;
    for (long iter = 0; iter < 400L * num_pairs; ++iter) {
      int bad = -1;
      for (int i = 0; i < num_pairs; ++i) {
        if (is_bad(pairs[i])) {
          bad = i;
          break;
        }
      }
      if (bad == -1) {
        ok = true;
        break;
      }
      const int other = pick(rng);
      if (other == bad) continue;
      auto [a, b] = pairs[bad];
      auto [c, dd] = pairs[other];
      // Propose swapping partners: (a, c) and (b, dd).
      if (a == c || b == dd) continue;
      const auto old1 = pair_key(a, b), old2 = pair_key(c, dd);
      const auto new1 = pair_key(a, c), new2 = pair_key(b, dd);
      --multiplicity[old1];
      --multiplicity[old2];
      if (multiplicity[new1] > 0 || multiplicity[new2] > 0 || new1 == new2) {
        ++multiplicity[old1];
        ++multiplicity[old2];
        continue;
      }
      ++multiplicity[new1];
      ++multiplicity[new2];
      pairs[bad] = {a, c};
      pairs[other] = {b, dd};
    }
    if (!ok) continue;
    GraphBuilder b(n);
    for (const auto& [u, v] : pairs) b.add_edge(u, v);
    return std::move(b).build();
  }
  throw std::runtime_error("random_regular: repair failed");
}

Graph erdos_renyi(int n, double p, Rng& rng) {
  checked_positive(n, "n");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("p out of range");
  std::bernoulli_distribution coin(p);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (coin(rng)) edges.push_back({u, v});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph plus_random_edges(const Graph& base, int extra, Rng& rng) {
  const int n = base.num_vertices();
  if (n < 2) throw std::invalid_argument("need >= 2 vertices");
  GraphBuilder b(n);
  for (const Edge& e : base.edges()) b.add_edge(e.u, e.v);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  int added = 0;
  long guard = 0;
  const long max_tries = 200L * extra + 10000;
  while (added < extra && guard++ < max_tries) {
    if (b.add_edge(pick(rng), pick(rng))) ++added;
  }
  if (added < extra) throw std::runtime_error("plus_random_edges: graph too dense");
  return std::move(b).build();
}

Graph star_pathology(int num_stars, int leaves_per_star, Rng& rng) {
  checked_positive(num_stars, "num_stars");
  if (leaves_per_star < 2) throw std::invalid_argument("need >= 2 leaves");
  // Star centers are connected in a random tree so the graph is connected;
  // each center also carries `leaves_per_star` degree-1 leaves (2-stars) and
  // every pair of adjacent centers shares `leaves_per_star` degree-2
  // companions (double stars).
  Graph spine = random_tree(num_stars, rng);
  const int n = num_stars + num_stars * leaves_per_star +
                spine.num_edges() * leaves_per_star;
  GraphBuilder b(n);
  VertexId next = num_stars;
  for (const Edge& e : spine.edges()) b.add_edge(e.u, e.v);
  for (VertexId c = 0; c < num_stars; ++c) {
    for (int i = 0; i < leaves_per_star; ++i) b.add_edge(c, next++);
  }
  for (const Edge& e : spine.edges()) {
    for (int i = 0; i < leaves_per_star; ++i) {
      b.add_edge(e.u, next);
      b.add_edge(e.v, next);
      ++next;
    }
  }
  return std::move(b).build();
}

std::vector<Weight> random_weights(const Graph& g, Weight max_weight, Rng& rng) {
  if (max_weight < 1) throw std::invalid_argument("max_weight must be >= 1");
  std::uniform_int_distribution<Weight> pick(1, max_weight);
  std::vector<Weight> w(g.num_edges());
  for (auto& x : w) x = pick(rng);
  return w;
}

std::vector<EdgeSign> planted_signs(const Graph& g, int target_cluster_size,
                                    double noise, Rng& rng) {
  checked_positive(target_cluster_size, "target_cluster_size");
  const int n = g.num_vertices();
  std::vector<int> region(n, -1);
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  std::shuffle(order.begin(), order.end(), rng);
  int next_region = 0;
  for (VertexId seed : order) {
    if (region[seed] != -1) continue;
    // BFS-grow a region of roughly the target size.
    std::queue<VertexId> q;
    q.push(seed);
    region[seed] = next_region;
    int size = 1;
    while (!q.empty() && size < target_cluster_size) {
      VertexId v = q.front();
      q.pop();
      for (VertexId u : g.neighbors(v)) {
        if (region[u] == -1 && size < target_cluster_size) {
          region[u] = next_region;
          ++size;
          q.push(u);
        }
      }
    }
    ++next_region;
  }
  std::bernoulli_distribution flip(noise);
  std::vector<EdgeSign> signs(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    bool positive = region[ed.u] == region[ed.v];
    if (flip(rng)) positive = !positive;
    signs[e] = positive ? EdgeSign::kPositive : EdgeSign::kNegative;
  }
  return signs;
}

Graph disjoint_union(const std::vector<Graph>& parts) {
  int n = 0;
  std::vector<Edge> edges;
  for (const Graph& g : parts) {
    for (const Edge& e : g.edges()) {
      edges.push_back({e.u + n, e.v + n});
    }
    n += g.num_vertices();
  }
  return Graph::from_edges(n, std::move(edges));
}

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> kNames = {
      "grid", "tri",   "planar",    "outer",   "twotree",
      "tree", "torus", "hypercube", "expander"};
  return kNames;
}

Graph make_family(const std::string& name, int n, Rng& rng) {
  if (name == "grid") {
    int side = 1;
    while (side * side < n) ++side;
    return grid(side, side);
  }
  if (name == "tri") return random_maximal_planar(n, rng);
  if (name == "planar") return random_planar(n, 2 * n, rng);
  if (name == "outer") return random_outerplanar(n, rng);
  if (name == "twotree") return random_two_tree(n, rng);
  if (name == "tree") return random_tree(n, rng);
  if (name == "torus") {
    int side = 3;
    while (side * side < n) ++side;
    return torus_grid(side, side);
  }
  if (name == "hypercube") {
    int dim = 1;
    while ((1 << dim) < n) ++dim;
    return hypercube(dim);
  }
  if (name == "expander") return random_regular(n - (n % 2), 6, rng);
  throw std::invalid_argument("unknown graph family '" + name + "'");
}

}  // namespace ecd::graph
