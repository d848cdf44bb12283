#include "src/core/triangles.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/graph/metrics.h"

namespace ecd::core {

using congest::Context;
using congest::Message;
using graph::Graph;
using graph::VertexId;

namespace {

// Phase B of the algorithm: every vertex announces its out-neighbors, one
// id per round on every incident edge; after everyone is silent, each
// vertex counts the triangles in which it has the smallest id, deciding
// adjacency of two neighbors y, z from the announced lists
// (y ~ z iff z in N+(y) or y in N+(z)).
class AnnounceAlgo final : public congest::VertexAlgorithm {
 public:
  AnnounceAlgo(std::vector<VertexId> out_neighbors, int rounds_needed)
      : out_(std::move(out_neighbors)), rounds_needed_(rounds_needed) {}

  void round(Context& ctx) override {
    const std::int64_t r = ctx.round();
    if (r < rounds_needed_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          received_[ctx.neighbor(p)].push_back(
              static_cast<VertexId>(m.words[0]));
        }
      }
      if (r < static_cast<std::int64_t>(out_.size())) {
        for (int p = 0; p < ctx.num_ports(); ++p) {
          ctx.send(p, {{out_[r]}});
        }
      }
      return;
    }
    if (done_) return;
    // Final absorb, then count.
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        received_[ctx.neighbor(p)].push_back(
            static_cast<VertexId>(m.words[0]));
      }
    }
    count_triangles(ctx);
    done_ = true;
  }

  bool finished() const override { return done_; }
  std::int64_t count() const { return count_; }

 private:
  void count_triangles(Context& ctx) {
    const VertexId me = ctx.id();
    std::vector<VertexId> nbrs;
    for (int p = 0; p < ctx.num_ports(); ++p) nbrs.push_back(ctx.neighbor(p));
    auto adjacent = [&](VertexId y, VertexId z) {
      const auto& ny = received_[y];
      if (std::find(ny.begin(), ny.end(), z) != ny.end()) return true;
      const auto& nz = received_[z];
      return std::find(nz.begin(), nz.end(), y) != nz.end();
    };
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const VertexId y = nbrs[i], z = nbrs[j];
        if (me < y && me < z && adjacent(y, z)) ++count_;
      }
    }
  }

  std::vector<VertexId> out_;
  int rounds_needed_;
  std::unordered_map<VertexId, std::vector<VertexId>> received_;
  bool done_ = false;
  std::int64_t count_ = 0;
};

}  // namespace

TriangleCountResult count_triangles_distributed(const Graph& g) {
  TriangleCountResult result;
  const int n = g.num_vertices();
  const std::vector<int> one_cluster(n, 0);

  // Phase A: Barenboim–Elkin orientation (measured).
  const int threshold = std::max(1, graph::degeneracy(g).degeneracy);
  const auto orientation =
      congest::orient_cluster_edges(g, one_cluster, threshold);
  result.ledger.add_measured("orientation (Barenboim-Elkin)",
                             orientation.stats);
  result.out_degree_bound = orientation.max_out_degree;

  // Phase B: out-list announcements + local counting (measured).
  const auto run = congest::run_each_vertex(g, {}, [&](VertexId v) {
    std::vector<VertexId> out;
    for (graph::EdgeId e : orientation.owned[v]) {
      out.push_back(g.other_endpoint(e, v));
    }
    return std::make_unique<AnnounceAlgo>(std::move(out),
                                          orientation.max_out_degree);
  });
  result.ledger.add_measured("out-list exchange + local count", run.stats);

  for (const AnnounceAlgo* a : run.at) {
    result.local_count.push_back(a->count());
    result.triangles += a->count();
  }
  return result;
}

std::int64_t count_triangles_sequential(const Graph& g) {
  // Orientation-based O(m * degeneracy) count.
  const auto owned = graph::degeneracy_orientation(g);
  const int n = g.num_vertices();
  std::vector<std::unordered_set<VertexId>> out(n);
  for (VertexId v = 0; v < n; ++v) {
    for (graph::EdgeId e : owned[v]) out[v].insert(g.other_endpoint(e, v));
  }
  std::int64_t count = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId a : out[v]) {
      for (VertexId b : out[v]) {
        if (a < b && (out[a].contains(b) || out[b].contains(a))) ++count;
      }
    }
  }
  return count;
}

}  // namespace ecd::core
