#include "src/baselines/mpx_ldd.h"

#include <cmath>
#include <memory>
#include <queue>
#include <stdexcept>

#include "src/congest/network.h"

namespace ecd::baselines {

using graph::Graph;
using graph::VertexId;

MpxResult mpx_ldd(const Graph& g, double eps, std::mt19937_64& rng) {
  if (eps <= 0.0 || eps > 1.0) throw std::invalid_argument("eps out of (0,1]");
  const int n = g.num_vertices();
  const double beta = eps / 2.0;
  std::exponential_distribution<double> exp_dist(beta);

  // Fractional shifts make ties measure-zero; Dijkstra over shifted starts.
  std::vector<double> shift(n);
  for (auto& s : shift) s = exp_dist(rng);

  // dist'(v) = min_u (dist(u,v) - shift(u)): multi-source Dijkstra with
  // initial potential -shift(u).
  std::vector<double> key(n, 1e18);
  std::vector<int> owner(n, -1);
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (VertexId v = 0; v < n; ++v) {
    key[v] = -shift[v];
    owner[v] = v;
    pq.push({key[v], v});
  }
  while (!pq.empty()) {
    const auto [k, v] = pq.top();
    pq.pop();
    if (k > key[v]) continue;
    for (VertexId u : g.neighbors(v)) {
      if (key[v] + 1.0 < key[u]) {
        key[u] = key[v] + 1.0;
        owner[u] = owner[v];
        pq.push({key[u], u});
      }
    }
  }

  MpxResult result;
  result.cluster_of.assign(n, -1);
  std::vector<int> remap(n, -1);
  for (VertexId v = 0; v < n; ++v) {
    int& slot = remap[owner[v]];
    if (slot == -1) slot = result.num_clusters++;
    result.cluster_of[v] = slot;
  }
  for (const graph::Edge& e : g.edges()) {
    if (result.cluster_of[e.u] != result.cluster_of[e.v]) ++result.cut_edges;
  }
  return result;
}

namespace {

// One vertex of the distributed MPX: sleeps until its wake round, then
// claims itself (owner = own id) unless a neighbor's claim arrived first;
// forwards the adopted claim once. Ties (same arrival round) break toward
// the larger shift, then the smaller id — the same rule on both sides of
// every edge, so the clustering is well defined.
class MpxAlgo final : public congest::VertexAlgorithm {
 public:
  MpxAlgo(std::int64_t wake_round, std::int64_t shift)
      : wake_round_(wake_round), shift_(shift) {}

  void round(congest::Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (owner_ == -1) {
      // Claims carry (owner id, owner shift); first arrival wins.
      std::int64_t best_owner = -1, best_shift = -1;
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const congest::Message& m : ctx.inbox(p)) {
          const std::int64_t owner = m.words[0], os = m.words[1];
          if (best_owner == -1 || os > best_shift ||
              (os == best_shift && owner < best_owner)) {
            best_owner = owner;
            best_shift = os;
          }
        }
      }
      if (best_owner != -1) {
        owner_ = best_owner;
        owner_shift_ = best_shift;
      } else if (ctx.round() >= wake_round_) {
        owner_ = ctx.id();
        owner_shift_ = shift_;
      }
      if (owner_ != -1) {
        sent_ = true;
        for (int p = 0; p < ctx.num_ports(); ++p) {
          ctx.send(p, {{owner_, owner_shift_}});
        }
      }
    }
  }

  bool finished() const override { return started_ && owner_ != -1 && !sent_; }
  std::int64_t owner() const { return owner_; }

 private:
  std::int64_t wake_round_;
  std::int64_t shift_;
  std::int64_t owner_ = -1;
  std::int64_t owner_shift_ = -1;
  bool started_ = false;
  bool sent_ = false;
};

}  // namespace

DistributedMpxResult mpx_ldd_distributed(const Graph& g, double eps,
                                         std::uint64_t seed) {
  if (eps <= 0.0 || eps > 1.0) throw std::invalid_argument("eps out of (0,1]");
  const int n = g.num_vertices();
  std::mt19937_64 rng(seed);
  std::geometric_distribution<int> geo(eps / 2.0);
  std::vector<std::int64_t> shift(n);
  std::int64_t max_shift = 0;
  for (auto& s : shift) {
    s = geo(rng);
    max_shift = std::max(max_shift, s);
  }
  const auto run = congest::run_each_vertex(g, {}, [&](VertexId v) {
    return std::make_unique<MpxAlgo>(max_shift - shift[v], shift[v]);
  });
  DistributedMpxResult result;
  result.rounds = run.stats.rounds;
  result.clustering.cluster_of.assign(n, -1);
  std::vector<int> remap(n, -1);
  for (VertexId v = 0; v < n; ++v) {
    const int owner = static_cast<int>(run.at[v]->owner());
    int& slot = remap[owner];
    if (slot == -1) slot = result.clustering.num_clusters++;
    result.clustering.cluster_of[v] = slot;
  }
  for (const graph::Edge& e : g.edges()) {
    if (result.clustering.cluster_of[e.u] != result.clustering.cluster_of[e.v]) {
      ++result.clustering.cut_edges;
    }
  }
  return result;
}

}  // namespace ecd::baselines
