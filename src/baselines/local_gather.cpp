#include "src/baselines/local_gather.h"

#include <algorithm>
#include <memory>
#include <set>

#include "src/congest/primitives.h"

namespace ecd::baselines {

using congest::Context;
using congest::Message;
using graph::Graph;
using graph::VertexId;

namespace {

// Gossip flood: every round, forward all newly learned intra-cluster edges
// to all intra-cluster neighbors in one (unbounded) message.
class GossipAlgo final : public congest::VertexAlgorithm {
 public:
  GossipAlgo(const std::vector<int>* intra, std::int64_t* max_words)
      : intra_(intra), max_words_(max_words) {}

  void round(Context& ctx) override {
    started_ = true;
    std::vector<std::int64_t> fresh;
    if (ctx.round() == 0) {
      for (int p : *intra_) {
        const auto key = encode(ctx.id(), ctx.neighbor(p));
        if (known_.insert(key).second) fresh.push_back(key);
      }
    }
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        for (std::int64_t key : m.words) {
          if (known_.insert(key).second) fresh.push_back(key);
        }
      }
    }
    sent_ = !fresh.empty();
    if (sent_) {
      for (int p : *intra_) {
        Message m;
        m.words = fresh;
        *max_words_ = std::max(*max_words_,
                               static_cast<std::int64_t>(m.words.size()));
        ctx.send(p, std::move(m));
      }
    }
  }

  bool finished() const override { return started_ && !sent_; }
  std::int64_t edges_known() const {
    return static_cast<std::int64_t>(known_.size());
  }

 private:
  static std::int64_t encode(VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::int64_t>(a) << 32) | static_cast<std::uint32_t>(b);
  }

  const std::vector<int>* intra_;
  std::int64_t* max_words_;
  std::set<std::int64_t> known_;
  bool started_ = false;
  bool sent_ = false;
};

}  // namespace

LocalGatherResult local_model_gather(const Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<VertexId>& leader_of) {
  const int n = g.num_vertices();
  const auto intra = congest::intra_cluster_ports(g, cluster_of);
  LocalGatherResult result;
  congest::NetworkOptions opt;
  opt.enforce_bandwidth = false;  // the LOCAL model
  const auto run = congest::run_each_vertex(g, opt, [&](VertexId v) {
    return std::make_unique<GossipAlgo>(&intra[v], &result.max_message_words);
  });
  result.stats = run.stats;
  result.edges_learned.assign(congest::count_clusters(cluster_of), 0);
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] == v) {
      result.edges_learned[cluster_of[v]] = run.at[v]->edges_known();
    }
  }
  return result;
}

}  // namespace ecd::baselines
