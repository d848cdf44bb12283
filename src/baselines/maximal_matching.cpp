#include "src/baselines/maximal_matching.h"

#include <memory>
#include <random>

namespace ecd::baselines {

using congest::Context;
using congest::Message;
using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

namespace {

// Three rounds per phase:
//   0: every unmatched vertex flips proposer/acceptor; proposers send a
//      proposal to one uniformly random unmatched neighbor.
//   1: acceptors accept the smallest-id proposal received.
//   2: a proposer whose proposal was accepted is matched; both endpoints
//      tell all neighbors they are matched, so everyone prunes its list of
//      unmatched neighbors.
class MatchAlgo final : public congest::VertexAlgorithm {
 public:
  explicit MatchAlgo(std::uint64_t seed) : rng_(seed) {}

  void round(Context& ctx) override {
    const int step = static_cast<int>(ctx.round() % 3);
    if (step == 0) {
      if (unmatched_port_.empty() && ctx.round() == 0) {
        for (int p = 0; p < ctx.num_ports(); ++p) unmatched_port_.push_back(p);
      }
      // Prune neighbors that announced a match last phase.
      for (auto it = unmatched_port_.begin(); it != unmatched_port_.end();) {
        bool gone = false;
        for (const Message& m : ctx.inbox(*it)) {
          if (m.words[0] == kTagMatched) gone = true;
        }
        it = gone ? unmatched_port_.erase(it) : ++it;
      }
      if (mate_ != kInvalidVertex) {
        done_ = true;
        return;
      }
      if (unmatched_port_.empty()) {
        done_ = true;  // maximality: no unmatched neighbors remain
        return;
      }
      ++phases_;
      proposer_ = std::bernoulli_distribution(0.5)(rng_);
      proposal_port_ = -1;
      if (proposer_) {
        std::uniform_int_distribution<std::size_t> pick(
            0, unmatched_port_.size() - 1);
        proposal_port_ = unmatched_port_[pick(rng_)];
        ctx.send(proposal_port_, {{kTagPropose, ctx.id()}});
      }
      return;
    }
    if (step == 1) {
      if (done_ || proposer_) return;
      int best_port = -1;
      VertexId best_id = -1;
      for (int p : unmatched_port_) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] != kTagPropose) continue;
          const VertexId who = static_cast<VertexId>(m.words[1]);
          if (best_port == -1 || who < best_id) {
            best_port = p;
            best_id = who;
          }
        }
      }
      if (best_port != -1) {
        mate_ = best_id;
        ctx.send(best_port, {{kTagAccept, ctx.id()}});
      }
      return;
    }
    // step == 2
    if (done_) return;
    if (proposer_ && proposal_port_ != -1) {
      for (const Message& m : ctx.inbox(proposal_port_)) {
        if (m.words[0] == kTagAccept) {
          mate_ = static_cast<VertexId>(m.words[1]);
        }
      }
    }
    if (mate_ != kInvalidVertex) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{kTagMatched, ctx.id()}});
      }
    }
  }

  bool finished() const override { return done_; }
  VertexId mate() const { return mate_; }
  int phases() const { return phases_; }

 private:
  static constexpr std::int64_t kTagPropose = 1;
  static constexpr std::int64_t kTagAccept = 2;
  static constexpr std::int64_t kTagMatched = 3;

  std::mt19937_64 rng_;
  std::vector<int> unmatched_port_;
  bool proposer_ = false;
  int proposal_port_ = -1;
  VertexId mate_ = kInvalidVertex;
  bool done_ = false;
  int phases_ = 0;
};

}  // namespace

DistributedMatchingResult distributed_maximal_matching(
    const Graph& g, std::uint64_t seed, const congest::NetworkOptions& net) {
  const auto run = congest::run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<MatchAlgo>(seed ^ (0xA24BAED4963EE407ULL * (v + 3)));
  });
  DistributedMatchingResult result;
  result.stats = run.stats;
  for (const MatchAlgo* a : run.at) {
    result.mates.push_back(a->mate());
    result.phases = std::max(result.phases, a->phases());
  }
  return result;
}

}  // namespace ecd::baselines
