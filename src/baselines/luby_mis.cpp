#include "src/baselines/luby_mis.h"

#include <memory>
#include <random>
#include <utility>

namespace ecd::baselines {

using congest::Context;
using congest::Message;
using graph::Graph;
using graph::VertexId;

namespace {

// Two rounds per phase. Even round: active vertices draw and exchange random
// priorities. Odd round: a vertex that is the strict (priority, id) minimum
// of its still-active neighborhood joins the MIS and announces membership;
// the announcement (-1 tag) retires its neighbors at the start of the next
// even round.
class LubyAlgo final : public congest::VertexAlgorithm {
 public:
  LubyAlgo(std::uint64_t seed, int prelude_rounds)
      : rng_(seed), prelude_(prelude_rounds) {}

  enum class State { kActive, kInMis, kRetired };

  void round(Context& ctx) override {
    if (done_) return;
    if (ctx.round() < prelude_) return;  // composed behind an earlier phase
    // Phase parity is internal state, not ctx.round() % 2: composed behind
    // a prelude (first invocation at an odd global round), global parity is
    // out of phase with the protocol's and every vertex would judge the
    // priority exchange in the wrong half-phase.
    const int step = step_++;
    if (step % 2 == 0) {
      // Retirement announcements from the previous odd round arrive now.
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == -1) {
            state_ = State::kRetired;
            done_ = true;
            return;
          }
        }
      }
      ++phases_;
      priority_ = static_cast<std::int64_t>(rng_() >> 1);
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{priority_, ctx.id()}});
      }
      return;
    }
    bool wins = true;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        if (m.words[0] == -1) continue;  // stale announcement
        if (std::pair(m.words[0], m.words[1]) <
            std::pair(priority_, static_cast<std::int64_t>(ctx.id()))) {
          wins = false;
        }
      }
    }
    if (wins) {
      state_ = State::kInMis;
      done_ = true;
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{-1, ctx.id()}});
      }
    }
  }

  bool finished() const override { return done_; }
  State state() const { return state_; }
  int phases() const { return phases_; }

 private:
  std::mt19937_64 rng_;
  State state_ = State::kActive;
  std::int64_t priority_ = 0;
  bool done_ = false;
  int phases_ = 0;
  int prelude_ = 0;
  int step_ = 0;  // executed protocol steps; parity = protocol half-phase
};

}  // namespace

LubyResult luby_mis(const Graph& g, std::uint64_t seed,
                    const congest::NetworkOptions& net, int prelude_rounds) {
  const auto run = congest::run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<LubyAlgo>(
        seed ^ (0xD1B54A32D192ED03ULL * (v + 2)), prelude_rounds);
  });
  LubyResult result;
  result.stats = run.stats;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (run.at[v]->state() == LubyAlgo::State::kInMis) {
      result.independent_set.push_back(v);
    }
    result.phases = std::max(result.phases, run.at[v]->phases());
  }
  return result;
}

}  // namespace ecd::baselines
