// Substrate-level tests for the mailboxes and the parallel round loop
// (src/congest/network.cpp, src/congest/thread_pool.cpp): per-port FIFO
// order, double-buffer isolation between rounds, WordBuffer spill
// behaviour, send-side validation, the max_rounds budget, bit-identical
// results across thread counts, error recovery after aborted runs, and a
// parity fixture pinning trace/RunStats output to recorded numbers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/baselines/luby_mis.h"
#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/thread_pool.h"
#include "src/congest/trace.h"
#include "src/graph/generators.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::VertexId;

// --- Per-port FIFO ---------------------------------------------------------

// Sends a burst of three sequence-numbered messages per round for three
// rounds; the receiver must observe them in exactly send order.
class BurstSender final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() < 3) {
      for (std::int64_t i = 0; i < 3; ++i) {
        ctx.send(0, {{ctx.round() * 10 + i}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

class FifoReceiver final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    for (const Message& m : ctx.inbox(0)) seen_.push_back(m.words[0]);
  }
  bool finished() const override { return seen_.size() == 9u; }
  const std::vector<std::int64_t>& seen() const { return seen_; }

 private:
  std::vector<std::int64_t> seen_;
};

void run_fifo_burst(int num_threads) {
  Graph g = graph::path(2);
  auto sender = std::make_unique<BurstSender>();
  auto receiver = std::make_unique<FifoReceiver>();
  FifoReceiver* typed = receiver.get();
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::move(sender));
  algos.push_back(std::move(receiver));
  NetworkOptions opt;
  opt.bandwidth_tokens = 3;
  opt.num_threads = num_threads;
  Network net(g, opt);
  net.run(algos);
  const std::vector<std::int64_t> expected{0, 1, 2, 10, 11, 12, 20, 21, 22};
  EXPECT_EQ(typed->seen(), expected);
}

TEST(Substrate, PerPortDeliveryIsFifo) { run_fifo_burst(1); }

// Per-port FIFO survives parallel execution: each directed edge has a
// single sender, so slot order is send order regardless of sharding.
TEST(Substrate, PerPortDeliveryIsFifoParallel) { run_fifo_burst(8); }

// Sends kBudget messages per port per round for kRounds rounds, cycling
// through the ports (p0, p1, p2, p0, …), so every receiver's chunk is
// claimed in interleaved order and outgrows its first chunk while its
// neighbours' chunks are claimed around it. Every vertex checks each
// inbox: exactly kBudget messages from that neighbour, in send order.
class InterleavedSender final : public VertexAlgorithm {
 public:
  static constexpr int kBudget = 9;
  static constexpr std::int64_t kRounds = 4;

  void round(Context& ctx) override {
    const std::int64_t r = ctx.round();
    for (int p = 0; p < ctx.num_ports(); ++p) {
      const PortInbox box = ctx.inbox(p);
      const int expected = r == 0 ? 0 : kBudget;
      EXPECT_EQ(box.size(), expected) << "vertex " << ctx.id() << " port " << p;
      if (box.size() != expected) continue;
      for (int k = 0; k < box.size(); ++k) {
        EXPECT_EQ(box[k].words[0], r - 1);
        EXPECT_EQ(box[k].words[1], k);
        EXPECT_EQ(box[k].words[2], ctx.neighbor(p));
      }
      received_ += box.size();
    }
    if (r < kRounds) {
      for (std::int64_t k = 0; k < kBudget; ++k) {
        for (int p = 0; p < ctx.num_ports(); ++p) {
          ctx.send(p, {{r, k, ctx.id()}});
        }
      }
    }
    done_ = r >= kRounds;
  }
  bool finished() const override { return done_; }
  std::int64_t received() const { return received_; }

 private:
  bool done_ = false;
  std::int64_t received_ = 0;
};

TEST(Substrate, PerPortDeliveryIsFifoUnderInterleavedSends) {
  const Graph g = graph::complete(5);
  for (const bool enforce : {true, false}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "enforce " << enforce << " threads "
                                      << threads);
      std::vector<std::unique_ptr<VertexAlgorithm>> algos;
      std::vector<InterleavedSender*> typed;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        auto a = std::make_unique<InterleavedSender>();
        typed.push_back(a.get());
        algos.push_back(std::move(a));
      }
      NetworkOptions opt;
      opt.bandwidth_tokens = InterleavedSender::kBudget;
      opt.enforce_bandwidth = enforce;
      opt.num_threads = threads;
      opt.sparse_serial_threshold = 0;  // dispatch every round to the shards
      Network net(g, opt);
      const RunStats stats = net.run(algos);
      const std::int64_t per_vertex = (g.num_vertices() - 1) *
                                      InterleavedSender::kBudget *
                                      InterleavedSender::kRounds;
      EXPECT_EQ(stats.rounds, InterleavedSender::kRounds + 1);
      EXPECT_EQ(stats.messages_sent, g.num_vertices() * per_vertex);
      EXPECT_EQ(stats.max_edge_load, InterleavedSender::kBudget);
      for (const InterleavedSender* a : typed) {
        EXPECT_EQ(a->received(), per_vertex);
      }
    }
  }
}

// --- Double-buffer isolation -----------------------------------------------

// Sends {round} before reading, then asserts this round's inbox holds
// exactly the previous round's value — a send during round r must never
// alias the round-r inbox (the two mailbox buffers back different rounds).
class SendThenReadAlgo final : public VertexAlgorithm {
 public:
  static constexpr std::int64_t kRounds = 5;

  void round(Context& ctx) override {
    if (ctx.round() < kRounds) ctx.send(0, {{ctx.round()}});
    const PortInbox box = ctx.inbox(0);
    if (ctx.round() == 0) {
      EXPECT_TRUE(box.empty());
    } else {
      ASSERT_EQ(box.size(), 1);
      EXPECT_EQ(box[0].words[0], ctx.round() - 1);
    }
    if (ctx.round() == kRounds) done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

void run_send_then_read(const NetworkOptions& opt) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SendThenReadAlgo>());
  algos.push_back(std::make_unique<SendThenReadAlgo>());
  Network net(g, opt);
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.rounds, SendThenReadAlgo::kRounds + 1);
  EXPECT_EQ(stats.messages_sent, 2 * SendThenReadAlgo::kRounds);
}

TEST(Substrate, RoundBuffersDoNotAliasInArenaMode) {
  run_send_then_read({});
}

TEST(Substrate, RoundBuffersDoNotAliasInLocalMode) {
  NetworkOptions opt;
  opt.enforce_bandwidth = false;  // LOCAL model: no token budget
  run_send_then_read(opt);
}

// A Network is reusable: a second run on the same instance must start from
// clean mailboxes, not see leftovers of the first.
TEST(Substrate, NetworkReuseStartsFromCleanMailboxes) {
  Graph g = graph::path(2);
  Network net(g);
  for (int i = 0; i < 2; ++i) {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.push_back(std::make_unique<SendThenReadAlgo>());
    algos.push_back(std::make_unique<SendThenReadAlgo>());
    EXPECT_EQ(net.run(algos).rounds, SendThenReadAlgo::kRounds + 1);
  }
}

// --- WordBuffer spill + message-size enforcement ---------------------------

TEST(Substrate, WordBufferSpillsBeyondInlineCapacity) {
  WordBuffer buf;
  for (std::int64_t i = 0; i < 2 * kMaxMessageWords; ++i) buf.push_back(i);
  ASSERT_EQ(buf.size(), 2 * kMaxMessageWords);
  for (int i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], i);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  buf.push_back(42);  // back to inline storage after clear()
  ASSERT_EQ(buf.size(), 1);
  EXPECT_EQ(buf[0], 42);
}

class SpilledMessageAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    Message m;
    for (int i = 0; i < kMaxMessageWords + 3; ++i) m.words.push_back(i);
    ctx.send(0, std::move(m));
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Substrate, SpilledMessageStillRaisesMessageSizeViolation) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SpilledMessageAlgo>());
  algos.push_back(std::make_unique<SpilledMessageAlgo>());
  Network net(g);
  try {
    net.run(algos);
    FAIL() << "oversized message was accepted";
  } catch (const CongestionError& e) {
    EXPECT_EQ(e.kind(), CongestionError::Kind::kMessageSize);
    EXPECT_EQ(e.used(), kMaxMessageWords + 3);
    EXPECT_EQ(e.budget(), kMaxMessageWords);
  }
}

// --- send() validation -----------------------------------------------------

class BadPortAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    ctx.send(ctx.num_ports(), {{1}});
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Substrate, SendOnBadPortNamesVertexAndPortCount) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<BadPortAlgo>());
  algos.push_back(std::make_unique<BadPortAlgo>());
  Network net(g);
  try {
    net.run(algos);
    FAIL() << "out-of-range port was accepted";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("port 1"), std::string::npos) << what;
    EXPECT_NE(what.find("vertex 0"), std::string::npos) << what;
    EXPECT_NE(what.find("1 ports"), std::string::npos) << what;
  }
}

// --- max_rounds budget -----------------------------------------------------

class NeverDoneAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    ++rounds_seen;
    ctx.send(0, {{1}});
  }
  bool finished() const override { return false; }
  int rounds_seen = 0;
};

void run_max_rounds_pin(int num_threads) {
  Graph g = graph::grid(4, 4);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<NeverDoneAlgo*> typed;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<NeverDoneAlgo>();
    typed.push_back(a.get());
    algos.push_back(std::move(a));
  }
  NetworkOptions opt;
  opt.max_rounds = 7;
  opt.num_threads = num_threads;
  Network net(g, opt);
  EXPECT_THROW(net.run(algos), std::runtime_error);
  // The budget is exact: max_rounds compute rounds, not max_rounds + 1.
  for (const NeverDoneAlgo* a : typed) EXPECT_EQ(a->rounds_seen, 7);
}

TEST(Substrate, MaxRoundsExecutesExactlyThatManyComputeRounds) {
  run_max_rounds_pin(1);
}

TEST(Substrate, MaxRoundsBudgetIsExactUnderParallelExecution) {
  run_max_rounds_pin(4);
}

class FinishAfterAlgo final : public VertexAlgorithm {
 public:
  explicit FinishAfterAlgo(int target) : target_(target) {}
  void round(Context&) override { ++seen_; }
  bool finished() const override { return seen_ >= target_; }

 private:
  int target_;
  int seen_ = 0;
};

TEST(Substrate, FinishingAtTheRoundLimitStillCompletes) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<FinishAfterAlgo>(7));
  algos.push_back(std::make_unique<FinishAfterAlgo>(7));
  NetworkOptions opt;
  opt.max_rounds = 7;
  Network net(g, opt);
  EXPECT_EQ(net.run(algos).rounds, 7);
}

// --- Determinism across thread counts --------------------------------------
//
// The parallel loop's correctness anchor (DESIGN.md §11): per-port deposits
// are single-writer and per-port FIFO has one sender per direction, so
// RunStats and every vertex's final state must be bit-identical for every
// num_threads value. Each workload below runs at 1/2/4/8 threads and pins
// all outputs to the serial result.

void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.words_sent, b.words_sent);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
}

// Flood wavefront: vertex 0 announces, everyone forwards on first receipt;
// the final per-vertex output is the round the wave arrived.
class FloodWaveAlgo final : public VertexAlgorithm {
 public:
  explicit FloodWaveAlgo(bool is_source) : source_(is_source) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (arrival_ >= 0) return;
    if (source_) {
      arrival_ = 0;
      forward(ctx);
      return;
    }
    for (int p = 0; p < ctx.num_ports(); ++p) {
      if (!ctx.inbox(p).empty()) {
        arrival_ = ctx.round();
        forward(ctx);
        return;
      }
    }
  }
  bool finished() const override { return started_ && !sent_; }
  std::int64_t output() const { return arrival_; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{arrival_}});
  }
  bool source_;
  std::int64_t arrival_ = -1;
  bool started_ = false;
  bool sent_ = false;
};

// Full-duplex saturation with data-dependent payloads: every vertex sends
// a parity-mixed word on every port each round, folding received words
// into a running sink — any delivery mixup changes the final sinks.
class SaturateAlgo final : public VertexAlgorithm {
 public:
  explicit SaturateAlgo(int rounds) : rounds_(rounds) {}

  // The digest wraps modulo 2^64, so it is computed unsigned.
  void round(Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        sink_ += static_cast<std::uint64_t>(m.words[0]);
      }
    }
    if (ctx.round() < rounds_) {
      const std::uint64_t word =
          (sink_ * 31 + static_cast<std::uint64_t>(ctx.id())) ^
          static_cast<std::uint64_t>(ctx.round());
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{static_cast<std::int64_t>(word)}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }
  std::int64_t output() const { return static_cast<std::int64_t>(sink_); }

 private:
  int rounds_;
  std::uint64_t sink_ = 0;
  bool done_ = false;
};

struct DeterminismOutcome {
  RunStats stats;
  std::vector<std::int64_t> outputs;
};

template <typename Algo, typename Make>
DeterminismOutcome run_workload(const Graph& g, int num_threads, Make make) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<Algo*> typed;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = make(v);
    typed.push_back(a.get());
    algos.push_back(std::move(a));
  }
  NetworkOptions opt;
  opt.num_threads = num_threads;
  Network net(g, opt);
  DeterminismOutcome out;
  out.stats = net.run(algos);
  for (const Algo* a : typed) out.outputs.push_back(a->output());
  return out;
}

TEST(ParallelDeterminism, FloodIsBitIdenticalAcrossThreadCounts) {
  const Graph g = graph::grid(24, 24);
  const auto make = [](VertexId v) {
    return std::make_unique<FloodWaveAlgo>(v == 0);
  };
  const auto serial = run_workload<FloodWaveAlgo>(g, 1, make);
  EXPECT_EQ(serial.stats.messages_sent, 2 * g.num_edges());
  for (const int threads : {2, 4, 8, 16}) {
    const auto par = run_workload<FloodWaveAlgo>(g, threads, make);
    expect_same_stats(par.stats, serial.stats);
    EXPECT_EQ(par.outputs, serial.outputs) << threads << " threads";
  }
}

TEST(ParallelDeterminism, PingPongIsBitIdenticalAcrossThreadCounts) {
  const Graph g = graph::grid(16, 16);
  const auto make = [](VertexId) { return std::make_unique<SaturateAlgo>(12); };
  const auto serial = run_workload<SaturateAlgo>(g, 1, make);
  for (const int threads : {2, 4, 8, 16}) {
    const auto par = run_workload<SaturateAlgo>(g, threads, make);
    expect_same_stats(par.stats, serial.stats);
    EXPECT_EQ(par.outputs, serial.outputs) << threads << " threads";
  }
}

// Randomized workload: Luby MIS draws per-vertex mt19937_64 priorities.
// RNG state lives inside each vertex algorithm, so the drawn bits — and
// therefore the chosen independent set — must not depend on sharding.
TEST(ParallelDeterminism, LubyMisIsBitIdenticalAcrossThreadCounts) {
  graph::Rng rng(99);
  const Graph g = graph::random_maximal_planar(300, rng);
  congest::NetworkOptions opt;
  const auto serial = baselines::luby_mis(g, 7, opt);
  EXPECT_FALSE(serial.independent_set.empty());
  for (const int threads : {2, 4, 8, 16}) {
    congest::NetworkOptions popt;
    popt.num_threads = threads;
    const auto par = baselines::luby_mis(g, 7, popt);
    expect_same_stats(par.stats, serial.stats);
    EXPECT_EQ(par.independent_set, serial.independent_set)
        << threads << " threads";
    EXPECT_EQ(par.phases, serial.phases);
  }
}

// --- Sparse-round fast path -------------------------------------------------
//
// The serial fallback (NetworkOptions::sparse_serial_threshold) decides
// per round on the thread-count-independent active-vertex count, so every
// threshold setting must produce bit-identical results and metrics — the
// fallback may only change where the work runs, never what it computes.
// Flood is the canonical sparse shape: the wavefront is a thin frontier
// and the drain rounds are near-empty.

TEST(SparseFastPath, ThresholdNeverChangesResultsOrMetrics) {
  const Graph g = graph::grid(24, 24);
  const auto run_with = [&](int threads, int threshold) {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    std::vector<FloodWaveAlgo*> typed;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto a = std::make_unique<FloodWaveAlgo>(v == 0);
      typed.push_back(a.get());
      algos.push_back(std::move(a));
    }
    MetricsRegistry metrics;
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = threshold;
    opt.metrics = &metrics;
    Network net(g, opt);
    DeterminismOutcome out;
    out.stats = net.run(algos);
    for (const FloodWaveAlgo* a : typed) out.outputs.push_back(a->output());
    return std::pair(out, metrics.to_json());
  };
  const auto [ref, ref_json] = run_with(1, 0);
  for (const int threads : {1, 2, 4, 8}) {
    // 0 = fallback disabled, 48 = the wavefront straddles it (some rounds
    // dispatch, some fall back), huge = every round runs inline.
    for (const int threshold : {0, 48, 1 << 20}) {
      const auto [out, json] = run_with(threads, threshold);
      expect_same_stats(out.stats, ref.stats);
      EXPECT_EQ(out.outputs, ref.outputs)
          << threads << " threads, threshold " << threshold;
      EXPECT_EQ(json, ref_json)
          << threads << " threads, threshold " << threshold;
    }
  }
}

// num_threads = 0 (auto) must not spawn workers a tiny graph cannot feed:
// the shard count is clamped so every shard carries a meaningful weight
// (kAutoShardMinWeight in network.cpp). A 6x6 grid's weight is ~156, so
// auto resolves to one shard on any machine — observable through the
// profiler's lane count.
TEST(SparseFastPath, AutoThreadCountClampsToShardWeightOnTinyGraphs) {
  const Graph g = graph::grid(6, 6);
  ExecutionProfiler profiler;
  NetworkOptions opt;
  opt.num_threads = 0;  // hardware concurrency, then the weight clamp
  opt.profiler = &profiler;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<FloodWaveAlgo>(v == 0));
  }
  net.run(algos);
  EXPECT_EQ(profiler.summary().num_shards, 1);
}

// --- Error recovery after aborted runs -------------------------------------
//
// A violation aborts a run mid-round with messages already deposited for
// the next round. The Network must stay reusable: a fresh run() on the
// same instance starts from clean mailboxes and reports correct stats
// (the reset_mailboxes path), with enforcement on (a 1-token and a
// 3M-token budget) and off, and in parallel.

// Sends within budget at round 0 (so both buffers hold state when the
// abort happens), then overruns the per-edge token budget at round 1.
class BudgetViolatorAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    ctx.send(0, {{1}});
    if (ctx.round() >= 1) ctx.send(0, {{2}});  // second token: budget is 1
  }
  bool finished() const override { return false; }
};

// Valid send at round 0, out-of-range port at round 1.
class LateBadPortAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() == 0) {
      ctx.send(0, {{1}});
    } else {
      ctx.send(ctx.num_ports(), {{1}});
    }
  }
  bool finished() const override { return false; }
};

// Oversized message at round 1: a violation a huge token budget still
// raises, since enforcement stays on.
class LateFatMessageAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() == 0) {
      ctx.send(0, {{1}});
    } else {
      Message m;
      for (int i = 0; i < kMaxMessageWords + 2; ++i) m.words.push_back(i);
      ctx.send(0, std::move(m));
    }
  }
  bool finished() const override { return false; }
};

// Resident set size of this process in KiB, read from /proc/self/status;
// -1 when the file has no VmRSS line.
std::int64_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

// `while_alive` runs after the recovered run, before the Network is
// destroyed.
template <typename Violator>
void abort_then_recover(const NetworkOptions& opt,
                        const std::function<void()>& while_alive = {}) {
  Graph g = graph::path(2);
  Network net(g, opt);
  {
    std::vector<std::unique_ptr<VertexAlgorithm>> bad;
    bad.push_back(std::make_unique<Violator>());
    bad.push_back(std::make_unique<Violator>());
    EXPECT_THROW(net.run(bad), std::exception);
  }
  // SendThenReadAlgo asserts its inboxes internally: leftovers from the
  // aborted run would fail the round-0 empty-inbox expectation.
  std::vector<std::unique_ptr<VertexAlgorithm>> clean;
  clean.push_back(std::make_unique<SendThenReadAlgo>());
  clean.push_back(std::make_unique<SendThenReadAlgo>());
  const RunStats stats = net.run(clean);
  EXPECT_EQ(stats.rounds, SendThenReadAlgo::kRounds + 1);
  EXPECT_EQ(stats.messages_sent, 2 * SendThenReadAlgo::kRounds);
  EXPECT_EQ(stats.words_sent, 2 * SendThenReadAlgo::kRounds);
  EXPECT_EQ(stats.max_edge_load, 1);
  if (while_alive) while_alive();
}

TEST(ErrorRecovery, CongestionAbortThenFreshRunInArenaMode) {
  abort_then_recover<BudgetViolatorAlgo>({});
}

TEST(ErrorRecovery, BadPortAbortThenFreshRunInArenaMode) {
  abort_then_recover<LateBadPortAlgo>({});
}

TEST(ErrorRecovery, BadPortAbortThenFreshRunInLocalMode) {
  NetworkOptions opt;
  opt.enforce_bandwidth = false;  // LOCAL model: no token budget
  abort_then_recover<LateBadPortAlgo>(opt);
}

TEST(ErrorRecovery, MessageSizeAbortThenFreshRunInEnforcedFallbackMode) {
  // Bandwidth enforcement stays on with a 3M-token budget on 2 directed
  // ports. Enforced and LOCAL networks share one mailbox representation, so
  // nothing falls back: the Network reserves room for 3M messages per port
  // without constructing it, and only the slots its traffic reaches become
  // resident. Its process must grow by less than 64 MiB while it is alive
  // (slabs of ports × budget messages would take about 960 MB).
  NetworkOptions opt;
  opt.bandwidth_tokens = 3'000'000;
  const std::int64_t before = resident_kib();
  ASSERT_GE(before, 0);
  abort_then_recover<LateFatMessageAlgo>(opt, [before] {
    EXPECT_LT(resident_kib() - before, 64 * 1024);
  });
}

// Parallel abort: the violation is raised on a worker, quiesced at the
// round barrier, and rethrown on the caller thread as the same exception
// the serial loop would pick (lowest vertex id — shards are contiguous).
TEST(ErrorRecovery, ParallelAbortRethrowsFirstViolationAndStaysReusable) {
  const Graph g = graph::grid(8, 8);
  NetworkOptions opt;
  opt.num_threads = 4;
  Network net(g, opt);
  {
    std::vector<std::unique_ptr<VertexAlgorithm>> bad;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      bad.push_back(std::make_unique<BudgetViolatorAlgo>());
    }
    try {
      net.run(bad);
      FAIL() << "budget overrun was accepted";
    } catch (const CongestionError& e) {
      EXPECT_EQ(e.kind(), CongestionError::Kind::kBandwidth);
      EXPECT_EQ(e.round(), 1);
      EXPECT_EQ(e.from(), 0);  // serial order: vertex 0 violates first
      EXPECT_EQ(e.used(), 2);
      EXPECT_EQ(e.budget(), 1);
    }
  }
  const auto make = [](VertexId v) {
    return std::make_unique<FloodWaveAlgo>(v == 0);
  };
  const auto recovered = run_workload<FloodWaveAlgo>(g, 1, make);
  std::vector<std::unique_ptr<VertexAlgorithm>> clean;
  std::vector<FloodWaveAlgo*> typed;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = make(v);
    typed.push_back(a.get());
    clean.push_back(std::move(a));
  }
  const RunStats stats = net.run(clean);
  expect_same_stats(stats, recovered.stats);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(typed[v]->output(), recovered.outputs[v]);
  }
}

TEST(ErrorRecovery, ParallelBadPortAbortThenFreshRun) {
  NetworkOptions opt;
  opt.num_threads = 2;
  abort_then_recover<LateBadPortAlgo>(opt);
}

// --- ThreadPool barrier integrity under exceptions --------------------------
//
// Regression for the generation-barrier protocol: a dispatch whose job
// throws — in any shard, including the caller's own slice — must still
// quiesce before control leaves dispatch(). Returning early would let the
// next dispatch overwrite pending_ while stale workers still decrement it,
// driving the count negative and parking every thread forever. The
// workload below is shaped like the simulator's BSP round: a compute
// dispatch fills per-shard metric rows, then a "reduction" dispatch merges
// them — and the reducer throws.

TEST(ThreadPoolBarrier, ThrowingMetricsReducerLeavesPoolReusable) {
  constexpr int kShards = 4;
  ThreadPool pool(kShards);
  std::array<std::int64_t, kShards> rows{};
  pool.run([&](int s) { rows[s] = s + 1; });  // compute phase

  // Reduction phase: a worker-shard reducer fails while merging rows.
  EXPECT_THROW(pool.run([&](int s) {
    if (s == 2) throw std::runtime_error("metrics reducer failed");
    rows[s] += rows[s];
  }),
               std::runtime_error);

  // Same failure from the caller's shard (the slice dispatch() itself runs).
  EXPECT_THROW(pool.run([&](int s) {
    if (s == 0) throw std::runtime_error("caller-side reducer failed");
  }),
               std::runtime_error);

  // The pool must have quiesced both times: the next dispatch runs every
  // shard exactly once and the barrier still holds.
  std::array<std::int64_t, kShards> ran{};
  pool.run([&](int s) { ran[s] = 1; });
  for (int s = 0; s < kShards; ++s) EXPECT_EQ(ran[s], 1) << "shard " << s;

  // Stress the protocol: alternate throwing and clean dispatches. Any
  // generation/pending desync surfaces as a hang (test timeout) or a
  // missed shard.
  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW(pool.run([&](int s) {
      if (s == i % kShards) throw std::runtime_error("flaky reducer");
    }),
                 std::runtime_error);
    std::array<std::int64_t, kShards> ok{};
    pool.run([&](int s) { ok[s] = 1; });
    for (int s = 0; s < kShards; ++s) ASSERT_EQ(ok[s], 1);
  }
  // Destructor joins workers; reaching scope end cleanly is part of the
  // regression (a parked worker would hang the join).
}

// Every shard throwing at once: dispatch must surface the lowest-numbered
// capture (serial order) and clear the rest.
TEST(ThreadPoolBarrier, LowestShardExceptionWinsWhenAllThrow) {
  ThreadPool pool(4);
  try {
    pool.run([](int s) {
      throw std::runtime_error("shard " + std::to_string(s));
    });
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 0");
  }
  // A later clean dispatch must not rethrow a stale capture.
  std::array<std::int64_t, 4> ran{};
  pool.run([&](int s) { ran[s] = 1; });
  for (int s = 0; s < 4; ++s) EXPECT_EQ(ran[s], 1);
}

// --- Fused two-phase dispatch (run_phases) ----------------------------------
//
// The sense-reversing barrier's hardest cases: a phase-0 throw must skip
// phase 1 on EVERY member (the delivery phase of a round may never run
// over a half-computed round), a phase-1 throw must still quiesce, member
// masks must leave non-members untouched, and the pool must stay reusable
// through all of it — under both the spinning and the parked waiter path
// (which of the two runs depends on the host's core count; the protocol
// is identical).

TEST(ThreadPoolBarrier, RunPhasesOrdersPhasesAcrossShards) {
  constexpr int kShards = 4;
  ThreadPool pool(kShards);
  std::array<std::int64_t, kShards> compute{};
  std::array<std::int64_t, kShards> deliver{};
  for (int iter = 0; iter < 200; ++iter) {
    pool.run_phases(nullptr, [&](int s, int phase) {
      if (phase == 0) {
        compute[s] += 1;
      } else {
        // The internal barrier separates the phases: every shard's phase 0
        // of this dispatch must be visible before any shard's phase 1.
        for (int t = 0; t < kShards; ++t) {
          ASSERT_EQ(compute[t], iter + 1) << "shard " << s << " phase 1 saw "
                                          << "shard " << t << " mid-compute";
        }
        deliver[s] += 1;
      }
    });
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(compute[s], 200);
    EXPECT_EQ(deliver[s], 200);
  }
}

TEST(ThreadPoolBarrier, Phase0ThrowSkipsPhase1TeamWide) {
  constexpr int kShards = 4;
  ThreadPool pool(kShards);
  for (int thrower = 0; thrower < kShards; ++thrower) {
    std::array<std::atomic<int>, kShards> phase1{};
    try {
      pool.run_phases(nullptr, [&](int s, int phase) {
        if (phase == 0 && s == thrower) {
          throw std::runtime_error("compute failed on " + std::to_string(s));
        }
        if (phase == 1) phase1[s].fetch_add(1);
      });
      FAIL() << "exception was swallowed (thrower " << thrower << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "compute failed on " + std::to_string(thrower));
    }
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(phase1[s].load(), 0)
          << "shard " << s << " delivered over a half-computed round";
    }
  }
  std::array<std::int64_t, kShards> ran{};
  pool.run([&](int s) { ran[s] = 1; });
  for (int s = 0; s < kShards; ++s) EXPECT_EQ(ran[s], 1);
}

TEST(ThreadPoolBarrier, Phase1ThrowQuiescesAndLowestShardWins) {
  ThreadPool pool(4);
  for (int i = 0; i < 50; ++i) {
    try {
      pool.run_phases(nullptr, [&](int s, int phase) {
        if (phase == 1 && s >= i % 3) {
          throw std::runtime_error("deliver " + std::to_string(s));
        }
      });
      FAIL() << "exception was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "deliver " + std::to_string(i % 3));
    }
  }
  std::array<std::int64_t, 4> ran{};
  pool.run([&](int s) { ran[s] = 1; });
  for (int s = 0; s < 4; ++s) EXPECT_EQ(ran[s], 1);
}

TEST(ThreadPoolBarrier, MemberMaskSkipsNonMembersEntirely) {
  constexpr int kShards = 8;
  ThreadPool pool(kShards);
  std::array<std::int64_t, kShards> runs{};
  // Rotate through member subsets, including the empty mask (shard 0 — the
  // caller — always participates regardless of its byte).
  for (int iter = 0; iter < 100; ++iter) {
    std::array<unsigned char, kShards> members{};
    for (int s = 0; s < kShards; ++s) {
      members[s] = (iter % (s + 1)) == 0 ? 1 : 0;
    }
    if (iter % 7 == 0) members.fill(0);
    std::array<int, kShards> expected{};
    for (int s = 0; s < kShards; ++s) expected[s] = members[s] ? 1 : 0;
    expected[0] = 1;
    std::array<std::atomic<int>, kShards> hit{};
    pool.run_phases(members.data(), [&](int s, int phase) {
      if (phase == 0) hit[s].fetch_add(1);
    });
    for (int s = 0; s < kShards; ++s) {
      ASSERT_EQ(hit[s].load(), expected[s]) << "iter " << iter << " shard " << s;
      runs[s] += hit[s].load();
    }
  }
  EXPECT_EQ(runs[0], 100);  // caller ran every dispatch
}

TEST(ThreadPoolBarrier, ThrowingMemberWithMaskedTeamStaysReusable) {
  constexpr int kShards = 4;
  ThreadPool pool(kShards);
  std::array<unsigned char, kShards> members{1, 0, 1, 0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_THROW(pool.run_phases(members.data(),
                                 [&](int s, int phase) {
                                   if (phase == 0 && s == 2) {
                                     throw std::runtime_error("member threw");
                                   }
                                 }),
                 std::runtime_error);
    std::array<std::int64_t, kShards> ok{};
    pool.run([&](int s) { ok[s] = 1; });
    for (int s = 0; s < kShards; ++s) ASSERT_EQ(ok[s], 1) << "iter " << i;
  }
}

TEST(ThreadPoolBarrier, SingleThreadRunPhasesPropagatesDirectly) {
  ThreadPool pool(1);
  int deliver = 0;
  EXPECT_THROW(pool.run_phases(nullptr,
                               [&](int, int phase) {
                                 if (phase == 0) throw std::runtime_error("x");
                                 deliver = 1;
                               }),
               std::runtime_error);
  EXPECT_EQ(deliver, 0);  // phase 1 skipped after a phase-0 throw
  pool.run_phases(nullptr, [&](int, int phase) {
    if (phase == 1) deliver = 2;
  });
  EXPECT_EQ(deliver, 2);
}

// --- Parity fixture --------------------------------------------------------

void expect_stats(const RunStats& s, std::int64_t rounds, std::int64_t msgs,
                  std::int64_t words, int max_load) {
  EXPECT_EQ(s.rounds, rounds);
  EXPECT_EQ(s.messages_sent, msgs);
  EXPECT_EQ(s.words_sent, words);
  EXPECT_EQ(s.max_edge_load, max_load);
}

void expect_tag(const MetricsRegistry& metrics, int tag, std::int64_t msgs,
                std::int64_t words) {
  EXPECT_EQ(metrics.tag_messages(tag), msgs) << "tag " << tag;
  EXPECT_EQ(metrics.tag_words(tag), words) << "tag " << tag;
}

// FNV-1a over a walk gather's schedule: every cluster's delivered ids in
// delivery order, then every vertex's first-arrival list (vertex, port,
// round) in vertex order.
std::uint64_t gather_schedule_hash(const GatherResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t word) {
    const auto u = static_cast<std::uint64_t>(word);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& ids : r.delivered_ids) {
    mix(static_cast<std::int64_t>(ids.size()));
    for (const std::int64_t id : ids) mix(id);
  }
  for (const std::vector<FirstArrival>& list : r.first_arrivals) {
    mix(static_cast<std::int64_t>(list.size()));
    for (const FirstArrival& a : list) {
      mix(a.at);
      mix(a.port);
      mix(a.round);
    }
  }
  return h;
}

// The seven non-walk phases were recorded by running this exact workload on
// the pre-arena simulator (per-vertex vector mailboxes, commit 85a25a5). The
// walk gather's values (its RunStats, the run totals, the round count, the
// kTagWalkToken row and the per-edge sums) were recorded when the walkers
// moved to WalkStream, on the unchanged round loop. Its schedule hash was
// recorded from the whole walks the gather logged before it kept only
// first arrivals, each list derived from its walk. Every
// later change to the simulator must reproduce RunStats and every
// registry aggregate exactly, and so must any net options (num_threads
// included) layered on top. Returns the workload's whole event stream, as
// a flight recorder that drops nothing dumps it.
std::string run_parity_workload(NetworkOptions net) {
  graph::Rng rng(77);
  const Graph g = graph::random_maximal_planar(64, rng);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    cluster[v] = v % 3 == 0 ? 0 : 1;
  }
  MetricsRegistry metrics;
  net.metrics = &metrics;
  FlightRecorder::Options keep_all;
  keep_all.ring_capacity = 1 << 16;
  keep_all.keep_rounds = 1 << 30;
  FlightRecorder recorder(keep_all);
  net.trace = &recorder;

  const auto leaders = elect_cluster_leaders(g, cluster, net);
  expect_stats(leaders.stats, 4, 542, 1084, 1);

  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of, net);
  expect_stats(tree.stats, 4, 258, 258, 1);

  const auto orient = orient_cluster_edges(g, cluster, 5, net);
  expect_stats(orient.stats, 4, 181, 181, 1);

  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 100 + v}});
  }
  GatherOptions gopt;
  gopt.seed = 1234;
  gopt.net = net;
  gopt.net.bandwidth_tokens = 4;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, gopt);
  expect_stats(gather.stats, 100, 477, 1431, 3);
  EXPECT_TRUE(gather.complete);
  // Equal totals could hide a reordering of tokens or stream draws, equal
  // schedules cannot.
  EXPECT_EQ(gather_schedule_hash(gather), 0x083abc233c6b49a2ULL);

  // The tree climb sends the walks' wire form [id, payload...]: one word a
  // message more than the bare payloads it sent before (154 words).
  const auto tg =
      tree_gather(g, cluster, leaders.leader_of, tree.parent, tokens, net);
  expect_stats(tg.stats, 7, 77, 231, 1);

  std::vector<std::int64_t> values(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) values[v] = v;
  const auto cc = convergecast_fold(g, cluster, leaders.leader_of, tree.parent,
                                    values, Fold::kSum, net);
  expect_stats(cc.stats, 4, 114, 171, 1);

  std::vector<std::int64_t> leader_values(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leaders.leader_of[v] == v) leader_values[v] = 5000 + v;
  }
  const auto bc =
      broadcast_from_leaders(g, cluster, leaders.leader_of, leader_values, net);
  expect_stats(bc.stats, 4, 258, 258, 1);

  const auto dc = check_cluster_diameter(g, cluster, 8, net);
  expect_stats(dc.stats, 27, 6966, 6966, 1);

  expect_stats(metrics.totals(), 154, 8873, 10580, 3);
  EXPECT_EQ(metrics.runs_observed(), 8);
  EXPECT_EQ(metrics.rounds().size(), 154u);

  expect_tag(metrics, kTagElection, 542, 1084);
  expect_tag(metrics, kTagBfs, 258, 258);
  expect_tag(metrics, kTagOrientation, 181, 181);
  expect_tag(metrics, kTagWalkToken, 477, 1431);
  expect_tag(metrics, kTagBroadcast, 258, 258);
  expect_tag(metrics, kTagConvergecast, 114, 171);
  expect_tag(metrics, kTagDiameter, 6966, 6966);
  expect_tag(metrics, kTagTreeToken, 77, 231);

  std::int64_t edge_messages = 0;
  int peak = 0;
  const auto edges = metrics.top_edges(-1);
  for (const auto& e : edges) {
    edge_messages += e.messages;
    peak = std::max(peak, e.peak_load);
  }
  EXPECT_EQ(edge_messages, 8873);
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(edges.size(), 258u);

  EXPECT_EQ(recorder.events_dropped(), 0);
  std::ostringstream dump;
  recorder.dump_jsonl(dump);
  return dump.str();
}

TEST(SubstrateParity, TraceAndStatsMatchPreArenaRecording) {
  run_parity_workload({});
}

// Known answers for the walkers' stream: the first draws of vertex 0's
// stream in the parity gather (gather seed 1234, per-vertex seed
// 1234 ^ γ·1), computed from WalkStream's definition by an independent
// implementation. Any change to these values changes every walk.
TEST(SubstrateParity, WalkStreamFirstDrawsAreFixed) {
  constexpr std::uint64_t kSeed = 1234 ^ 0x9e3779b97f4a7c15ULL;
  WalkStream raw(kSeed);
  EXPECT_EQ(raw.next(), 0x72e2965d089ad614ULL);
  EXPECT_EQ(raw.next(), 0x60acbbd9f4d3e828ULL);
  EXPECT_EQ(raw.next(), 0x77e8e8b1fdfed079ULL);
  EXPECT_EQ(raw.next(), 0x53b90e172ef02220ULL);
  EXPECT_EQ(raw.next(), 0xab7d5c9bc3c44b1dULL);
  // A walker's coin is a draw's top bit and its port the high word of the
  // draw times the port count, one draw each, from the same stream.
  WalkStream walker(kSeed);
  EXPECT_FALSE(walker.lazy());
  EXPECT_EQ(walker.pick(6), 2u);
  EXPECT_FALSE(walker.lazy());
  EXPECT_EQ(walker.pick(6), 1u);
  EXPECT_TRUE(walker.lazy());
  EXPECT_TRUE(walker.lazy());
  EXPECT_FALSE(walker.lazy());
  EXPECT_EQ(walker.pick(4), 2u);
}

// The event-stream TraceSink used to be serial-only; sharded trace lanes
// (DESIGN.md §18) made it thread-count-invariant. The parity recording
// must hold — every aggregate, and the event stream byte for byte — at
// every worker count, because lanes replay in the same sorted
// (sender-slot, receiver-port) order the serial loop delivers in.
TEST(SubstrateParity, TraceMatchesPreArenaRecordingAtEveryThreadCount) {
  const std::string serial = run_parity_workload({});
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    NetworkOptions net;
    net.num_threads = threads;
    EXPECT_EQ(run_parity_workload(net), serial);
  }
}

}  // namespace
}  // namespace ecd::congest
