// Substrate microbenchmark — the CONGEST simulator hot loop itself, with no
// algorithmic work on top (EXPERIMENTS.md "Simulator substrate").
//
// Three traffic shapes over grid graphs at n ∈ {1k, 10k, 100k}:
//   flood      one wavefront: every vertex forwards a value once, then the
//              run drains (rounds ≈ diameter, messages = 2m). Dominated by
//              per-round fixed costs — the delivery scan and termination
//              detection.
//   ping_pong  full-duplex saturation: every vertex sends on every port for
//              a fixed number of rounds (messages/round = 2m). Dominated by
//              per-message costs — send, enforcement, delivery.
//   tree       convergecast-style: one token per vertex climbs a BFS tree at
//              bandwidth 4 — the gather traffic pattern of Theorem 2.6.
//
// Every workload takes a trailing `threads` axis (NetworkOptions::
// num_threads); rows at threads > 1 measure the sharded parallel round
// loop (DESIGN.md §11) against the serial baseline on the same graph, and
// allocs_per_round must stay ~0 either way (per-shard scratch is
// preallocated in the Network constructor).
//
// Counters:
//   rounds_per_sec     simulated rounds per wall-clock second
//   messages_per_sec   delivered messages per wall-clock second
//   allocs_per_round   heap allocations per round during one steady-state
//                      run (warm Network, excludes per-run algorithm
//                      construction); ~0 is the substrate's contract
//
// The Network is constructed outside the timed loop and reused across
// iterations — the framework and the distributed decomposition run dozens
// of Network::run calls on the same graph, so cached-topology reuse is the
// representative usage, not a bench trick.
#define ECD_BENCH_COUNT_ALLOCS 1

#include <chrono>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/trace.h"

namespace {

using namespace ecd;
using congest::Context;
using congest::Message;
using congest::Network;
using congest::NetworkOptions;
using congest::RunStats;
using congest::VertexAlgorithm;
using graph::VertexId;

// One wavefront: the source announces, everyone forwards on first receipt.
class FloodAlgo final : public VertexAlgorithm {
 public:
  explicit FloodAlgo(bool is_source) : value_(is_source ? 1 : -1) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) {
      if (value_ != -1) forward(ctx);
      return;
    }
    if (value_ != -1) return;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      if (!ctx.inbox(p).empty()) {
        value_ = ctx.inbox(p)[0].words[0];
        forward(ctx);
        return;
      }
    }
  }
  bool finished() const override { return started_ && !sent_; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{value_}});
  }
  std::int64_t value_;
  bool started_ = false;
  bool sent_ = false;
};

// Saturation: every directed edge carries one message every round.
class PingPongAlgo final : public VertexAlgorithm {
 public:
  explicit PingPongAlgo(int rounds) : rounds_(rounds) {}

  void round(Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) sink_ += m.words[0];
    }
    if (ctx.round() < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{static_cast<std::int64_t>(ctx.id()), sink_ & 1}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }

 private:
  int rounds_;
  std::int64_t sink_ = 0;
  bool done_ = false;
};

// One token per vertex climbs to the root along a host-computed BFS tree.
class TreeClimbAlgo final : public VertexAlgorithm {
 public:
  TreeClimbAlgo(bool is_root, int parent_port, int bandwidth)
      : is_root_(is_root), parent_port_(parent_port), bandwidth_(bandwidth) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) held_ += m.words[0];
    }
    if (ctx.round() == 0) held_ += 1;  // this vertex's own token
    if (is_root_) {
      absorbed_ += held_;
      held_ = 0;
      return;
    }
    if (parent_port_ < 0) return;
    // Tokens are fungible counts here: ship up to `bandwidth_` per round,
    // one message per token, like the gather primitives do.
    while (held_ > 0 && ctx.round() > 0) {
      int batch = 0;
      while (held_ > 0 && batch < bandwidth_) {
        ctx.send(parent_port_, {{1}});
        --held_;
        ++batch;
        sent_ = true;
      }
      break;
    }
  }
  bool finished() const override { return started_ && held_ == 0 && !sent_; }

 private:
  bool is_root_;
  int parent_port_;
  int bandwidth_;
  std::int64_t held_ = 0;
  std::int64_t absorbed_ = 0;
  bool started_ = false;
  bool sent_ = false;
};

graph::Graph grid_of(int n) {
  int side = 1;
  while (side * side < n) ++side;
  return graph::grid(side, side);
}

// Host-side BFS from vertex 0: parent port of every vertex (-1 for root).
std::vector<int> bfs_parent_ports(const graph::Graph& g) {
  std::vector<int> parent_port(g.num_vertices(), -1);
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<VertexId> queue{0};
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    const auto nbrs = g.neighbors(v);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      const VertexId u = nbrs[p];
      if (seen[u]) continue;
      seen[u] = 1;
      // u's parent is v; find u's port back to v.
      const auto unbrs = g.neighbors(u);
      for (int q = 0; q < static_cast<int>(unbrs.size()); ++q) {
        if (unbrs[q] == v) parent_port[u] = q;
      }
      queue.push_back(u);
    }
  }
  return parent_port;
}

template <typename MakeAlgos>
void run_substrate_bench(benchmark::State& state, const graph::Graph& g,
                         const NetworkOptions& opt, MakeAlgos make_algos) {
  // --ecd_profile: attach the execution profiler to the run under test so
  // the snapshot records barrier-wait fraction and load imbalance next to
  // the throughput counters. Off by default — the committed baselines (and
  // the ≤5% overhead budget they gate) are unprofiled.
  congest::ExecutionProfiler profiler;
  NetworkOptions run_opt = opt;
  if (bench::profile_requested()) run_opt.profiler = &profiler;
  Network net(g, run_opt);
  std::int64_t total_rounds = 0;
  std::int64_t total_messages = 0;
  for (auto _ : state) {
    auto algos = make_algos();
    const RunStats stats = net.run(algos);
    total_rounds += stats.rounds;
    total_messages += stats.messages_sent;
  }
  // Steady-state allocation audit: one warm-up run (grows
  // algorithm-internal capacity), then count a second run. Algorithm
  // construction happens outside the scope — the substrate's allocations
  // are what is on trial.
  std::int64_t allocs = 0;
  std::int64_t audit_rounds = 0;
  {
    auto warm = make_algos();
    net.run(warm);
    auto audit = make_algos();
    bench::AllocScope scope;
    audit_rounds = net.run(audit).rounds;
    allocs = scope.delta();
  }
  state.counters["n"] = g.num_vertices();
  state.counters["m"] = g.num_edges();
  state.counters["threads"] = opt.num_threads;
  bench::register_rss_counter(state);
  if (bench::profile_requested()) {
    bench::register_profile_counters(state, profiler);
  }
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(total_rounds), benchmark::Counter::kIsRate);
  state.counters["messages_per_sec"] = benchmark::Counter(
      static_cast<double>(total_messages), benchmark::Counter::kIsRate);
  bench::register_alloc_counter(state, allocs, audit_rounds);
}

// The trailing `metrics` axis on the flood / ping-pong shapes attaches an
// always-on MetricsRegistry (DESIGN.md §13); metrics:1 vs metrics:0 on the
// same (n, threads) row is the E15 overhead measurement, and
// allocs_per_round must stay ~0 with metrics on — the registry's round
// path is array arithmetic on buffers preallocated by the Network, plus one
// per-round sample in a vector that grows by doubling.
void BM_Flood(benchmark::State& state) {
  const graph::Graph g = grid_of(static_cast<int>(state.range(0)));
  NetworkOptions opt;
  opt.num_threads = static_cast<int>(state.range(1));
  congest::MetricsRegistry metrics;
  if (state.range(2) != 0) opt.metrics = &metrics;
  run_substrate_bench(state, g, opt, [&] {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<FloodAlgo>(v == 0));
    }
    return algos;
  });
}

void BM_PingPong(benchmark::State& state) {
  const graph::Graph g = grid_of(static_cast<int>(state.range(0)));
  const int rounds = static_cast<int>(state.range(1));
  NetworkOptions opt;
  opt.num_threads = static_cast<int>(state.range(2));
  congest::MetricsRegistry metrics;
  if (state.range(3) != 0) opt.metrics = &metrics;
  run_substrate_bench(state, g, opt, [&] {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<PingPongAlgo>(rounds));
    }
    return algos;
  });
}

// Fault-injection overhead (DESIGN.md §12): the saturation workload under a
// mixed drop/duplicate/delay plan. `fault_permille` sets the drop and delay
// probabilities to f/1000 (duplicates at half that); 0 disables the plan and
// measures the zero-overhead fault-free path of the same binary. The
// steady-state allocation contract holds with faults on — delayed messages
// and duplicate copies take chunks from the mailbox reservation made at
// construction, never from the heap — so
// allocs_per_round must stay ~0 on every row.
void BM_FaultyPingPong(benchmark::State& state) {
  const graph::Graph g = grid_of(static_cast<int>(state.range(0)));
  const int rounds = static_cast<int>(state.range(1));
  const int permille = static_cast<int>(state.range(2));
  NetworkOptions opt;
  opt.num_threads = static_cast<int>(state.range(3));
  if (permille > 0) {
    opt.faults.seed = 0xb1a5;
    opt.faults.drop_probability = permille / 1000.0;
    opt.faults.duplicate_probability = permille / 2000.0;
    opt.faults.delay_probability = permille / 1000.0;
    opt.faults.max_delay_rounds = 2;
  }
  run_substrate_bench(state, g, opt, [&] {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<PingPongAlgo>(rounds));
    }
    return algos;
  });
}

// Trace overhead (DESIGN.md §18, EXPERIMENTS.md E20): the flood workload
// with a FlightRecorder attached — full event stream or sampled
// (round_period 16 × vertex_stride 8) — against an untraced reference
// measured inline on the same graph and thread count. The reported
// `trace_overhead_pct` is informational: tools/bench_compare prints it but
// never gates on it (it is a ratio of two measurements, so its run-to-run
// noise is the sum of both). The FlightRecorder is the sink on trial
// because it is the bounded one the simulator can afford at n = 10^6;
// allocs_per_round must stay ~0 with it attached, traced or sampled.
void BM_TracedFlood(benchmark::State& state) {
  const graph::Graph g = grid_of(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  const bool sampled = state.range(2) != 0;
  const auto make_algos = [&] {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<FloodAlgo>(v == 0));
    }
    return algos;
  };
  using clock = std::chrono::steady_clock;
  const auto run_ns = [](Network& net, auto& algos) {
    const auto t0 = clock::now();
    net.run(algos);
    return std::chrono::duration<double, std::nano>(clock::now() - t0)
        .count();
  };

  NetworkOptions base;
  base.num_threads = threads;

  // Untraced reference: same graph, same thread count, null sink.
  double ref_ns = 0;
  {
    Network ref(g, base);
    auto warm = make_algos();
    ref.run(warm);
    constexpr int kRefRuns = 3;
    for (int i = 0; i < kRefRuns; ++i) {
      auto algos = make_algos();
      ref_ns += run_ns(ref, algos);
    }
    ref_ns /= kRefRuns;
  }

  congest::FlightRecorder recorder;
  NetworkOptions opt = base;
  opt.trace = &recorder;
  if (sampled) {
    opt.trace_config.round_period = 16;
    opt.trace_config.vertex_stride = 8;
  }
  Network net(g, opt);
  std::int64_t total_rounds = 0;
  std::int64_t total_messages = 0;
  std::int64_t runs = 0;
  double traced_ns = 0;
  for (auto _ : state) {
    auto algos = make_algos();
    const auto t0 = clock::now();
    const RunStats stats = net.run(algos);
    traced_ns +=
        std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    total_rounds += stats.rounds;
    total_messages += stats.messages_sent;
    ++runs;
  }
  std::int64_t allocs = 0;
  std::int64_t audit_rounds = 0;
  {
    auto warm = make_algos();
    net.run(warm);
    auto audit = make_algos();
    bench::AllocScope scope;
    audit_rounds = net.run(audit).rounds;
    allocs = scope.delta();
  }
  state.counters["n"] = g.num_vertices();
  state.counters["m"] = g.num_edges();
  state.counters["threads"] = threads;
  state.counters["sampled"] = sampled ? 1 : 0;
  bench::register_rss_counter(state);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(total_rounds), benchmark::Counter::kIsRate);
  state.counters["messages_per_sec"] = benchmark::Counter(
      static_cast<double>(total_messages), benchmark::Counter::kIsRate);
  bench::register_alloc_counter(state, allocs, audit_rounds);
  if (runs > 0 && ref_ns > 0) {
    const double per_run = traced_ns / static_cast<double>(runs);
    state.counters["trace_overhead_pct"] = (per_run - ref_ns) / ref_ns * 100.0;
  }
}

void BM_TreeClimb(benchmark::State& state) {
  const graph::Graph g = grid_of(static_cast<int>(state.range(0)));
  const std::vector<int> parent_port = bfs_parent_ports(g);
  NetworkOptions opt;
  opt.bandwidth_tokens = 4;
  opt.num_threads = static_cast<int>(state.range(1));
  run_substrate_bench(state, g, opt, [&] {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<TreeClimbAlgo>(
          v == 0, parent_port[v], opt.bandwidth_tokens));
    }
    return algos;
  });
}

// The n sweep stays single-threaded (the serial baseline every other
// experiment rides on); the threads sweep runs at the large n rows, where
// per-round work amortizes the barrier, plus one small-n row the CI smoke
// exercises at 4 threads. The n ≥ 1M rows are the multi-million-vertex
// axis (EXPERIMENTS.md E17): flood at 1M/5M is the sparse-round fast
// path's home turf — its wavefront touches ~2·side vertices per round, so
// the per-round cost is the worklist, not n — and the threads sweep at 1M
// is the speedup curve the CI scaling smoke asserts on multi-core runners.
BENCHMARK(BM_Flood)
    ->ArgNames({"n", "threads", "metrics"})
    ->Args({1024, 1, 0})
    ->Args({10240, 1, 0})
    ->Args({102400, 1, 0})
    ->Args({1048576, 1, 0})
    ->Args({5000000, 1, 0})
    ->Args({1024, 4, 0})
    ->Args({102400, 2, 0})
    ->Args({102400, 4, 0})
    ->Args({102400, 8, 0})
    ->Args({1048576, 2, 0})
    ->Args({1048576, 4, 0})
    ->Args({1048576, 8, 0})
    ->Args({5000000, 4, 0})
    ->Args({1024, 1, 1})
    ->Args({1024, 4, 1})
    ->Args({102400, 1, 1})
    ->Args({102400, 4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PingPong)
    ->ArgNames({"n", "rounds", "threads", "metrics"})
    ->Args({1024, 64, 1, 0})
    ->Args({10240, 64, 1, 0})
    ->Args({102400, 16, 1, 0})
    ->Args({1048576, 8, 1, 0})
    ->Args({1024, 64, 4, 0})
    ->Args({102400, 16, 2, 0})
    ->Args({102400, 16, 4, 0})
    ->Args({102400, 16, 8, 0})
    ->Args({1048576, 8, 4, 0})
    ->Args({1024, 64, 1, 1})
    ->Args({1024, 64, 4, 1})
    ->Args({102400, 16, 1, 1})
    ->Args({102400, 16, 4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FaultyPingPong)
    ->ArgNames({"n", "rounds", "fault_permille", "threads"})
    ->Args({1024, 64, 0, 1})
    ->Args({1024, 64, 10, 1})
    ->Args({1024, 64, 100, 1})
    ->Args({10240, 64, 10, 1})
    ->Args({1024, 64, 10, 4})
    ->Args({102400, 16, 10, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
// The E20 grid: serial vs sharded (threads 4) vs sampled, at the 100k CI
// row and the n = 10^6 row the experiment reports.
BENCHMARK(BM_TracedFlood)
    ->ArgNames({"n", "threads", "sampled"})
    ->Args({102400, 1, 0})
    ->Args({102400, 4, 0})
    ->Args({1048576, 1, 0})
    ->Args({1048576, 4, 0})
    ->Args({1048576, 1, 1})
    ->Args({1048576, 4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TreeClimb)
    ->ArgNames({"n", "threads"})
    ->Args({1024, 1})
    ->Args({10240, 1})
    ->Args({102400, 1})
    ->Args({1024, 4})
    ->Args({102400, 2})
    ->Args({102400, 4})
    ->Args({102400, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

ECD_BENCH_MAIN("network");
