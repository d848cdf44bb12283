// Zero-allocation audit for the sparse-round fast path (DESIGN.md §15).
//
// The round loop's zero-allocation contract predates the sparse fast path;
// this binary proves the new machinery keeps it: per-shard active-vertex
// worklists, the member census, orphan delivery assignment, and the
// serial-fallback branch all run out of storage sized in the Network
// constructor / warmed by the first run. The flood workload is chosen so a
// single run crosses the sparse-serial threshold in both directions — the
// active set starts at n (dispatching rounds) and drains to a handful of
// unfinished vertices (fallback rounds) — so the audit covers the dispatch
// path, the fallback path, and the transition between them.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/sweep.h"
#include "src/graph/generators.h"
#include "src/seq/mis.h"
#include "tests/oracles/return_oracles.h"

// --- Counting allocation hooks ----------------------------------------------
// Same replacement pattern as profiler_test.cpp / bench_util.h: one TU per
// binary defines the global operator new/delete. Next to the call count, the
// hooks add up the bytes of every block allocated and freed, as the
// allocator sized it (malloc_usable_size), so allocated − freed is the heap
// in use, and keep the largest block allocated since the last reset.

namespace {
std::atomic<std::int64_t>& allocation_counter() {
  static std::atomic<std::int64_t> count{0};
  return count;
}
std::atomic<std::int64_t>& allocated_byte_counter() {
  static std::atomic<std::int64_t> bytes{0};
  return bytes;
}
std::atomic<std::int64_t>& freed_byte_counter() {
  static std::atomic<std::int64_t> bytes{0};
  return bytes;
}
std::atomic<std::int64_t>& largest_block_counter() {
  static std::atomic<std::int64_t> bytes{0};
  return bytes;
}
std::int64_t allocation_count() {
  return allocation_counter().load(std::memory_order_relaxed);
}
std::int64_t allocated_bytes() {
  return allocated_byte_counter().load(std::memory_order_relaxed);
}
std::int64_t freed_bytes() {
  return freed_byte_counter().load(std::memory_order_relaxed);
}
// The largest block allocated since the previous call.
std::int64_t take_largest_block() {
  return largest_block_counter().exchange(0, std::memory_order_relaxed);
}
void* counted_malloc(std::size_t size) {
  allocation_counter().fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
  allocated_byte_counter().fetch_add(usable, std::memory_order_relaxed);
  std::int64_t largest =
      largest_block_counter().load(std::memory_order_relaxed);
  while (usable > largest &&
         !largest_block_counter().compare_exchange_weak(
             largest, usable, std::memory_order_relaxed)) {
  }
  return p;
}
// Kept out of line: once inlined into a test body, GCC sees a pointer from
// operator new reach free() and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) {
  freed_byte_counter().fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::VertexId;

// BFS flood from one corner: a vertex steps every round until the wave has
// passed it, so the active set shrinks monotonically from n toward zero and
// the run's tail sits below any reasonable sparse-serial threshold.
class FloodAlgo final : public VertexAlgorithm {
 public:
  explicit FloodAlgo(bool is_source) : source_(is_source) {}

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

std::vector<std::unique_ptr<VertexAlgorithm>> make_flood(const Graph& g) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<FloodAlgo>(v == 0));
  }
  return algos;
}

TEST(SparseAlloc, SteadyStateStaysOffTheHeapAcrossBothRoundPaths) {
  for (const int threads : {1, 4}) {
    const Graph g = graph::grid(32, 32);  // 1024 vertices, wave length ~62
    ExecutionProfiler profiler;
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.profiler = &profiler;
    // Default threshold (256): the flood starts with all 1024 vertices
    // queued and finishes with single-digit stragglers, so one run visits
    // dispatching rounds, fallback rounds, and the crossover.
    Network net(g, opt);
    // Warm run: worklist capacity and algorithm-internal vectors grow
    // here; the audited run must then stay off the heap.
    auto warm = make_flood(g);
    net.run(warm);
    auto audit = make_flood(g);
    const std::int64_t before = allocation_count();
    net.run(audit);
    const std::int64_t delta = allocation_count() - before;
    EXPECT_EQ(delta, 0) << threads << " threads";

    if (threads > 1) {
      // The audit only means something if the run really exercised both
      // paths: every worker lane must have both computed rounds (dispatch
      // path) and sat out rounds as idle (serial fallback).
      const ExecutionProfiler::Summary s = profiler.summary();
      ASSERT_EQ(s.num_shards, threads);
      for (int shard = 1; shard < s.num_shards; ++shard) {
        EXPECT_GT(s.shards[shard].totals.phase_ns[kProfileCompute], 0)
            << "lane " << shard << " never took the dispatch path";
        EXPECT_GT(s.shards[shard].totals.phase_ns[kProfileIdle], 0)
            << "lane " << shard << " never sat out a fallback round";
      }
    }
  }
}

// A churn plan widens the port CSR at construction (preallocated capacity
// for the schedule's inserts) and the round loop applies events, drops
// dead-port sends, and purges stranded traffic — all of which must stay
// inside the constructor's storage. The reseed is part of the warm-run
// protocol the sweep engine uses, so it is audited too.
TEST(SparseAlloc, ChurnRoundsStayOffTheHeap) {
  for (const int threads : {1, 4}) {
    const Graph g = graph::grid(32, 32);
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.faults.seed = 1;
    opt.faults.drop_probability = 0.02;  // message faults alongside churn
    opt.faults.churn =
        ecd::core::make_churn_plan(g, /*topo_seed=*/3, /*churn_permille=*/80);
    Network net(g, opt);
    auto warm = make_flood(g);
    const RunStats warm_stats = net.run(warm);
    ASSERT_GT(warm_stats.churn_events, 0);
    auto audit = make_flood(g);
    const std::int64_t before = allocation_count();
    net.set_fault_seed(2);
    const RunStats stats = net.run(audit);
    const std::int64_t delta = allocation_count() - before;
    EXPECT_EQ(delta, 0) << threads << " threads";
    EXPECT_EQ(stats.churn_events, warm_stats.churn_events);
  }
}

// Sends `budget` sequence-numbered messages on every port in every round
// until round `rounds`, and allocates nothing itself.
class SaturateAlgo final : public VertexAlgorithm {
 public:
  SaturateAlgo(int budget, std::int64_t rounds)
      : budget_(budget), rounds_(rounds) {}

  void round(Context& ctx) override {
    done_ = ctx.round() >= rounds_;
    if (done_) return;
    for (std::int64_t k = 0; k < budget_; ++k) {
      for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{k}});
    }
  }
  bool finished() const override { return done_; }

 private:
  int budget_;
  std::int64_t rounds_;
  bool done_ = false;
};

// An enforced network reserves each mailbox region's worst case at
// construction: every port it serves filling its budget through the
// doubling chain of chunks, delayed messages and duplicate copies
// included. So even a first run, with no warm-up, stays off the heap
// while every port carries its full budget each round. A reservation short
// of the worst case, or a region that is never rewound, would have to add
// blocks mid-run.
TEST(SparseAlloc, EnforcedMailboxesNeedNoWarmUpRun) {
  const Graph g = graph::grid(16, 16);
  constexpr int kBudget = 3;
  for (const int threads : {1, 4}) {
    for (const bool faulted : {false, true}) {
      NetworkOptions opt;
      opt.bandwidth_tokens = kBudget;
      opt.num_threads = threads;
      opt.sparse_serial_threshold = 0;  // dispatch every round to the shards
      if (faulted) {
        opt.faults.seed = 5;
        opt.faults.drop_probability = 0.05;
        opt.faults.duplicate_probability = 0.3;
        opt.faults.delay_probability = 0.3;
        opt.faults.max_delay_rounds = 3;
      }
      Network net(g, opt);
      std::vector<std::unique_ptr<VertexAlgorithm>> algos;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        algos.push_back(std::make_unique<SaturateAlgo>(kBudget, 40));
      }
      const std::int64_t before = allocation_count();
      const RunStats stats = net.run(algos);
      const std::int64_t delta = allocation_count() - before;
      EXPECT_EQ(delta, 0) << threads << " threads, faulted " << faulted;
      EXPECT_GT(stats.messages_sent, 0);
      if (faulted) {
        EXPECT_GT(stats.messages_duplicated, 0);
        EXPECT_GT(stats.messages_delayed, 0);
      }
    }
  }
}

// Tracing is part of the same contract (DESIGN.md §18): the sharded trace
// lanes, the replay merge index, and the flight recorder's ring are all
// sized in the constructor, so a traced round — full, sampled, or both, at
// any thread count — allocates nothing after warm-up. FlightRecorder is
// the bounded sink this audit covers.
TEST(SparseAlloc, TracedRoundsStayOffTheHeapInEveryTraceMode) {
  struct Mode {
    const char* name;
    TraceConfig config;
  };
  const Mode modes[] = {
      {"full", {}},
      {"sampled", {/*round_period=*/4, /*vertex_stride=*/2, /*tag_filter=*/-1}},
  };
  for (const int threads : {1, 4}) {
    for (const Mode& mode : modes) {
      const Graph g = graph::grid(32, 32);
      FlightRecorder::Options ropt;
      ropt.ring_capacity = 1 << 12;
      ropt.keep_rounds = 16;
      FlightRecorder recorder(ropt);
      NetworkOptions opt;
      opt.num_threads = threads;
      opt.trace = &recorder;
      opt.trace_config = mode.config;
      Network net(g, opt);
      auto warm = make_flood(g);
      net.run(warm);
      auto audit = make_flood(g);
      const std::int64_t before = allocation_count();
      net.run(audit);
      const std::int64_t delta = allocation_count() - before;
      EXPECT_EQ(delta, 0) << mode.name << " @ " << threads << " threads";
      EXPECT_GT(recorder.events_retained(), 0);
    }
  }
}

// The 16x16 single-cluster gather the walk-gather audits share: one
// registration token per vertex, at the framework's default budget.
struct GridGather {
  GridGather() {
    leader_of = elect_cluster_leaders(g, cluster).leader_of;
    tokens.resize(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      tokens[v].push_back({v, {v, -1, 0, 0}});
    }
    opt.net.bandwidth_tokens = 8;  // ceil(log2 n)
  }
  GatherResult run() const {
    return random_walk_gather(g, cluster, leader_of, tokens, opt);
  }

  Graph g = graph::grid(16, 16);
  std::vector<int> cluster = std::vector<int>(g.num_vertices(), 0);
  std::vector<VertexId> leader_of;
  std::vector<std::vector<GatherToken>> tokens;
  GatherOptions opt;
};

// The walk gather's data path (DESIGN.md §19): tokens wait and travel in
// wire form, the held/kept lists and port loads are reused every round, and
// a hop records at most one first arrival. What is left is set-up (ports,
// algorithms, seen-bits, the Network, the result) and amortized growth of
// the lists: far below 0.1 allocations per simulated message. The
// per-token vector path this replaced made about 4.4.
TEST(SparseAlloc, WalkGatherAllocatesFarLessThanOncePerMessage) {
  const GridGather grid;
  const std::int64_t before = allocation_count();
  const GatherResult r = grid.run();
  const std::int64_t allocs = allocation_count() - before;
  ASSERT_TRUE(r.complete);
  ASSERT_GT(r.stats.messages_sent, 0);
  EXPECT_LT(static_cast<double>(allocs) /
                static_cast<double>(r.stats.messages_sent),
            0.1)
      << allocs << " allocations for " << r.stats.messages_sent
      << " messages";
}

// The reliable gather on the same grid without faults, in one epoch: its
// walkers keep their held and kept lists, port loads and accepted sets from
// round to round, and payloads wait in WordBuffers, so it too stays far
// below 0.1 allocations per message. With a std::deque of held tokens, a
// load vector a round, a payload vector a copy and a std::set node a hop, it
// made 3.98 (2,137,884 for 536,917 messages).
TEST(SparseAlloc, ReliableGatherAllocatesFarLessThanOncePerMessage) {
  const GridGather grid;
  ReliableGatherOptions opt;
  opt.net = grid.opt.net;
  opt.epoch_rounds = 1 << 16;
  const std::int64_t before = allocation_count();
  const ReliableGatherResult r = reliable_walk_gather(
      grid.g, grid.cluster, grid.leader_of, grid.tokens, opt);
  const std::int64_t allocs = allocation_count() - before;
  ASSERT_TRUE(r.gather.complete);
  ASSERT_EQ(r.epochs, 1);
  EXPECT_LT(static_cast<double>(allocs) /
                static_cast<double>(r.gather.stats.messages_sent),
            0.1)
      << allocs << " allocations for " << r.gather.stats.messages_sent
      << " messages";
}

// A hop records at most one first arrival, of 12 bytes, and only where a
// registration reaches a vertex the first time; the other tokens record
// nothing. With the framework's mix on a grid, one registration and two
// edge tokens a vertex, dropping the records must free at most one byte
// per hop of the gather, growth slack and allocator rounding included. The
// byte logs of whole walks this replaced kept about two bytes a hop of
// every token. (Registrations alone record about 2.2 bytes a hop here.)
TEST(SparseAlloc, FirstArrivalRecordsStoreAtMostOneBytePerHop) {
  GridGather grid;
  for (VertexId v = 0; v < grid.g.num_vertices(); ++v) {
    grid.tokens[v].push_back({v, {v, v + 1, 1, 1}});
    grid.tokens[v].push_back({v, {v, v + 16, 1, 1}});
  }
  GatherResult r = grid.run();
  ASSERT_TRUE(r.complete);
  // Every message of the walk gather is one hop of one token.
  const std::int64_t hops = r.stats.messages_sent;
  const auto array_bytes =
      static_cast<std::int64_t>(malloc_usable_size(r.first_arrivals.data()));
  const std::int64_t before = freed_bytes();
  std::vector<std::vector<FirstArrival>>().swap(r.first_arrivals);
  const std::int64_t record_bytes = freed_bytes() - before - array_bytes;
  EXPECT_LE(record_bytes, hops)
      << record_bytes << " record bytes for " << hops << " hops";
}

// Everything the walk gather allocates, less what the same Network
// allocates built alone and less the first-arrival lists, is the gather's
// own state: ports, walkers, token lists, seen-bits, mailbox growth and the
// delivered result. The lists are measured by appending every record again
// to a fresh list, so they grow through the same sizes as in the gather. On
// this grid that state came to 2,280 bytes a vertex with eight-byte walk
// streams and to 4,771 with a std::mt19937_64 per walker (2,504 bytes
// each). The bound, 3 KiB, sits between the two: a walker engine of more
// than about 800 bytes fails it.
TEST(SparseAlloc, WalkGatherStateStaysSmallPerVertex) {
  const GridGather grid;
  const std::int64_t gather_before = allocated_bytes();
  const GatherResult r = grid.run();
  const std::int64_t gather_bytes = allocated_bytes() - gather_before;
  ASSERT_TRUE(r.complete);

  const std::int64_t network_before = allocated_bytes();
  { const Network network(grid.g, grid.opt.net); }
  const std::int64_t network_bytes = allocated_bytes() - network_before;

  const std::int64_t lists_before = allocated_bytes();
  for (const std::vector<FirstArrival>& list : r.first_arrivals) {
    std::vector<FirstArrival> again;
    for (const FirstArrival& a : list) again.push_back(a);
  }
  const std::int64_t list_bytes = allocated_bytes() - lists_before;

  const double per_vertex =
      static_cast<double>(gather_bytes - network_bytes - list_bytes) /
      grid.g.num_vertices();
  EXPECT_LT(per_vertex, 3072.0)
      << gather_bytes << " gather bytes, " << network_bytes
      << " network bytes, " << list_bytes << " record bytes";
}

// The tree gather shares the walks' data path but not their seen bits: a
// climb reaches each vertex once, so its records need no filter. On a
// one-cluster 64x64 grid the walks' table is one block of n·⌈n/64⌉ words,
// 2 MiB, which the walk gather allocates before its first round. The tree
// gather on the same cluster, with its BFS tree, allocates no block that
// large.
TEST(SparseAlloc, TreeGatherAllocatesNoSeenBitTable) {
  const Graph g = graph::grid(64, 64);
  const int n = g.num_vertices();
  const std::vector<int> cluster(n, 0);
  const auto leader_of = elect_cluster_leaders(g, cluster).leader_of;
  const auto parent = build_cluster_bfs_trees(g, cluster, leader_of).parent;
  std::vector<std::vector<GatherToken>> tokens(n);
  for (VertexId v = 0; v < n; ++v) tokens[v].push_back({v, {v, -1, 0, 0}});
  const std::int64_t table_bytes =
      std::int64_t{n} * ((n + 63) / 64) * std::int64_t{sizeof(std::uint64_t)};

  GatherOptions walk;
  walk.net.max_rounds = 1;  // the table is allocated; stop there
  take_largest_block();
  EXPECT_THROW(random_walk_gather(g, cluster, leader_of, tokens, walk),
               std::runtime_error);
  EXPECT_GE(take_largest_block(), table_bytes);

  const GatherResult r = tree_gather(g, cluster, leader_of, parent, tokens);
  const std::int64_t largest = take_largest_block();
  ASSERT_TRUE(r.complete);
  EXPECT_LT(largest, table_bytes) << largest << "-byte block";
}

// Whole walks' records: on the 16x16 grid, one simple random walk from
// every vertex to the corner of highest id, the t-th hop of each in round
// t, and the first arrivals each records.
GatherResult walks_to_corner(const Graph& g, std::int64_t& hops) {
  const VertexId corner = g.num_vertices() - 1;
  graph::Rng rng(41);
  GatherResult gather;
  hops = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<TokenHop> walk;
    std::int32_t round = 0;
    for (VertexId at = v; at != corner; ++round) {
      const auto nbrs = g.neighbors(at);
      at = nbrs[std::uniform_int_distribution<std::size_t>(
          0, nbrs.size() - 1)(rng)];
      walk.push_back({at, round});
    }
    hops += static_cast<std::int64_t>(walk.size());
    gather.first_arrivals.push_back(first_arrival_reference(g, v, walk));
  }
  return gather;
}

// The return steps back through every list in the same scratch: one entry
// per path step and one path mark per vertex. So lists that hold whole
// walks' first arrivals cost it no more allocations than lists that hold
// their paths alone: on these walks to the corner, whose paths keep under a
// tenth of their hops, the two returns make exactly as many.
TEST(SparseAlloc, PathReturnCutsWholeWalksWithoutAllocatingPerWalk) {
  const Graph g = graph::grid(16, 16);
  std::int64_t walked = 0;
  const GatherResult walks = walks_to_corner(g, walked);
  GatherResult paths = walks;
  std::int64_t path_hops = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    paths.first_arrivals[v] = first_arrival_path(g, v, walks.first_arrivals[v]);
    path_hops += static_cast<std::int64_t>(paths.first_arrivals[v].size());
  }
  const std::vector<std::int64_t> words(g.num_vertices(), 1);
  std::vector<std::int64_t> allocs, messages;
  for (const GatherResult* gather : {&walks, &std::as_const(paths)}) {
    const std::int64_t before = allocation_count();
    const PathReturnResult back = return_along_paths(g, *gather, words);
    allocs.push_back(allocation_count() - before);
    messages.push_back(back.stats.messages_sent);
  }
  EXPECT_EQ(allocs[0], allocs[1]);
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_EQ(messages[1], path_hops);
  EXPECT_LT(messages[0] * 10, walked);
}

// What the return keeps per path hop is a 12-byte entry (origin, port back,
// forward round) at the vertex and an 8-byte key in its port's heap: a
// reply's word has one slot per origin, and the build steps back through
// each list twice instead of keeping the steps. So emptying every second
// origin's list changes the bytes a return allocates by about 20 a hop it
// removes; the bound of 24 leaves room for the allocator's rounding, and a
// word in every entry would exceed it.
TEST(SparseAlloc, PathReturnAllocatesAtMostTwentyFourBytesPerHop) {
  const Graph g = graph::grid(16, 16);
  std::int64_t walked = 0;
  GatherResult paths = walks_to_corner(g, walked);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    paths.first_arrivals[v] = first_arrival_path(g, v, paths.first_arrivals[v]);
  }
  GatherResult half = paths;
  std::int64_t removed = 0;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) {
    removed += static_cast<std::int64_t>(half.first_arrivals[v].size());
    half.first_arrivals[v].clear();
  }
  const std::vector<std::int64_t> words(g.num_vertices(), 1);
  std::vector<std::int64_t> bytes, messages;
  for (const GatherResult* gather : {&paths, &half}) {
    const std::int64_t before = allocated_bytes();
    const PathReturnResult back = return_along_paths(g, *gather, words);
    bytes.push_back(allocated_bytes() - before);
    messages.push_back(back.stats.messages_sent);
  }
  ASSERT_EQ(messages[0] - messages[1], removed);
  ASSERT_GT(removed, 1000);
  EXPECT_LE(bytes[0] - bytes[1], 24 * removed)
      << static_cast<double>(bytes[0] - bytes[1]) / removed
      << " bytes a hop over " << removed << " hops";
}

// reverse_delivery keeps one key per replied path hop, so what it allocates
// (scratch and result together) grows with those hops and the vertices,
// not with the hops of the walks: on this grid the paths keep under a
// twentieth of the walk gather's hops.
TEST(SparseAlloc, ReverseDeliveryAllocatesLinearlyInTokensRoundsAndVertices) {
  const GridGather grid;
  const GatherResult r = grid.run();
  ASSERT_TRUE(r.complete);
  const int n = grid.g.num_vertices();
  const std::vector<std::vector<std::int64_t>> reply(n, {1});
  std::int64_t path_hops = 0;
  for (VertexId v = 0; v < n; ++v) {
    path_hops += static_cast<std::int64_t>(
        first_arrival_path(grid.g, v, r.first_arrivals[v]).size());
  }
  const std::int64_t before = allocated_bytes();
  const ReverseDeliveryResult back = reverse_delivery(grid.g, r, reply);
  const std::int64_t bytes = allocated_bytes() - before;
  ASSERT_TRUE(back.load_ok);
  ASSERT_EQ(back.stats.messages_sent, path_hops);
  EXPECT_LT(20 * path_hops, r.stats.messages_sent);
  const std::int64_t bound = 96 * (path_hops + n);
  EXPECT_LT(bytes, bound) << bytes << " bytes for " << path_hops
                          << " path hops and " << n << " vertices";
}

// The path return (DESIGN.md §19) sizes its routing tables, heaps and word
// slots before its run, so a round allocates nothing: on the same records,
// a cap of one reply per edge a round takes more rounds than the gather's
// own peak and makes exactly as many allocations. What it does allocate is
// one algorithm a vertex and a few dozen tables and Network buffers: the
// replies, the words received and the hops fill flat arrays. A received
// list per vertex came to more than three allocations a vertex.
TEST(SparseAlloc, PathReturnAllocatesOnlyAtSetUp) {
  const GridGather grid;
  GatherResult r = grid.run();
  ASSERT_TRUE(r.complete);
  const std::vector<std::int64_t> words(grid.g.num_vertices(), 1);
  std::int64_t path_hops = 0;
  for (VertexId v = 0; v < grid.g.num_vertices(); ++v) {
    path_hops += static_cast<std::int64_t>(
        first_arrival_path(grid.g, v, r.first_arrivals[v]).size());
  }
  std::vector<std::int64_t> allocs, rounds;
  for (const int peak : {r.stats.max_edge_load, 1}) {
    r.stats.max_edge_load = peak;
    const std::int64_t before = allocation_count();
    const PathReturnResult back = return_along_paths(grid.g, r, words);
    allocs.push_back(allocation_count() - before);
    rounds.push_back(back.stats.rounds);
    ASSERT_EQ(back.stats.messages_sent, path_hops);
    ASSERT_EQ(back.stats.max_edge_load, peak);
  }
  EXPECT_GT(rounds[1], rounds[0]);
  EXPECT_EQ(allocs[1], allocs[0])
      << rounds[0] << " and " << rounds[1] << " rounds";
  EXPECT_LT(allocs[0], 2 * grid.g.num_vertices()) << allocs[0];
}

// The leader's exact MIS search (DESIGN.md §20) sizes its bitsets, degree
// array, undo trail and current/best sets before the first node, so a search
// node allocates nothing: a 400k-node search makes exactly as many
// allocations as a 100k-node one.
TEST(SparseAlloc, ExactMisSearchAllocatesOnlyAtSetup) {
  graph::Rng rng(1);
  const Graph g = graph::random_maximal_planar(500, rng);
  std::vector<std::int64_t> allocs;
  for (const std::int64_t budget : {100'000, 400'000}) {
    const std::int64_t before = allocation_count();
    const bool finished = seq::max_independent_set_exact(g, budget).has_value();
    allocs.push_back(allocation_count() - before);
    // Running out means the search used its whole budget of nodes.
    EXPECT_FALSE(finished) << "budget " << budget;
  }
  EXPECT_EQ(allocs[0], allocs[1]);
  EXPECT_LE(allocs[1], 16);
}

}  // namespace
}  // namespace ecd::congest
