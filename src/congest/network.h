// Synchronous message-passing simulator for the CONGEST model.
//
// Vertices host VertexAlgorithm instances and proceed in synchronized
// rounds (§1 of the paper): every round each vertex reads the messages
// delivered on its ports, computes locally, and emits at most
// `bandwidth_tokens` messages of at most kMaxMessageWords words per
// incident edge direction. Violations throw CongestionError — the test
// suite uses this to prove the framework's algorithms really fit CONGEST.
//
// Performance contract (DESIGN.md "Simulator performance"): the steady
// state of a run allocates nothing. Topology (the directed-port CSR and the
// reverse-port map) is built once in the Network constructor and reused by
// every run on that Network; mailboxes are two buffers that trade roles
// each round, in which every port's messages form one contiguous run
// claimed from a per-shard region as traffic arrives (a send is one move,
// into its receiver's run; memory follows the messages in flight, not
// ports × budget); and termination is an O(1) counter check, not a
// per-round scan. One round loop serves every NetworkOptions::num_threads
// value: it steps contiguous vertex shards, bulk-synchronous-parallel when
// there are several (DESIGN.md §11) and inline on the calling thread when
// there is one, and its results are bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/congest/fault.h"
#include "src/congest/message.h"
#include "src/congest/thread_pool.h"
#include "src/graph/graph.h"

namespace ecd::congest {

class TraceSink;           // src/congest/trace.h
class MetricsRegistry;     // src/congest/metrics.h
class ExecutionProfiler;   // src/congest/profiler.h
class Network;

class CongestionError : public std::runtime_error {
 public:
  enum class Kind {
    kBandwidth,    // per-edge per-round token budget exceeded
    kMessageSize,  // a single message exceeded kMaxMessageWords
  };

  using std::runtime_error::runtime_error;
  CongestionError(Kind kind, std::int64_t round, graph::VertexId from,
                  graph::VertexId to, int used, int budget);

  Kind kind() const { return kind_; }
  std::int64_t round() const { return round_; }
  graph::VertexId from() const { return from_; }  // sender (edge tail)
  graph::VertexId to() const { return to_; }      // receiver (edge head)
  int used() const { return used_; }              // tokens or words attempted
  int budget() const { return budget_; }          // the limit that was hit

 private:
  Kind kind_ = Kind::kBandwidth;
  std::int64_t round_ = -1;
  graph::VertexId from_ = graph::kInvalidVertex;
  graph::VertexId to_ = graph::kInvalidVertex;
  int used_ = 0;
  int budget_ = 0;
};

// Sampling filters for an attached TraceSink (DESIGN.md §18). Every field
// is a pure function of (round, receiver vertex, message tag) — never of
// the thread count or delivery order — so a sampled trace is bit-identical
// at every num_threads value. The defaults keep every event, which is the
// exact stream the PR 1 fixtures were recorded against.
struct TraceConfig {
  // Emit per-event callbacks (and on_round_end) only for rounds where
  // round % round_period == 0. <= 1 keeps every round.
  std::int64_t round_period = 1;
  // Emit delivery events (on_message / on_edge_load) only for receivers
  // with id % vertex_stride == 0. <= 1 keeps every vertex. Churn purge
  // events are not strided — a purge is a rare, load-bearing event.
  int vertex_stride = 1;
  // When >= 0, on_message fires only for messages with exactly this tag.
  // on_edge_load still covers the whole port (edge loads are per-edge
  // facts, not per-tag ones).
  int tag_filter = -1;

  bool round_sampled(std::int64_t round) const {
    return round_period <= 1 || round % round_period == 0;
  }
  bool vertex_sampled(graph::VertexId v) const {
    return vertex_stride <= 1 || v % vertex_stride == 0;
  }
  bool tag_sampled(int tag) const { return tag_filter < 0 || tag == tag_filter; }
};

struct NetworkOptions {
  // Messages allowed per directed edge per round.
  int bandwidth_tokens = 1;
  // Hard stop: an algorithm that has not terminated after executing
  // max_rounds compute rounds throws (it failed to terminate).
  std::int64_t max_rounds = 2'000'000;
  // When false, message sizes and token budgets are unbounded — the LOCAL
  // model. Used by baselines to exhibit the LOCAL–CONGEST gap.
  bool enforce_bandwidth = true;
  // Observer for round/edge/message events (src/congest/trace.h). Null by
  // default: the run loop takes no virtual calls and behaves exactly as
  // before. Works at every num_threads value (DESIGN.md §18): with worker
  // threads, delivery records per-shard event lanes that replay on the
  // caller thread at the round barrier in sender-(vertex, port) order, so
  // the event stream is byte-identical across thread counts.
  TraceSink* trace = nullptr;
  // Sampling filters for `trace` (ignored when trace is null). The
  // defaults deliver the full event stream. They thin the event stream
  // only: `metrics` sees every round whatever they say.
  TraceConfig trace_config;
  // Aggregate metrics (src/congest/metrics.h, DESIGN.md §13): per-shard
  // accumulator rows reduce at the round barrier, so snapshots are
  // bit-identical across thread counts. The round path allocates only
  // when the registry's per-round sample list grows (amortized). Null: one
  // predictable branch per delivered port.
  MetricsRegistry* metrics = nullptr;
  // Threads stepping vertices each round (DESIGN.md §11). 1 (the default)
  // runs every round on the calling thread; 0 resolves to
  // std::thread::hardware_concurrency() clamped so a tiny graph never
  // spawns workers it cannot feed (each shard gets a minimum amount of
  // per-round weight — idle workers only add barrier latency); k > 1
  // shards vertices across k workers. Results
  // — RunStats and every vertex's final state — are bit-identical for
  // every value.
  int num_threads = 1;
  // Sparse fast path (DESIGN.md §15): a parallel Network executes a round
  // on the calling thread alone — no dispatch, no barriers — when at most
  // this many vertices are active (round fusion for near-empty rounds).
  // The choice is a pure function of the round's active count, which is
  // thread-count independent, so results and metrics stay bit-identical.
  // 0 disables the fallback.
  int sparse_serial_threshold = 256;
  // Deterministic fault injection (DESIGN.md §12). Disabled by default
  // (faults.enabled() == false): the run loop takes the exact fault-free
  // path. Fault schedules are a pure function of (faults.seed, round, port,
  // slot) and therefore bit-identical across num_threads values.
  FaultPlan faults;
  // Wall-clock execution profiler (src/congest/profiler.h, DESIGN.md §14):
  // when set, every round's shard phases — compute, delivery, fault pass,
  // reduction, barrier wait — are timestamped into the profiler's
  // per-shard ring buffers. Purely observational: results, metrics and
  // trace snapshots are bit-identical with or without it, and the round
  // path stays allocation-free. Works at every num_threads value.
  ExecutionProfiler* profiler = nullptr;
  // Externally owned worker pool (DESIGN.md §16). When set and its
  // num_threads() equals the Network's resolved shard count, the Network
  // dispatches rounds on it instead of spawning a private pool — so a sweep
  // over many Networks at the same thread count pays thread creation once,
  // not once per Network. A mismatched pool on a parallel Network falls
  // back to an owned pool; the fallback is counted in the `pool_fallbacks`
  // MetricsRegistry counter (when `metrics` is attached) so a sweep that
  // silently stopped sharing threads shows up in its run reports. The
  // caller must keep the pool alive for the Network's lifetime and must
  // not run two Networks on one pool concurrently (a pool serves one
  // dispatch at a time).
  ThreadPool* shared_pool = nullptr;
};

// Opens a named phase on the observers of `net` for the rest of the
// enclosing scope: a span on the trace sink and a phase on the metrics
// registry, both closed by the destructor. Phases nest, so a primitive's
// phase sits inside the pipeline phase that called it. No observer attached:
// a no-op.
class PhaseScope {
 public:
  PhaseScope(const NetworkOptions& net, std::string_view name);
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope();

 private:
  TraceSink* trace_;
  MetricsRegistry* metrics_;
  std::string name_;  // the span's name, kept only for a trace sink
};

struct RunStats {
  std::int64_t rounds = 0;
  std::int64_t messages_sent = 0;
  std::int64_t words_sent = 0;
  // Highest number of messages a single directed edge carried in one round.
  // At most bandwidth_tokens when enforcement is on (a vertex may send
  // fewer tokens than its budget, so equality is not guaranteed);
  // unbounded when enforcement is off. Injected duplicates and re-delivered
  // delayed messages count toward the load of the round they reach the
  // receiver in, so a faulted run may exceed bandwidth_tokens here.
  int max_edge_load = 0;
  // Fault-injection outcomes (all zero when NetworkOptions::faults is
  // disabled). messages_sent/words_sent count what was actually delivered:
  // dropped traffic is excluded, duplicate copies are included once each.
  std::int64_t messages_dropped = 0;
  std::int64_t messages_duplicated = 0;  // extra copies delivered
  std::int64_t messages_delayed = 0;     // messages chosen for delay
  std::int64_t vertices_crashed = 0;     // crash events that fired
  // Topology-churn outcomes (all zero when FaultPlan::churn is empty).
  std::int64_t churn_events = 0;    // scheduled topology events that fired
  // Messages discarded by churn: sends attempted on a dead edge plus
  // pending (delayed or undelivered) messages on a port whose edge died.
  std::int64_t messages_purged = 0;
  // Wall-clock duration of the run (steady_clock). The only
  // non-deterministic field: everything above is bit-identical across
  // thread counts, this one is a measurement. MetricsRegistry snapshots
  // deliberately exclude it (DESIGN.md §13/§14); run reports surface it in
  // their separate "wall" section.
  std::int64_t duration_ns = 0;

  // Combines statistics the way consecutive (or per-shard partial) runs
  // combine: every count adds, max_edge_load takes the max. Used verbatim
  // by the round loop's barrier reduction and RoundLedger::add_measured.
  RunStats& operator+=(const RunStats& other) {
    rounds += other.rounds;
    messages_sent += other.messages_sent;
    words_sent += other.words_sent;
    if (other.max_edge_load > max_edge_load) {
      max_edge_load = other.max_edge_load;
    }
    messages_dropped += other.messages_dropped;
    messages_duplicated += other.messages_duplicated;
    messages_delayed += other.messages_delayed;
    vertices_crashed += other.vertices_crashed;
    churn_events += other.churn_events;
    messages_purged += other.messages_purged;
    duration_ns += other.duration_ns;
    return *this;
  }
};

// Read-only view of the messages delivered on one port this round. Valid
// only for the duration of the round() call that observed it: the backing
// storage is recycled when the round ends.
class PortInbox {
 public:
  PortInbox() = default;
  PortInbox(const Message* data, int size) : data_(data), size_(size) {}

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Message& operator[](int i) const { return data_[i]; }
  const Message* begin() const { return data_; }
  const Message* end() const { return data_ + size_; }

 private:
  const Message* data_ = nullptr;
  int size_ = 0;
};

// Per-vertex view of the network. Ports are indices into the vertex's
// incident edge list, aligned with Graph::neighbors(v).
class Context {
 public:
  graph::VertexId id() const { return id_; }
  int num_ports() const { return static_cast<int>(neighbors_.size()); }
  // CONGEST standard assumption: a vertex knows its neighbors' ids.
  graph::VertexId neighbor(int port) const { return neighbors_[port]; }
  std::int64_t round() const { return round_; }
  int num_network_vertices() const { return n_; }

  // Messages delivered on `port` at the start of this round, in the order
  // the neighbor sent them (per-port FIFO).
  PortInbox inbox(int port) const;

  // Whether the edge behind `port` currently carries traffic. Always true
  // on a churn-free network. Under a churn plan (FaultPlan::churn) the
  // port table covers every edge the plan can ever make live, so ports of
  // deleted or not-yet-inserted edges exist but are dead: sends on them
  // are silently discarded (counted in RunStats::messages_purged) and
  // nothing arrives on them.
  bool port_live(int port) const;

  // Queues a message on `port`; delivered next round. Throws
  // CongestionError if the per-edge budget or message size is exceeded,
  // std::out_of_range if `port` is not one of this vertex's ports.
  void send(int port, Message message);

 private:
  friend class Network;
  graph::VertexId id_ = graph::kInvalidVertex;
  int n_ = 0;
  std::int64_t round_ = 0;
  Network* net_ = nullptr;
  int base_ = 0;  // this vertex's first directed-port index (CSR offset)
  int shard_ = 0;  // the shard that steps this vertex and claims its sends
  std::span<const graph::VertexId> neighbors_;
};

class VertexAlgorithm {
 public:
  virtual ~VertexAlgorithm() = default;
  // Round 0 happens before any message exchange.
  virtual void round(Context& ctx) = 0;
  // The network stops when every vertex reports finished. A finished vertex
  // keeps receiving rounds (messages may still arrive) but typically no-ops.
  //
  // Contract: finished() must be a pure function of this algorithm's own
  // state, and a vertex that reported finished and then executes a round
  // with no incoming messages must still report finished. The run loop
  // maintains its termination counter from per-round transitions and only
  // re-queries vertices that were unfinished or received mail; debug builds
  // assert the quiescence half of the contract.
  virtual bool finished() const = 0;
};

class Network {
 public:
  // Builds the directed-port topology (CSR offsets, reverse-port map) and
  // the mailbox regions once; run() reuses them, so invoking many runs on
  // one Network — as the framework phases and the decomposition recursion
  // do on a fixed graph — pays topology setup a single time.
  Network(const graph::Graph& g, NetworkOptions options = {});

  // Runs `algorithms` (one per vertex) to completion. Returns round and
  // message statistics. Throws if max_rounds is exceeded.
  RunStats run(std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms);

  // Restores the Network to the state a fresh construction would leave it
  // in, without reconstructing anything: clears mailboxes and injected
  // prefixes left by a previous (possibly aborted) run, rewinds the crash
  // schedule, re-primes the round-0 worklists, and zeroes the staged
  // metrics scratch (edge/tag/critical-path accumulators). run() calls
  // this on entry, so back-to-back runs on one Network are already
  // bit-identical to runs on fresh Networks; the method is public so reuse
  // engines (src/core/sweep.h) and tests can state — and assert — the
  // no-carry-over contract explicitly. O(state actually dirtied), zero
  // allocation.
  void reset_for_run();

  // Replaces the fault-schedule seed for subsequent runs. Fault decisions
  // are a pure stateless function of (seed, round, port, slot) and the
  // seed participates in no preallocation (slot capacities, the crash
  // schedule and the churn schedule depend only on the plan's
  // probabilities and event lists), so swapping the seed between runs on
  // one Network is exactly equivalent to constructing a fresh Network with
  // the new seed. The plan is re-validated on the way through — the same
  // check construction applies — and a disabled plan (no fault schedule to
  // reseed) throws std::invalid_argument instead of silently recording a
  // seed that no run would ever consult.
  void set_fault_seed(std::uint64_t seed);

  const graph::Graph& graph() const { return g_; }

 private:
  friend class Context;

  // Clears any mailbox state left by a previous (possibly aborted) run.
  void reset_mailboxes();
  // Messages held on directed port gp of buffer b: its chunk's run.
  PortInbox port_messages(int b, int gp) const;
  // Empties directed port gp of buffer b: its messages and, with faults
  // on, its injected prefix. Leaves the owner's mail flag to the caller.
  void clear_port(int b, int gp);
  // Slots in the chunk of a port that holds `count` >= 1 messages: the
  // first chunk is one slot and each growth doubles it, clamped to
  // max_chunk_. A run that reaches this size fills its chunk.
  int chunk_capacity(int count) const;
  // Points port gp of buffer b at `size` fresh slots at the tail of shard
  // s's region of that buffer (the caller's shard: see regions_).
  void claim_chunk(int b, int s, int gp, int size);
  // Moves the `used` slots of port gp's full chunk in buffer b (and, with
  // faults on, the stages of its injected prefix) to a chunk twice as
  // large at the tail of shard s's region.
  void grow_chunk(int b, int s, int gp, int used);
  // Clears stale worklist/crash-cursor state and queues every vertex for
  // round 0 (round 0 precedes any message exchange, so all n vertices
  // step; from round 1 on the worklists carry only active vertices).
  void prime_worklists();
  // The round loop behind run(), at every shard count.
  RunStats run_rounds(std::vector<std::unique_ptr<VertexAlgorithm>>& algos);
  // True when shard s has a crash event scheduled at or before round r
  // that its compute phase has not yet retired.
  bool crash_due(int s, std::int64_t r) const {
    return crash_cursor_[s] < crash_sched_[s].size() &&
           crash_sched_[s][crash_cursor_[s]].round <= r;
  }
  // Round phase one: steps shard s's *active* vertices for round r — the
  // worklist filled by last round's compute (still unfinished) and
  // delivery (received mail) — retires due crash events, and records
  // finished() transitions in the shard's accumulator. Refills the
  // opposite parity's worklist with vertices still unfinished. Profiler
  // brackets are the caller's responsibility (the sparse fast path
  // profiles a whole fused round on lane 0 instead).
  void compute_shard(int s, std::int64_t r,
                     std::vector<std::unique_ptr<VertexAlgorithm>>& algos);
  // Round phase two (after the barrier): retires shard t's ports of the
  // buffer being vacated (this round's inboxes, next round's outboxes) and
  // rewinds shard t's region of it, then applies fault decisions for round
  // r and accounts buffer `out` traffic delivered to shard t's vertices,
  // queueing every mail receiver on shard t's next-round worklist. Runs on
  // whichever worker was assigned shard t this round (the owner when t is
  // a member, a member picking up an orphan otherwise). Returns the
  // fault-pass subtotal in nanoseconds (0 unless both faults and the
  // profiler are active).
  std::int64_t deliver_shard(int t, int out, std::int64_t r);
  // Applies every churn event scheduled at or before round r that has not
  // fired yet (caller thread, between rounds — before the member census,
  // so a joined vertex is counted and dispatched this round). Updates the
  // run's unfinished counter for node leave/join and leaves the number of
  // events fired in round_churn_events_. Touches only preallocated state.
  void apply_churn(std::int64_t r,
                   std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms,
                   int& unfinished);

  // Per-shard phase outputs, reduced on the caller thread at the round
  // barrier via RunStats::operator+=; padded so workers never share a
  // cache line. `stats.rounds` stays 0 — the reduction adds 1 round per
  // barrier.
  struct alignas(64) ShardAccum {
    RunStats stats;
    int unfinished_delta = 0;
    // Net change in messages held back for later delivery: +1 per fresh
    // delay, -1 per delayed message that finally reached its receiver.
    std::int64_t injected_delta = 0;
    // Sends attempted on a dead port this round (churn only). Staged
    // separately from stats.messages_purged because the compute phase
    // writes it while deliver_shard resets the stats block; the barrier
    // reduction folds it in.
    std::int64_t churn_sends_dropped = 0;
  };

  // Delivery-phase fault hook (DESIGN.md §12): applies options_.faults to
  // receiver port rs of buffer `out` for round r — compacting surviving
  // slots in place, appending duplicate copies, and moving delayed
  // messages into the opposite buffer (next round's outbox) — then leaves
  // the port's final delivered count in the mailbox bookkeeping. Runs on
  // the worker delivering rs's shard t, which is also the one writer of
  // shard t's regions in this phase; every decision is keyed by (seed,
  // round, port, slot), so the outcome is thread-count independent.
  void apply_port_faults(int t, int rs, int out, std::int64_t r,
                         ShardAccum& acc);
  // Moves a delayed message into buffer `buf`'s port rs (owned by shard t)
  // behind any other injected messages, with `stage` remaining
  // re-delivery passes.
  void inject_delayed(int t, int buf, int rs, Message&& m, signed char stage);

  const graph::Graph& g_;
  NetworkOptions options_;
  int n_ = 0;
  int num_dir_ports_ = 0;  // 2m: one mailbox per directed edge and buffer

  // Cached topology. Directed port gp = port_base_[v] + p identifies
  // (vertex v, local port p); reverse_slot_[gp] is the directed port of the
  // same edge seen from the other endpoint — where messages sent on gp are
  // delivered. port_peer_[gp] is the neighbor on that port.
  std::vector<int> port_base_;         // size n+1 (CSR offsets)
  std::vector<int> reverse_slot_;      // size 2m
  std::vector<graph::VertexId> port_owner_;  // size 2m: vertex owning gp
  std::vector<graph::VertexId> port_peer_;   // size 2m: neighbor on gp
  std::vector<Context> contexts_;      // wired once, reused across runs

  // Double-buffered mailboxes (DESIGN.md §10): buffer in_ is this round's
  // inbox, 1 - in_ collects sends for the next round; ending a round swaps
  // the roles. chunk_[b][gp] is directed port gp's mailbox in buffer b:
  // its messages are the run slots[0, count), of which the first
  // `injected` are delayed messages placed there by the fault hook (always
  // 0 without faults). A port claims a chunk when its first message of
  // the round arrives and moves its run to a chunk twice as large when
  // that one fills, so every inbox is one FIFO run and a send is one move.
  struct Chunk {
    Message* slots = nullptr;  // stale while count == 0
    int count = 0;
    int injected = 0;
  };
  std::vector<Chunk> chunk_[2];
  // Largest chunk a port can need: the most messages one port can hold in
  // one buffer with enforcement on (sends beyond the budget throw before
  // touching memory); unbounded in the LOCAL model.
  int max_chunk_ = 1;
  // Chunks come from regions, one per (buffer, shard) at index
  // b * num_shards_ + s, filled front to back and rewound when their buffer
  // is retired. A region has one writer per phase, shard s's: its compute
  // claims chunks for the ports its vertices send on; its delivery claims
  // them for delayed messages and duplicate copies on the ports it
  // receives on, and rewinds region (in_, s) first. Blocks never move, so
  // other shards may keep writing into chunks claimed earlier. An enforced
  // network reserves, without constructing, one block per region big
  // enough for the worst case, so rounds never allocate; a LOCAL network
  // adds blocks, each twice the last, as its traffic needs them.
  struct MailBlock {
    // Capacity fixed at creation; size() is the high-water mark of
    // constructed slots, so memory is touched only as traffic reaches it.
    std::vector<Message> slots;
    std::vector<signed char> stages;  // fault networks: one per slot
  };
  struct alignas(64) MailRegion {
    std::vector<MailBlock> blocks;
    std::size_t block = 0;  // the block being filled
    std::size_t used = 0;   // slots claimed from it since the rewind
    // The block's slots [0, ready) may be claimed without a look at the
    // blocks: constructed, and cached here. 0 after a rewind.
    std::size_t ready = 0;
    Message* slots = nullptr;
    signed char* stages = nullptr;
  };
  std::vector<MailRegion> regions_;
  // Claim slow path: makes slots [used, used + size) of `region` ready,
  // constructing more of its block or moving on to the next block, which
  // a LOCAL-model network adds when none is left.
  void extend_region(MailRegion& region, std::size_t size);

  // Parallel execution (DESIGN.md §11). Vertices are statically sharded
  // into num_shards_ contiguous, degree-weighted ranges (shard_begin_ is a
  // CSR of size num_shards_ + 1); with num_shards_ == 1 every round runs
  // inline on the caller.
  // send_bucket_[gp] is the precomputed active-bucket index for a deposit
  // made on gp: sender_shard(gp) * num_shards_ + receiver_shard(gp).
  int num_shards_ = 1;
  std::vector<graph::VertexId> shard_begin_;
  std::vector<std::int32_t> send_bucket_;
  std::unique_ptr<ThreadPool> pool_;  // owned pool; null if 1 shard or shared
  // The pool rounds actually dispatch on: options_.shared_pool when it
  // matches num_shards_, otherwise pool_.get(). Null when num_shards_ == 1.
  ThreadPool* pool_ptr_ = nullptr;

  // Directed ports holding at least one message in each buffer — bounds
  // per-round cleanup and stats to the traffic that actually happened.
  // num_shards_^2 buckets per buffer: bucket s*num_shards_+t holds the
  // receiver ports that sender shard s filled on receiver shard t, so the
  // compute phase appends single-writer (only worker s touches row s) and
  // the delivery phase reads single-reader (only worker t scans column t).
  // Each bucket is reserved to its exact port-count ceiling up front, so
  // steady-state appends never allocate.
  std::vector<std::vector<int>> active_[2];

  std::vector<ShardAccum> shard_accum_;

  // Sparse fast path (DESIGN.md §15). Per buffer parity and shard, the
  // vertices that must step in the round reading that buffer: a vertex is
  // stepped in round r iff it was unfinished after round r-1 or has mail
  // delivered for round r (plus all n vertices in round 0). Compute of
  // round r consumes worklist_[in_] and appends still-unfinished vertices
  // to worklist_[out]; delivery appends mail receivers — both writers own
  // the list exclusively in their phase. queued_[b][v] dedups appends;
  // each entry is cleared when its vertex is consumed. Lists are reserved
  // to the shard's vertex count, so steady-state appends never allocate.
  std::vector<std::vector<graph::VertexId>> worklist_[2];
  std::vector<char> queued_[2];
  // Per-round membership scratch (caller-written before each dispatch):
  // member_[s] != 0 when shard s has compute work this round; non-member
  // shards are never woken (their doorbells stay untouched) and their
  // delivery work — a shard can receive fresh mail without having had
  // compute work — is picked up round-robin by the members via orphans_.
  std::vector<unsigned char> member_;
  std::vector<std::int32_t> member_rank_;  // rank among members, -1 if not
  std::vector<std::int32_t> orphans_;      // non-member shards this round
  int round_member_count_ = 0;

  // Crash-stop schedule, per shard: (round, vertex) sorted by round (one
  // event per crashed vertex — the earliest plan entry wins, matching
  // crash_round_). The compute phase retires due events so a crash fires
  // even when its vertex is idle-finished; crash_cursor_[s] is advanced by
  // shard s's compute alone.
  struct CrashSched {
    std::int64_t round = 0;
    graph::VertexId vertex = graph::kInvalidVertex;
  };
  std::vector<std::vector<CrashSched>> crash_sched_;
  std::vector<std::size_t> crash_cursor_;

  // Topology churn (DESIGN.md §17). All empty/false when
  // options_.faults.has_churn() is false — the hot paths check the cached
  // flag first. With churn, the port CSR above is built over the *union*
  // graph (every initial edge plus every edge a kEdgeInsert can make
  // live): capacity for the plan's maximum degree growth is preallocated
  // here, initial edges keep their g.neighbors(v)-aligned local ports, and
  // insert-only edges take the ports after them — so port numbering is
  // stable for surviving edges across any event sequence.
  bool churn_active_ = false;
  // Union-graph adjacency backing the contexts (the Graph's own CSR no
  // longer matches the port table when inserts exist).
  std::vector<graph::VertexId> churn_adj_;
  // Per-directed-port liveness; port_on_init_ is the pre-run state
  // (initial edges on, insert-only edges off) that reset_for_run restores.
  std::vector<char> port_on_;
  std::vector<char> port_on_init_;
  // Per-vertex presence (node leave/join); compute skips absent vertices
  // exactly like crashed ones.
  std::vector<char> present_;
  // The plan's events, endpoints pre-resolved to directed ports, sorted by
  // round (stable — plan order breaks ties). churn_cursor_ is advanced by
  // apply_churn on the caller thread alone.
  struct ChurnSched {
    std::int64_t round = 0;
    ChurnKind kind = ChurnKind::kEdgeDelete;
    graph::VertexId u = graph::kInvalidVertex;  // node events
    int gp = -1;  // edge events: the two directed ports
    int rs = -1;
  };
  std::vector<ChurnSched> churn_sched_;
  std::size_t churn_cursor_ = 0;
  // Events fired by this round's apply_churn (caller-written, folded into
  // the round stats at the barrier reduction).
  std::int64_t round_churn_events_ = 0;

  // Fault injection (DESIGN.md §12). All empty/false when
  // options_.faults.enabled() is false — the hot paths below check the
  // cached flag before touching any of it.
  bool faults_active_ = false;
  // Per vertex: first round it no longer executes (int64 max = never).
  std::vector<std::int64_t> crash_round_;
  // The first chunk_[b][gp].injected slots of port gp in buffer b hold
  // delayed messages placed there by the fault hook; fresh sends append
  // after them and the bandwidth budget applies to the fresh suffix only.
  // chunk_stages_[b][gp] points at the remaining re-delivery passes of
  // that chunk's slots, in the stages of the chunk's block.
  std::vector<signed char*> chunk_stages_[2];
  // Delayed messages currently in transit. The run loop keeps executing
  // rounds while this is nonzero so a delayed message cannot be silently
  // discarded by every vertex reporting finished before it lands.
  std::int64_t pending_injected_ = 0;

  // Always-on metrics (DESIGN.md §13). All empty when options_.metrics is
  // null; the hot paths check the cached pointer before touching any of
  // it. Edge rows are single-writer during delivery (one receiver shard
  // per port); tag rows are one cache-line-padded stride per shard; the
  // critical-path staging arrays are written only for vertices of the
  // owning shard and applied on the caller thread at the barrier, in
  // shard order, so the result is thread-count independent.
  MetricsRegistry* metrics_ = nullptr;
  // Wall-clock profiler (DESIGN.md §14); null when options_.profiler is.
  // The round loop brackets each phase with its hooks — every branch on it
  // is a cached-pointer check, like metrics_.
  ExecutionProfiler* profiler_ = nullptr;
  // Resets the per-run accumulators and opens a registry run.
  void metrics_begin_run();
  // Accounts one delivered port (shard `shard` owns the receiver) in one
  // pass over the messages: per-tag counts, per-edge totals/peak, and the
  // receiver's staged causal depth. Returns the port's delivered words so
  // the delivery loop does not walk the messages a second time.
  std::int64_t metrics_account_port(int shard, int rs, const Message* msgs,
                                    int cnt, std::int64_t r);
  // Applies the round's staged critical-path bumps (caller thread, at the
  // barrier, shards in order).
  void metrics_apply_round();
  // Reduces tag rows and edge accumulators into the registry and closes
  // the run. Not reached when the run aborts (CongestionError /
  // max_rounds) — metrics_begin_run clears stale partials instead.
  void metrics_end_run(const RunStats& stats);
  // Per receiving port, this run. One 24-byte row per port keeps the three
  // accumulators on the same cache line (they are always touched together
  // in the delivery loop).
  struct EdgeAccum {
    std::int64_t messages = 0;
    std::int64_t words = 0;
    std::int64_t peak = 0;  // max messages in a single round
  };
  std::vector<EdgeAccum> edge_accum_;
  std::vector<std::int64_t> tag_msgs_;    // num_shards_ x kMetricsTagSlots
  std::vector<std::int64_t> tag_words_;
  // Causal message depth per vertex (length of the longest message chain
  // ending at the vertex), updated once per round from the staged pending
  // values; stamp marks the round a staged depth belongs to. Depths are
  // 32-bit on purpose: a depth is bounded by the executed round count, no
  // feasible run reaches 2^31 rounds, and halving the array keeps the
  // random per-sender reads in cache on large graphs (the dominant metrics
  // cost there — see EXPERIMENTS.md E15).
  std::vector<std::int32_t> cp_depth_;
  struct CpStage {
    std::int64_t stamp = -1;
    std::int32_t depth = 0;
  };
  std::vector<CpStage> cp_stage_;
  std::vector<std::vector<graph::VertexId>> cp_touched_;  // per shard
  std::int64_t cp_run_max_ = 0;

  // Traced delivery replays ports in sender order; entries pack
  // (sender port << 32) | receiver port so the per-round sort is a plain
  // integer sort with no comparator indirection. Reserved up front (only
  // when a trace is attached).
  std::vector<std::uint64_t> trace_order_;
  // Sharded trace lanes (DESIGN.md §18): lane t collects the packed keys
  // of ports delivered to shard t this round — written by whichever worker
  // delivered shard t (exactly one per round, orphans included), so every
  // lane is single-writer. trace_replay_round drains the lanes into
  // trace_order_ at the barrier, sorts, and replays events on the caller.
  // Each lane is reserved to shard t's receiver-port count, so steady-state
  // appends never allocate.
  std::vector<std::vector<std::uint64_t>> trace_lane_;
  // Per-port purge counts staged for replay (trace + churn only): a lane
  // entry whose port is dead at replay time was a purge, and this array
  // carries how many messages it removed. Reset to 0 as each entry is
  // consumed.
  std::vector<int> trace_purged_;
  // Round-sampling check for the attached sink (false without one).
  bool trace_round_sampled(std::int64_t r) const {
    return options_.trace_config.round_sampled(r);
  }
  // Drains the lanes in shard order, sorts into sender-(vertex, port)
  // order, and replays the round's delivery events (on_message /
  // on_edge_load / on_churn_purge) on the caller thread at the barrier.
  // Reads the post-fault contents of buffer `out`, which stay intact until
  // that buffer is retired during the *next* round's delivery. Zero
  // allocation: lanes and trace_order_ are reserved at construction.
  void trace_replay_round(std::int64_t r, int out);

  // Per-vertex flag: buffer b delivers at least one message to the vertex.
  std::vector<char> mail_[2];
  int in_ = 0;

  // Per-vertex cache of finished() plus the count of unfinished vertices,
  // maintained from transitions so the stop check is O(1).
  std::vector<char> finished_;
};

// One algorithm per vertex of `g`, make(v)'s, run to completion on one
// Network; `at` holds them typed, to read their results after the run.
template <typename Algo>
struct VertexRun {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<Algo*> at;
  RunStats stats;
};

template <typename Make>
auto run_each_vertex(const graph::Graph& g, const NetworkOptions& net,
                     const Make& make) {
  using Algo =
      typename std::invoke_result_t<const Make&, graph::VertexId>::element_type;
  VertexRun<Algo> run;
  run.algos.reserve(g.num_vertices());
  run.at.reserve(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = make(v);
    run.at.push_back(a.get());
    run.algos.push_back(std::move(a));
  }
  Network network(g, net);
  run.stats = network.run(run.algos);
  return run;
}

}  // namespace ecd::congest
