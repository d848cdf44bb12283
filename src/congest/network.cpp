#include "src/congest/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <sstream>
#include <utility>

#include "src/congest/metrics.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"

// Force-inline hint for the per-port metrics accounting (hot even at modest
// n; both call sites are in this TU). Plain `inline` is not enough: GCC
// leaves the function out of line at -O2/-O3 and the call shows up in dense
// benchmarks.
#if defined(__GNUC__) || defined(__clang__)
#define ECD_METRICS_HOT __attribute__((always_inline)) inline
#else
#define ECD_METRICS_HOT inline
#endif

namespace ecd::congest {

using graph::Graph;
using graph::VertexId;

namespace {

// Slots in the first block a LOCAL-model network adds to a region; later
// blocks double.
constexpr std::size_t kFirstLocalBlock = 256;

// Minimum per-round work weight (directed ports + vertices) that justifies
// one extra shard when num_threads resolves automatically (0 = hardware
// concurrency). A worker whose shard is lighter than this spends more time
// at the round barriers than inside them.
constexpr std::int64_t kAutoShardMinWeight = 16384;

std::string describe_violation(CongestionError::Kind kind, std::int64_t round,
                               VertexId from, VertexId to, int used,
                               int budget) {
  std::ostringstream os;
  if (kind == CongestionError::Kind::kMessageSize) {
    os << "message exceeds O(log n) bits: " << used << " words (budget "
       << budget << ") on edge " << from << "->" << to << " at round "
       << round;
  } else {
    os << "per-edge per-round bandwidth exceeded: " << used
       << " tokens (budget " << budget << ") on edge " << from << "->" << to
       << " at round " << round;
  }
  return os.str();
}

}  // namespace

CongestionError::CongestionError(Kind kind, std::int64_t round,
                                 graph::VertexId from, graph::VertexId to,
                                 int used, int budget)
    : std::runtime_error(
          describe_violation(kind, round, from, to, used, budget)),
      kind_(kind),
      round_(round),
      from_(from),
      to_(to),
      used_(used),
      budget_(budget) {}

PhaseScope::PhaseScope(const NetworkOptions& net, std::string_view name)
    : trace_(net.trace), metrics_(net.metrics) {
  if (trace_) {
    name_ = name;
    trace_->on_span_begin(name_);
  }
  if (metrics_) metrics_->phase_begin(std::string(name));
}

PhaseScope::~PhaseScope() {
  if (metrics_) metrics_->phase_end();
  if (trace_) trace_->on_span_end(name_);
}

Network::Network(const Graph& g, NetworkOptions options)
    : g_(g), options_(std::move(options)), n_(g.num_vertices()) {
  // Validate even when no fault fires: a malformed plan (negative
  // probability, bad crash vertex) should fail loudly, not read as "off".
  options_.faults.validate(n_);
  faults_active_ = options_.faults.enabled();
  if (faults_active_) {
    crash_round_.assign(n_, std::numeric_limits<std::int64_t>::max());
    for (const CrashEvent& c : options_.faults.crashes) {
      crash_round_[c.vertex] = std::min(crash_round_[c.vertex], c.round);
    }
  }
  // Topology churn (DESIGN.md §17): the port CSR is built over the *union*
  // graph — every initial edge plus every edge a kEdgeInsert event can make
  // live — so inserts never reallocate anything mid-run. Extras are
  // deduplicated in first-appearance order; extra edge j gets union edge id
  // g.num_edges() + j.
  churn_active_ = options_.faults.has_churn();
  std::vector<std::pair<VertexId, VertexId>> extras;
  std::vector<int> extra_deg;
  if (churn_active_) {
    extra_deg.assign(n_, 0);
    for (const ChurnEvent& e : options_.faults.churn) {
      if (e.kind != ChurnKind::kEdgeInsert) continue;
      const VertexId a = std::min(e.u, e.v);
      const VertexId b = std::max(e.u, e.v);
      if (g.has_edge(a, b)) continue;
      bool seen = false;
      for (const auto& x : extras) {
        if (x.first == a && x.second == b) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      extras.emplace_back(a, b);
      ++extra_deg[a];
      ++extra_deg[b];
    }
  }
  // Directed-port CSR: port p of vertex v is global port port_base_[v] + p,
  // aligned with Graph::neighbors(v). A churn plan's insert-only edges take
  // the ports *after* a vertex's initial ones, so initial edges keep their
  // local port numbers — the port-stability rule surviving edges rely on.
  port_base_.resize(n_ + 1);
  port_base_[0] = 0;
  for (VertexId v = 0; v < n_; ++v) {
    port_base_[v + 1] =
        port_base_[v] + g.degree(v) + (churn_active_ ? extra_deg[v] : 0);
  }
  num_dir_ports_ = port_base_[n_];

  // Union adjacency and union incident edge ids (churn only): initial
  // neighbors first, then the insert-only extras via a per-vertex cursor.
  std::vector<graph::EdgeId> uinc;
  if (churn_active_) {
    churn_adj_.resize(num_dir_ports_);
    uinc.resize(num_dir_ports_);
    std::vector<int> cursor(n_, 0);
    for (VertexId v = 0; v < n_; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto eids = g.incident_edges(v);
      std::copy(nbrs.begin(), nbrs.end(), churn_adj_.begin() + port_base_[v]);
      std::copy(eids.begin(), eids.end(), uinc.begin() + port_base_[v]);
      cursor[v] = static_cast<int>(nbrs.size());
    }
    for (std::size_t j = 0; j < extras.size(); ++j) {
      const auto [a, b] = extras[j];
      const graph::EdgeId ue =
          static_cast<graph::EdgeId>(g.num_edges() + static_cast<int>(j));
      churn_adj_[port_base_[a] + cursor[a]] = b;
      uinc[port_base_[a] + cursor[a]] = ue;
      ++cursor[a];
      churn_adj_[port_base_[b] + cursor[b]] = a;
      uinc[port_base_[b] + cursor[b]] = ue;
      ++cursor[b];
    }
  }

  // Pair up the two directed ports of every edge: messages sent on gp are
  // delivered at reverse_slot_[gp]. Each edge is visited exactly twice in
  // the vertex sweep, so one int of scratch per edge (the first visit's
  // port) pairs them — half the temporary footprint of the old
  // pair-per-edge table, which mattered once n reached the millions.
  reverse_slot_.assign(num_dir_ports_, -1);
  port_owner_.resize(num_dir_ports_);
  {
    const int m_union = g.num_edges() + static_cast<int>(extras.size());
    std::vector<int> first_port(m_union, -1);
    for (VertexId v = 0; v < n_; ++v) {
      const graph::EdgeId* const eids = churn_active_
                                            ? uinc.data() + port_base_[v]
                                            : g.incident_edges(v).data();
      const int deg = port_base_[v + 1] - port_base_[v];
      for (int i = 0; i < deg; ++i) {
        const int gp = port_base_[v] + i;
        port_owner_[gp] = v;
        int& fp = first_port[eids[i]];
        if (fp < 0) {
          fp = gp;
        } else {
          reverse_slot_[fp] = gp;
          reverse_slot_[gp] = fp;
        }
      }
    }
  }
  port_peer_.resize(num_dir_ports_);
  for (int gp = 0; gp < num_dir_ports_; ++gp) {
    port_peer_[gp] = port_owner_[reverse_slot_[gp]];
  }
  if (churn_active_) {
    // Pre-run liveness: initial edges carry traffic, insert-only edges are
    // dead until their event fires. Every vertex starts present.
    port_on_init_.resize(num_dir_ports_);
    for (int gp = 0; gp < num_dir_ports_; ++gp) {
      port_on_init_[gp] = uinc[gp] < g.num_edges() ? 1 : 0;
    }
    port_on_ = port_on_init_;
    present_.assign(n_, 1);
  }

  contexts_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) {
    Context& ctx = contexts_[v];
    ctx.id_ = v;
    ctx.n_ = n_;
    ctx.net_ = this;
    ctx.base_ = port_base_[v];
    ctx.neighbors_ =
        churn_active_
            ? std::span<const VertexId>(churn_adj_.data() + port_base_[v],
                                        port_base_[v + 1] - port_base_[v])
            : g.neighbors(v);
  }

  // Static vertex sharding (DESIGN.md §11).
  num_shards_ = ThreadPool::resolve(options_.num_threads);
  if (options_.num_threads < 1) {
    // Automatic resolution clamps to what the graph can feed: a shard
    // below kAutoShardMinWeight of per-round work costs more in barrier
    // latency than it recovers in parallelism, so tiny graphs run with
    // fewer workers (often serially) even on wide machines.
    const std::int64_t weight = static_cast<std::int64_t>(num_dir_ports_) + n_;
    num_shards_ = static_cast<int>(std::min<std::int64_t>(
        num_shards_, std::max<std::int64_t>(1, weight / kAutoShardMinWeight)));
  }
  num_shards_ = std::min(num_shards_, std::max(1, n_));
  shard_begin_.assign(num_shards_ + 1, 0);
  {
    // Degree-weighted contiguous ranges: shard boundaries are placed on the
    // cumulative (degree + 1) prefix — ports dominate per-round work, the
    // +1 spreads low-degree vertices too.
    const std::int64_t total_weight = num_dir_ports_ + n_;
    VertexId v = 0;
    std::int64_t acc = 0;
    for (int s = 0; s < num_shards_; ++s) {
      shard_begin_[s] = v;
      const std::int64_t target = total_weight * (s + 1) / num_shards_;
      while (v < n_ && acc < target) {
        // Union degree, not g.degree(v): with a churn plan the two differ
        // and total_weight above is the union port count — mixing them
        // would skew the boundaries.
        acc += (port_base_[v + 1] - port_base_[v]) + 1;
        ++v;
      }
    }
    shard_begin_[num_shards_] = n_;
  }
  send_bucket_.resize(num_dir_ports_);
  {
    std::vector<std::int32_t> vertex_shard(n_);
    for (int s = 0; s < num_shards_; ++s) {
      for (VertexId v = shard_begin_[s]; v < shard_begin_[s + 1]; ++v) {
        vertex_shard[v] = s;
      }
    }
    for (int gp = 0; gp < num_dir_ports_; ++gp) {
      send_bucket_[gp] = vertex_shard[port_owner_[gp]] * num_shards_ +
                         vertex_shard[port_owner_[reverse_slot_[gp]]];
    }
    for (VertexId v = 0; v < n_; ++v) contexts_[v].shard_ = vertex_shard[v];
  }
  bool pool_fallback = false;
  if (num_shards_ > 1) {
    if (options_.shared_pool &&
        options_.shared_pool->num_threads() == num_shards_) {
      // Pool sharing (DESIGN.md §16): dispatch on the caller's pool instead
      // of spawning a private team. A size mismatch falls through to the
      // owned pool — the shard layout above is already fixed, and resizing
      // a shared pool under other Networks would invalidate theirs.
      pool_ptr_ = options_.shared_pool;
    } else {
      // Counted below once metrics_ is bound: a sweep whose shared pool
      // stopped matching its Networks degrades throughput invisibly
      // otherwise.
      pool_fallback = options_.shared_pool != nullptr;
      pool_ = std::make_unique<ThreadPool>(num_shards_);
      pool_ptr_ = pool_.get();
    }
  }
  shard_accum_.resize(num_shards_);

  if (options_.enforce_bandwidth) {
    max_chunk_ = std::max(1, options_.bandwidth_tokens);
    if (faults_active_ && options_.faults.has_message_faults()) {
      // Worst case per directed port with message faults on: B fresh sends,
      // up to B * max_delay_rounds delayed messages in transit ahead of
      // them, and up to B duplicate copies appended during the fault pass.
      const int delay_span = options_.faults.delay_probability > 0.0
                                 ? options_.faults.max_delay_rounds
                                 : 0;
      max_chunk_ *= delay_span + 2;
    }
  } else {
    max_chunk_ = std::numeric_limits<int>::max();
  }
  regions_.resize(2 * static_cast<std::size_t>(num_shards_));
  if (options_.enforce_bandwidth) {
    // The chunks one port claims in one buffer double up to max_chunk_,
    // so together they span at most `chain` slots. Region (b, s) serves
    // the ports shard s sends on and, with faults, the ports it receives
    // on (delayed messages, duplicate copies): one chain each.
    std::int64_t chain = 0;
    for (int c = 1;; c = chunk_capacity(c + 1)) {
      chain += c;
      if (c == max_chunk_) break;
    }
    std::vector<std::int64_t> ports(num_shards_, 0);
    for (int gp = 0; gp < num_dir_ports_; ++gp) {
      const int sender = send_bucket_[gp] / num_shards_;
      const int receiver = send_bucket_[gp] % num_shards_;
      ++ports[sender];
      if (faults_active_ && receiver != sender) ++ports[receiver];
    }
    for (int b = 0; b < 2; ++b) {
      for (int s = 0; s < num_shards_; ++s) {
        if (ports[s] == 0) continue;
        MailBlock& block =
            regions_[b * num_shards_ + s].blocks.emplace_back();
        block.slots.reserve(static_cast<std::size_t>(ports[s] * chain));
        if (faults_active_) {
          block.stages.reserve(static_cast<std::size_t>(ports[s] * chain));
        }
      }
    }
  }
  for (int b = 0; b < 2; ++b) {
    chunk_[b].assign(num_dir_ports_, Chunk{});
    mail_[b].assign(n_, 0);
    if (faults_active_) chunk_stages_[b].assign(num_dir_ports_, nullptr);
  }
  // A bucket gains at most one entry per receiver port it can be chosen
  // for, so reserving the exact port count per bucket makes steady-state
  // appends allocation-free.
  {
    std::vector<int> bucket_cap(
        static_cast<std::size_t>(num_shards_) * num_shards_, 0);
    for (int gp = 0; gp < num_dir_ports_; ++gp) ++bucket_cap[send_bucket_[gp]];
    for (int b = 0; b < 2; ++b) {
      active_[b].resize(bucket_cap.size());
      for (std::size_t i = 0; i < bucket_cap.size(); ++i) {
        active_[b][i].reserve(bucket_cap[i]);
      }
    }
  }
  if (options_.trace) {
    trace_order_.reserve(num_dir_ports_);
    // Sharded trace lanes (DESIGN.md §18): lane t holds shard t's delivered
    // ports, so its receiver-port count bounds the lane. Reserved here,
    // appends never allocate — the trace path keeps the zero-alloc round
    // contract at every thread count.
    trace_lane_.resize(num_shards_);
    for (int t = 0; t < num_shards_; ++t) {
      int ports = 0;
      for (int s = 0; s < num_shards_; ++s) {
        ports += static_cast<int>(active_[0][s * num_shards_ + t].capacity());
      }
      trace_lane_[t].reserve(ports);
    }
    if (churn_active_) trace_purged_.assign(num_dir_ports_, 0);
  }
  profiler_ = options_.profiler;
  // Lane allocation happens here, once per Network — the profiler's round
  // hooks never allocate (DESIGN.md §10 holds with profiling on).
  if (profiler_) profiler_->bind(num_shards_);
  metrics_ = options_.metrics;
  if (pool_fallback && metrics_) {
    metrics_->counter("pool_fallbacks")->increment();
  }
  if (metrics_) {
    edge_accum_.assign(num_dir_ports_, EdgeAccum{});
    const std::size_t tag_rows =
        static_cast<std::size_t>(num_shards_) * kMetricsTagSlots;
    tag_msgs_.assign(tag_rows, 0);
    tag_words_.assign(tag_rows, 0);
    cp_depth_.assign(n_, 0);
    cp_stage_.assign(n_, CpStage{});
    cp_touched_.resize(num_shards_);
    for (int s = 0; s < num_shards_; ++s) {
      // A vertex is staged at most once per round, so the shard's vertex
      // count bounds the list — reserved here, appends never allocate.
      cp_touched_[s].reserve(shard_begin_[s + 1] - shard_begin_[s]);
    }
  }
  finished_.assign(n_, 0);

  // Sparse fast path state (DESIGN.md §15): per-parity, per-shard active
  // worklists reserved to the shard's vertex count (appends never
  // allocate), the per-vertex queued flags that dedup them, and the
  // per-round membership scratch.
  for (int b = 0; b < 2; ++b) {
    worklist_[b].resize(num_shards_);
    for (int s = 0; s < num_shards_; ++s) {
      worklist_[b][s].reserve(shard_begin_[s + 1] - shard_begin_[s]);
    }
    queued_[b].assign(n_, 0);
  }
  member_.assign(num_shards_, 0);
  member_rank_.assign(num_shards_, -1);
  orphans_.reserve(num_shards_);
  // Crash events bucketed by owning shard, sorted by round: one event per
  // crashed vertex (crash_round_ already keeps the earliest plan entry),
  // ties in vertex order like the old full-sweep accounting.
  crash_sched_.resize(num_shards_);
  crash_cursor_.assign(num_shards_, 0);
  if (faults_active_) {
    for (int s = 0; s < num_shards_; ++s) {
      for (VertexId v = shard_begin_[s]; v < shard_begin_[s + 1]; ++v) {
        if (crash_round_[v] != std::numeric_limits<std::int64_t>::max()) {
          crash_sched_[s].push_back({crash_round_[v], v});
        }
      }
      std::stable_sort(crash_sched_[s].begin(), crash_sched_[s].end(),
                       [](const CrashSched& a, const CrashSched& b) {
                         return a.round < b.round;
                       });
    }
  }
  if (churn_active_) {
    churn_sched_.reserve(options_.faults.churn.size());
    for (const ChurnEvent& e : options_.faults.churn) {
      ChurnSched s;
      s.round = e.round;
      s.kind = e.kind;
      s.u = e.u;
      if (e.kind == ChurnKind::kEdgeInsert ||
          e.kind == ChurnKind::kEdgeDelete) {
        // Resolve the endpoints to the edge's two directed ports up front.
        // Every insertable edge is in the union by construction, so only a
        // delete of an edge that neither the graph nor any insert event
        // carries can miss — a plan error; fail here, not mid-run.
        int gp = -1;
        for (int p = port_base_[e.u]; p < port_base_[e.u + 1]; ++p) {
          if (churn_adj_[p] == e.v) {
            gp = p;
            break;
          }
        }
        if (gp < 0) {
          std::ostringstream os;
          os << "FaultPlan: churn deletes edge {" << e.u << ", " << e.v
             << "} which is neither in the graph nor inserted by the plan";
          throw std::invalid_argument(os.str());
        }
        s.gp = gp;
        s.rs = reverse_slot_[gp];
      }
      churn_sched_.push_back(s);
    }
    // Stable by round: plan order breaks ties, as fault.h documents.
    std::stable_sort(churn_sched_.begin(), churn_sched_.end(),
                     [](const ChurnSched& a, const ChurnSched& b) {
                       return a.round < b.round;
                     });
  }
}

// The mailbox helpers are defined ahead of their callers in this TU so the
// hot send and delivery paths inline them.
inline PortInbox Network::port_messages(int b, int gp) const {
  const Chunk& box = chunk_[b][gp];
  return PortInbox(box.slots, box.count);
}

inline void Network::clear_port(int b, int gp) {
  Chunk& box = chunk_[b][gp];
  box.count = 0;
  box.injected = 0;
}

inline int Network::chunk_capacity(int count) const {
  return static_cast<int>(std::min(std::bit_ceil(static_cast<unsigned>(count)),
                                   static_cast<unsigned>(max_chunk_)));
}

void Network::extend_region(MailRegion& region, std::size_t size) {
  for (;; ++region.block, region.used = 0) {
    if (region.block == region.blocks.size()) {
      // Only a LOCAL-model network gets here: an enforced one reserved a
      // block that holds its worst case.
      const std::size_t last = region.blocks.empty()
                                   ? kFirstLocalBlock / 2
                                   : region.blocks.back().slots.capacity();
      const std::size_t cap = std::max(2 * last, size);
      MailBlock& added = region.blocks.emplace_back();
      added.slots.reserve(cap);
      if (faults_active_) added.stages.reserve(cap);
    }
    MailBlock& block = region.blocks[region.block];
    const std::size_t end = region.used + size;
    if (end > block.slots.capacity()) continue;
    if (block.slots.size() < end) {
      // Within the reserved capacity: constructs, never reallocates.
      block.slots.resize(end);
      if (faults_active_) block.stages.resize(end);
    }
    region.ready = block.slots.size();
    region.slots = block.slots.data();
    region.stages = block.stages.data();
    return;
  }
}

inline void Network::claim_chunk(int b, int s, int gp, int size) {
  MailRegion& region = regions_[static_cast<std::size_t>(b) * num_shards_ + s];
  const std::size_t want = static_cast<std::size_t>(size);
  if (region.used + want > region.ready) extend_region(region, want);
  chunk_[b][gp].slots = region.slots + region.used;
  if (faults_active_) chunk_stages_[b][gp] = region.stages + region.used;
  region.used += want;
}

void Network::grow_chunk(int b, int s, int gp, int used) {
  Message* const from = chunk_[b][gp].slots;
  const signed char* const from_stages =
      faults_active_ ? chunk_stages_[b][gp] : nullptr;
  claim_chunk(b, s, gp, chunk_capacity(used + 1));
  std::move(from, from + used, chunk_[b][gp].slots);
  if (faults_active_) {
    std::copy_n(from_stages, chunk_[b][gp].injected, chunk_stages_[b][gp]);
  }
}

PortInbox Context::inbox(int port) const {
  assert(port >= 0 && port < num_ports());
  return net_->port_messages(net_->in_, base_ + port);
}

bool Context::port_live(int port) const {
  assert(port >= 0 && port < num_ports());
  const Network& net = *net_;
  return !net.churn_active_ || net.port_on_[base_ + port] != 0;
}

void Context::send(int port, Message message) {
  // Validate before touching any network state: a bad port must leave the
  // round's mailboxes exactly as they were.
  if (port < 0 || port >= num_ports()) {
    std::ostringstream os;
    os << "Context::send: port " << port << " out of range for vertex " << id_
       << " (" << num_ports() << " ports)";
    throw std::out_of_range(os.str());
  }
  Network& net = *net_;
  const int gp = base_ + port;
  if (net.churn_active_ && !net.port_on_[gp]) {
    // Dead edge (deleted or not yet inserted): the send is silently
    // discarded, like traffic on an unplugged link — no bandwidth or size
    // enforcement applies to it. Staged per *sender* shard (the shard
    // computing this vertex is the only writer) and folded into
    // RunStats::messages_purged at the barrier reduction.
    ++net.shard_accum_[shard_].churn_sends_dropped;
    return;
  }
  const int rs = net.reverse_slot_[gp];
  const int out = 1 - net.in_;
  Network::Chunk& box = net.chunk_[out][rs];
  const int queued = box.count;
  // Delayed messages injected by the fault hook occupy the run's prefix;
  // the sender's bandwidth budget applies to its fresh suffix only.
  const int fresh = queued - box.injected;
  if (net.options_.enforce_bandwidth) {
    if (message.size_words() > kMaxMessageWords) {
      CongestionError err(CongestionError::Kind::kMessageSize, round_, id_,
                          neighbors_[port], message.size_words(),
                          kMaxMessageWords);
      throw err;
    }
    if (fresh >= net.options_.bandwidth_tokens) {
      CongestionError err(CongestionError::Kind::kBandwidth, round_, id_,
                          neighbors_[port], fresh + 1,
                          net.options_.bandwidth_tokens);
      throw err;
    }
  }
  // Deposit directly into the receiver's run for next round; delivery is
  // then just the buffer swap. Port rs's chunk is written by this vertex
  // alone (one sender per edge direction), and the active bucket and the
  // region a chunk is claimed from by this vertex's shard alone, which is
  // what makes the compute phase race-free.
  if (queued == 0) {
    net.active_[out][net.send_bucket_[gp]].push_back(rs);
    net.claim_chunk(out, shard_, rs, net.chunk_capacity(1));
  } else if (queued == net.chunk_capacity(queued)) {
    net.grow_chunk(out, shard_, rs, queued);
  }
  box.slots[queued] = std::move(message);
  box.count = queued + 1;
}

void Network::reset_mailboxes() {
  for (int b = 0; b < 2; ++b) {
    for (std::vector<int>& bucket : active_[b]) {
      for (const int gp : bucket) {
        clear_port(b, gp);
        mail_[b][port_owner_[gp]] = 0;
      }
      bucket.clear();
    }
  }
  for (MailRegion& region : regions_) {
    region.block = 0;
    region.used = 0;
    region.ready = 0;
  }
  pending_injected_ = 0;
}

void Network::prime_worklists() {
  // Stale lists (an aborted run unwinds mid-round) are drained through
  // their own entries so the queued flags never need an O(n) sweep.
  for (int b = 0; b < 2; ++b) {
    for (int s = 0; s < num_shards_; ++s) {
      for (const VertexId v : worklist_[b][s]) queued_[b][v] = 0;
      worklist_[b][s].clear();
    }
  }
  // Round 0 precedes any message exchange: every vertex steps once, and
  // the round-0 compute re-queues exactly the vertices still in play.
  for (int s = 0; s < num_shards_; ++s) {
    std::vector<VertexId>& wl = worklist_[in_][s];
    for (VertexId v = shard_begin_[s]; v < shard_begin_[s + 1]; ++v) {
      queued_[in_][v] = 1;
      wl.push_back(v);
    }
  }
  std::fill(crash_cursor_.begin(), crash_cursor_.end(), std::size_t{0});
}

void Network::reset_for_run() {
  reset_mailboxes();
  prime_worklists();
  // Rewind the churn schedule and restore construction-time topology:
  // initial edges live, insert-only edges dead, every vertex present.
  if (churn_active_) {
    std::copy(port_on_init_.begin(), port_on_init_.end(), port_on_.begin());
    std::fill(present_.begin(), present_.end(), char{1});
    churn_cursor_ = 0;
    round_churn_events_ = 0;
  }
  // Staged metrics scratch is cleared here rather than at run end: aborted
  // runs (CongestionError, max_rounds) unwind past metrics_end_run, and
  // this keeps their partial accumulators from leaking into the next run.
  // The registry itself is caller-owned and deliberately untouched — reuse
  // engines decide whether a run accumulates or starts a fresh report.
  if (metrics_) {
    edge_accum_.assign(edge_accum_.size(), EdgeAccum{});
    std::fill(tag_msgs_.begin(), tag_msgs_.end(), 0);
    std::fill(tag_words_.begin(), tag_words_.end(), 0);
    std::fill(cp_depth_.begin(), cp_depth_.end(), 0);
    cp_stage_.assign(cp_stage_.size(), CpStage{});
    cp_run_max_ = 0;
    for (std::vector<VertexId>& touched : cp_touched_) touched.clear();
  }
}

void Network::set_fault_seed(std::uint64_t seed) {
  if (!faults_active_) {
    throw std::invalid_argument(
        "Network::set_fault_seed: the network has no fault schedule to "
        "reseed (the FaultPlan is disabled); construct the Network with an "
        "enabled plan instead");
  }
  options_.faults.seed = seed;
  // Same check construction applies: a plan that mutated underneath the
  // seed swap fails loudly here instead of corrupting the next run's
  // schedule.
  options_.faults.validate(n_);
}

RunStats Network::run(std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms) {
  if (static_cast<int>(algorithms.size()) != n_) {
    throw std::invalid_argument("need one algorithm per vertex");
  }
  reset_for_run();
  const std::int64_t t0 = ExecutionProfiler::now_ns();
  if (profiler_) profiler_->begin_run(num_shards_);
  if (metrics_) metrics_begin_run();
  TraceSink* const trace = options_.trace;
  if (trace) trace->on_run_begin(n_, g_.num_edges(), options_);
  RunStats stats;
  // Abnormal unwinds notify the observers before propagating, so a flight
  // recorder can dump its ring as the post-mortem artifact. Catch order
  // matters: CongestionError is a runtime_error. The violation caught is
  // the lowest shard's first, whatever the thread count: the inline path
  // computes shards in order and run_phases rethrows the lowest shard's
  // exception.
  try {
    stats = run_rounds(algorithms);
  } catch (const CongestionError& err) {
    if (metrics_) metrics_->record_violation(err);
    if (trace) {
      trace->on_violation(err);
      trace->on_abort("congestion");
    }
    throw;
  } catch (const std::runtime_error&) {
    if (trace) trace->on_abort("max_rounds");
    throw;
  }
  if (trace) trace->on_run_end(stats);
  if (profiler_) profiler_->end_run();
  stats.duration_ns = ExecutionProfiler::now_ns() - t0;
  if (metrics_) metrics_end_run(stats);
  return stats;
}

void Network::compute_shard(
    int s, std::int64_t r,
    std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms) {
  ShardAccum& acc = shard_accum_[s];
  acc.unfinished_delta = 0;
  acc.stats.vertices_crashed = 0;
  acc.churn_sends_dropped = 0;
  // Retire this round's crash events first. The schedule is the shard's
  // crash vertices sorted by round (ties in vertex order), so the counting
  // matches the old full-sweep loop exactly — including vertices that were
  // already finished or idle when their crash round arrived, which the
  // worklist below would never visit.
  if (faults_active_) {
    const std::vector<CrashSched>& sched = crash_sched_[s];
    std::size_t& cur = crash_cursor_[s];
    while (cur < sched.size() && sched[cur].round <= r) {
      const VertexId v = sched[cur].vertex;
      ++acc.stats.vertices_crashed;
      if (!finished_[v]) {
        finished_[v] = 1;
        --acc.unfinished_delta;
      }
      ++cur;
    }
  }
  const std::vector<char>& mail_in = mail_[in_];
  const int out = 1 - in_;
  std::vector<VertexId>& wl = worklist_[in_][s];
  std::vector<VertexId>& wl_next = worklist_[out][s];
  std::vector<char>& queued_in = queued_[in_];
  std::vector<char>& queued_out = queued_[out];
  for (const VertexId v : wl) {
    queued_in[v] = 0;
    if (faults_active_ &&
        (r >= crash_round_[v] || (churn_active_ && !present_[v]))) {
      // Crash-stop (the vertex never executes again; the event above
      // already did the bookkeeping) or churned out of the network
      // (apply_churn did the bookkeeping; a later kNodeJoin revives it).
      continue;
    }
    Context& ctx = contexts_[v];
    ctx.round_ = r;
    algorithms[v]->round(ctx);
    if (!finished_[v] || mail_in[v]) {
      const char f = algorithms[v]->finished() ? 1 : 0;
      if (f != finished_[v]) {
        finished_[v] = f;
        acc.unfinished_delta += f ? -1 : 1;
      }
    } else {
      // Quiescence contract (VertexAlgorithm::finished): a finished vertex
      // that received no mail must stay finished.
      assert(algorithms[v]->finished());
    }
    // A still-unfinished vertex steps again next round even without mail.
    if (!finished_[v] && !queued_out[v]) {
      queued_out[v] = 1;
      wl_next.push_back(v);
    }
  }
  wl.clear();
}

std::int64_t Network::deliver_shard(int t, int out, std::int64_t r) {
  std::int64_t fault_ns = 0;
  ShardAccum& acc = shard_accum_[t];
  // Trace lane t is written by this delivery alone (exactly one worker
  // delivers shard t per round, orphans included), so appends here are
  // single-writer; trace_replay_round drains the lanes at the barrier.
  std::vector<std::uint64_t>* const lane =
      options_.trace ? &trace_lane_[t] : nullptr;
  // stats.vertices_crashed and unfinished_delta were written by this
  // shard's compute phase; everything else is this phase's output.
  acc.stats.messages_sent = 0;
  acc.stats.words_sent = 0;
  acc.stats.max_edge_load = 0;
  acc.stats.messages_dropped = 0;
  acc.stats.messages_duplicated = 0;
  acc.stats.messages_delayed = 0;
  acc.stats.churn_events = 0;
  acc.stats.messages_purged = 0;
  acc.injected_delta = 0;
  // Retire shard t's ports of the vacated buffer FIRST: this round's
  // inboxes have been read by the compute phase and the buffer becomes
  // next round's outbox — into which the fault pass below may move delayed
  // messages, so it must already be clear. Buckets (·, t), shard t's ports
  // of both buffers and the tails of shard t's two regions are touched by
  // worker t alone in this phase. Every chunk in the vacated buffer is
  // dead, so shard t's region of it is rewound to its front, even while
  // other shards still retire ports whose stale chunks lie in it (retiring
  // reads no message).
  for (int s = 0; s < num_shards_; ++s) {
    std::vector<int>& bucket = active_[in_][s * num_shards_ + t];
    for (const int rs : bucket) {
      clear_port(in_, rs);
      mail_[in_][port_owner_[rs]] = 0;
    }
    bucket.clear();
  }
  MailRegion& vacated =
      regions_[static_cast<std::size_t>(in_) * num_shards_ + t];
  vacated.block = 0;
  vacated.used = 0;
  vacated.ready = 0;
  for (int s = 0; s < num_shards_; ++s) {
    for (const int rs : active_[out][s * num_shards_ + t]) {
      if (churn_active_ && !port_on_[rs]) {
        // The edge died under pending traffic: purge fresh sends and
        // delayed injections alike, lazily, here — the port keeps its
        // bucket entry at count 0 (the retire loop clears it next round),
        // so apply_churn never touches the buckets and the zero-alloc
        // reservation argument is unchanged. The fault pass is skipped:
        // nothing on a dead port is ever re-injected. The receiver's mail
        // flag stays: another of its ports may have delivered this round.
        const int cnt = port_messages(out, rs).size();
        acc.injected_delta -= chunk_[out][rs].injected;
        clear_port(out, rs);
        acc.stats.messages_purged += cnt;
        if (lane && cnt > 0) {
          // Stage the purge for replay: the port is dead, so the replay
          // recognizes the entry by liveness and reads the count from
          // trace_purged_ (the mailbox was just cleared).
          trace_purged_[rs] = cnt;
          lane->push_back(
              (static_cast<std::uint64_t>(reverse_slot_[rs]) << 32) |
              static_cast<std::uint32_t>(rs));
        }
        continue;
      }
      if (faults_active_) {
        if (profiler_) {
          // Gated on both flags: fault-free profiled runs take no extra
          // clock reads per port.
          const std::int64_t f0 = ExecutionProfiler::now_ns();
          apply_port_faults(t, rs, out, r, acc);
          fault_ns += ExecutionProfiler::now_ns() - f0;
        } else {
          apply_port_faults(t, rs, out, r, acc);
        }
      }
      std::int64_t edge_words = 0;
      const PortInbox delivered = port_messages(out, rs);
      const Message* const msgs = delivered.begin();
      const int cnt = delivered.size();
      if (cnt == 0) continue;  // every message on the port dropped/delayed
      if (lane) {
        // Post-fault delivered traffic: the slot contents stay intact until
        // this buffer is retired during the *next* round's delivery, so the
        // barrier-time replay reads them in place.
        lane->push_back(
            (static_cast<std::uint64_t>(reverse_slot_[rs]) << 32) |
            static_cast<std::uint32_t>(rs));
      }
      if (metrics_) {
        edge_words = metrics_account_port(t, rs, msgs, cnt, r);
      } else {
        for (int i = 0; i < cnt; ++i) edge_words += msgs[i].size_words();
      }
      acc.stats.messages_sent += cnt;
      acc.stats.words_sent += edge_words;
      acc.stats.max_edge_load = std::max(acc.stats.max_edge_load, cnt);
      const VertexId to = port_owner_[rs];
      mail_[out][to] = 1;
      // Fresh mail activates the receiver: queue it for next round's
      // compute. Shard t's worklist and queued flags are touched by the
      // worker delivering t alone, so the single-writer discipline holds.
      if (!queued_[out][to]) {
        queued_[out][to] = 1;
        worklist_[out][t].push_back(to);
      }
    }
  }
  return fault_ns;
}

void Network::apply_port_faults(int t, int rs, int out, std::int64_t r,
                                ShardAccum& acc) {
  const int next = 1 - out;  // just retired; becomes next round's outbox
  const FaultPlan& plan = options_.faults;
  Chunk& box = chunk_[out][rs];
  const int cnt = box.count;
  const int inj = box.injected;
  // `stages` holds the remaining re-delivery passes of the injected prefix
  // [0, inj). `slots` is the port's run; a duplicate that finds its chunk
  // full grows it, like a send would, and the loop follows the run there.
  const signed char* const stages = chunk_stages_[out][rs];
  Message* slots = box.slots;
  int w = 0;       // survivors compacted to [0, w)
  int copies = 0;  // duplicate copies staged at [cnt, cnt + copies)
  for (int i = 0; i < cnt; ++i) {
    if (i < inj) {
      // Injected by an earlier round's delay decision: count down its
      // remaining passes; faults are never re-applied to it.
      if (stages[i] > 0) {
        inject_delayed(t, next, rs, std::move(slots[i]),
                       static_cast<signed char>(stages[i] - 1));
        continue;
      }
      --acc.injected_delta;  // finally delivered
      if (w != i) slots[w] = std::move(slots[i]);
      ++w;
      continue;
    }
    const FaultDecision d = fault_decision(plan, r, rs, i);
    if (d.action == FaultAction::kDrop) {
      ++acc.stats.messages_dropped;
      continue;
    }
    if (d.action == FaultAction::kDelay) {
      ++acc.stats.messages_delayed;
      ++acc.injected_delta;
      inject_delayed(t, next, rs, std::move(slots[i]),
                     static_cast<signed char>(d.delay_rounds - 1));
      continue;
    }
    if (d.action == FaultAction::kDuplicate) {
      ++acc.stats.messages_duplicated;
      const int at = cnt + copies;
      assert(at < max_chunk_);
      if (at == chunk_capacity(at)) {
        grow_chunk(out, t, rs, at);
        slots = box.slots;
      }
      slots[at] = slots[i];  // the copy trails every original
      ++copies;
    }
    if (w != i) slots[w] = std::move(slots[i]);
    ++w;
  }
  if (w != cnt) {
    // Close the gap so the duplicate copies directly follow the survivors
    // (ranges are disjoint: w + copies <= cnt when w < cnt).
    for (int j = 0; j < copies; ++j) {
      slots[w + j] = std::move(slots[cnt + j]);
    }
  }
  box.count = w + copies;
  box.injected = 0;
}

void Network::inject_delayed(int t, int buf, int rs, Message&& m,
                             signed char stage) {
  // Called from shard t's delivery only, after buffer `buf` was retired and
  // before any compute-phase send lands in it — so port rs of `buf` holds
  // injected messages exclusively and the append below keeps the invariant
  // that they form the run's prefix. Its chunk comes from shard t's region
  // of `buf`, whose one writer this phase is shard t. The active-bucket
  // append happens at most once per port per round (0 -> 1 transition) and
  // the buckets are reserved to their port-count ceiling, so it never
  // allocates.
  Chunk& box = chunk_[buf][rs];
  const int idx = box.count;
  assert(idx == box.injected);
  if (idx == 0) {
    active_[buf][send_bucket_[reverse_slot_[rs]]].push_back(rs);
    claim_chunk(buf, t, rs, chunk_capacity(1));
  } else if (idx == chunk_capacity(idx)) {
    grow_chunk(buf, t, rs, idx);
  }
  box.slots[idx] = std::move(m);
  chunk_stages_[buf][rs][idx] = stage;
  box.count = idx + 1;
  box.injected = idx + 1;
}

void Network::apply_churn(
    std::int64_t r, std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms,
    int& unfinished) {
  // Caller thread, between rounds: after the termination check (events past
  // the end of a run never fire) and before the member census, so a joined
  // vertex is counted and dispatched this same round. Everything below
  // touches preallocated state only — liveness flags, presence flags, the
  // reserved worklists — never the mailbox buckets: traffic stranded on a
  // dead port is purged lazily by the next deliver_shard that scans it,
  // which keeps the zero-alloc bucket discipline intact.
  round_churn_events_ = 0;
  TraceSink* const trace =
      options_.trace && trace_round_sampled(r) ? options_.trace : nullptr;
  while (churn_cursor_ < churn_sched_.size() &&
         churn_sched_[churn_cursor_].round <= r) {
    const ChurnSched& e = churn_sched_[churn_cursor_];
    ++churn_cursor_;
    ++round_churn_events_;
    if (trace) {
      // Per-event stream, schedule order, caller thread: edge events
      // carry both endpoints, node events carry u alone. The lump
      // on_churn(r, count) still follows once the loop drains.
      trace->on_churn_event(
          r, e.kind, e.kind == ChurnKind::kNodeLeave ||
                             e.kind == ChurnKind::kNodeJoin
                         ? e.u
                         : port_owner_[e.gp],
          e.gp >= 0 ? port_peer_[e.gp] : graph::kInvalidVertex);
    }
    switch (e.kind) {
      case ChurnKind::kEdgeDelete:
        port_on_[e.gp] = 0;
        port_on_[e.rs] = 0;
        break;
      case ChurnKind::kEdgeInsert:
        port_on_[e.gp] = 1;
        port_on_[e.rs] = 1;
        break;
      case ChurnKind::kNodeLeave: {
        const VertexId u = e.u;
        if (!present_[u]) break;  // already gone: no-op (still counted)
        present_[u] = 0;
        // Like a crash for termination purposes: an absent vertex counts
        // as finished so the run can still quiesce.
        if (!finished_[u]) {
          finished_[u] = 1;
          --unfinished;
        }
        // Leaving takes the incident live edges down with it.
        for (int p = port_base_[u]; p < port_base_[u + 1]; ++p) {
          if (port_on_[p]) {
            port_on_[p] = 0;
            port_on_[reverse_slot_[p]] = 0;
          }
        }
        break;
      }
      case ChurnKind::kNodeJoin: {
        const VertexId u = e.u;
        if (present_[u]) break;  // already here: no-op (still counted)
        present_[u] = 1;
        // Crash-stop wins over rejoin: a vertex whose crash round has
        // passed re-enters the topology but never executes again, so it
        // must stay finished — resurrecting it into the unfinished count
        // would leave a vertex the compute phase always skips and the run
        // could never quiesce.
        if (r >= crash_round_[u]) break;
        // Re-sync the finished cache with the algorithm (leave forced it to
        // 1) and re-queue the vertex on its owning shard's worklist so this
        // round's compute steps it. Edges are NOT restored — the plan
        // schedules explicit kEdgeInsert events for re-established links.
        const char f = algorithms[u]->finished() ? 1 : 0;
        if (f != finished_[u]) {
          finished_[u] = f;
          unfinished += f ? -1 : 1;
        }
        if (!finished_[u] && !queued_[in_][u]) {
          const int s =
              static_cast<int>(std::upper_bound(shard_begin_.begin(),
                                                shard_begin_.end(), u) -
                               shard_begin_.begin()) -
              1;
          queued_[in_][u] = 1;
          worklist_[in_][s].push_back(u);
        }
        break;
      }
    }
  }
}

void Network::trace_replay_round(std::int64_t r, int out) {
  TraceSink* const trace = options_.trace;
  const TraceConfig& cfg = options_.trace_config;
  const bool sampled = cfg.round_sampled(r);
  // Drain the lanes in shard order, then sort into sender-(vertex, port)
  // order: the packed key puts the sender's global port above the receiver
  // port, so a plain integer sort yields the replay order the pre-arena
  // simulator emitted and every fixture was recorded in. The merge is the
  // same whatever shard wrote which lane — that is the byte-identity
  // argument (DESIGN.md §18).
  trace_order_.clear();
  for (std::vector<std::uint64_t>& lane : trace_lane_) {
    trace_order_.insert(trace_order_.end(), lane.begin(), lane.end());
    lane.clear();
  }
  std::sort(trace_order_.begin(), trace_order_.end());
  for (const std::uint64_t key : trace_order_) {
    const int rs = static_cast<int>(key & 0xffffffffu);
    if (churn_active_ && !port_on_[rs]) {
      // Port liveness only changes between rounds (apply_churn, caller
      // thread), so a dead port here was dead at delivery: this lane entry
      // was a purge, and its count was staged because the mailbox is
      // already cleared. Reset the stage even on sampled-out rounds.
      const int purged = trace_purged_[rs];
      trace_purged_[rs] = 0;
      if (sampled && purged > 0) {
        trace->on_churn_purge(r, port_peer_[rs], port_owner_[rs], purged);
      }
      continue;
    }
    if (!sampled) continue;
    const VertexId to = port_owner_[rs];
    if (!cfg.vertex_sampled(to)) continue;
    // Post-fault delivered messages: buffer `out` keeps them intact until
    // it is retired during the next round's delivery, so the replay reads
    // them in place on the caller thread.
    const PortInbox delivered = port_messages(out, rs);
    std::int64_t edge_words = 0;
    for (const Message& m : delivered) {
      edge_words += m.size_words();
      if (cfg.tag_sampled(m.tag)) {
        trace->on_message(r, m.tag, m.size_words());
      }
    }
    trace->on_edge_load(r, port_peer_[rs], to, delivered.size(), edge_words);
  }
}

RunStats Network::run_rounds(
    std::vector<std::unique_ptr<VertexAlgorithm>>& algorithms) {
  TraceSink* const trace = options_.trace;
  RunStats stats;
  int unfinished = 0;
  for (VertexId v = 0; v < n_; ++v) {
    finished_[v] = algorithms[v]->finished() ? 1 : 0;
    if (!finished_[v]) ++unfinished;
  }
  for (std::int64_t r = 0;; ++r) {
    if (unfinished == 0 && pending_injected_ == 0) {
      stats.rounds = r;
      return stats;
    }
    // Strict budget: at most max_rounds compute rounds ever execute.
    if (r >= options_.max_rounds) {
      throw std::runtime_error("network: max_rounds exceeded");
    }
    // Churn fires on the caller thread before the member census, so a
    // joined vertex is counted (and its shard dispatched) this round, and
    // the applied liveness flags are visible to every worker via the
    // dispatch barrier. This is the only churn serialization point — the
    // phases themselves just read the flags.
    if (churn_active_) {
      if (profiler_) {
        const std::int64_t c0 = ExecutionProfiler::now_ns();
        apply_churn(r, algorithms, unfinished);
        profiler_->add_churn_ns(ExecutionProfiler::now_ns() - c0);
      } else {
        apply_churn(r, algorithms, unfinished);
      }
      if (trace && round_churn_events_ > 0 && trace_round_sampled(r)) {
        trace->on_churn(r, static_cast<int>(round_churn_events_));
      }
    }
    const int out = 1 - in_;
    // Member census (caller, O(num_shards_)): a shard participates when it
    // has queued vertices or a crash event due this round; the caller's
    // shard 0 always does. Shards out of the round are never rung — their
    // workers stay parked, and their compute outputs are zeroed here — but
    // their ports can still receive fresh mail or carry delayed injections,
    // so members deliver the orphaned shards round-robin by rank.
    std::int64_t total_active = 0;
    int member_count = 0;
    for (int s = 0; s < num_shards_; ++s) {
      total_active += static_cast<std::int64_t>(worklist_[in_][s].size());
      const bool in_round = s == 0 || !worklist_[in_][s].empty() ||
                            (faults_active_ && crash_due(s, r));
      member_[s] = in_round ? 1 : 0;
      if (in_round) {
        ++member_count;
      } else {
        ShardAccum& acc = shard_accum_[s];
        acc.unfinished_delta = 0;
        acc.stats.vertices_crashed = 0;
        acc.churn_sends_dropped = 0;
      }
    }
    const bool serial_round =
        member_count <= 1 || (options_.sparse_serial_threshold > 0 &&
                              total_active <= options_.sparse_serial_threshold);
    if (serial_round) {
      // Inline round: the whole round runs on the caller — no dispatch, no
      // barriers. Every round of a one-shard Network takes this path; with
      // more shards it is the sparse fast path, whose decision is a pure
      // function of the active-vertex count, which does not depend on the
      // thread count, so results and metrics stay bit-identical across
      // shard counts (the per-shard accounting below folds in shard order
      // either way).
      if (profiler_) profiler_->compute_begin(0);
      for (int s = 0; s < num_shards_; ++s) {
        if (member_[s]) compute_shard(s, r, algorithms);
      }
      if (profiler_) {
        profiler_->compute_end(0);
        profiler_->deliver_begin(0);
      }
      std::int64_t fault_ns = 0;
      for (int t = 0; t < num_shards_; ++t) {
        fault_ns += deliver_shard(t, out, r);
      }
      if (profiler_) {
        profiler_->deliver_end(0, fault_ns);
        profiler_->mark_idle_others();
      }
    } else {
      // Fused round: one dispatch runs both phases with a single internal
      // barrier between them (the final barrier doubles as the round's
      // quiesce point). Deposits land in disjoint runs, in chunks claimed
      // from the sender shard's own regions, and in single-writer active
      // buckets, so the only shared writes are each shard's own finished_
      // range, worklists and accumulator. An
      // exception (CongestionError, bad port) skips phase 1 team-wide,
      // quiesces at the pool barrier and rethrows here; reset_for_run() on
      // the next run() clears the partial round, so the Network stays
      // reusable.
      orphans_.clear();
      int rank = 0;
      for (int s = 0; s < num_shards_; ++s) {
        if (member_[s]) {
          member_rank_[s] = rank++;
        } else {
          member_rank_[s] = -1;
          orphans_.push_back(s);
        }
      }
      round_member_count_ = member_count;
      // The dispatch mark is written before the pool rings the doorbells
      // (seq_cst), so every shard's compute_begin reads it happens-after.
      if (profiler_) profiler_->mark_dispatch();
      pool_ptr_->run_phases(member_.data(), [&](int s, int phase) {
        if (phase == 0) {
          if (profiler_) profiler_->compute_begin(s);
          compute_shard(s, r, algorithms);
          if (profiler_) profiler_->compute_end(s);
        } else {
          if (profiler_) profiler_->deliver_begin(s);
          const std::int64_t fns = deliver_shard(s, out, r);
          if (profiler_) profiler_->deliver_end(s, fns);
          // Orphan delivery, rank-strided: each non-member shard is
          // delivered by exactly one member, preserving the per-shard
          // single-writer discipline; its lane gets a deliver-only row.
          for (std::size_t j = static_cast<std::size_t>(member_rank_[s]);
               j < orphans_.size(); j += static_cast<std::size_t>(
                                        round_member_count_)) {
            const int t = orphans_[j];
            if (profiler_) profiler_->deliver_begin(t);
            const std::int64_t ofns = deliver_shard(t, out, r);
            if (profiler_) profiler_->deliver_end(t, ofns);
          }
        }
      });
    }
    // Every delivery is behind the dispatch barrier (or ran inline), so the
    // lanes are complete: replay the round's trace events on the caller in
    // sender-(vertex, port) order — the order the pre-arena simulator
    // emitted and the trace fixtures were recorded in (DESIGN.md §18).
    if (trace) trace_replay_round(r, out);
    // Barrier reduction in shard order: the per-round RunStats is combined
    // once so it can feed both the run totals and the metrics registry.
    if (profiler_) profiler_->reduce_begin();
    RunStats round;
    for (const ShardAccum& acc : shard_accum_) {
      round += acc.stats;
      unfinished += acc.unfinished_delta;
      pending_injected_ += acc.injected_delta;
      round.messages_purged += acc.churn_sends_dropped;
    }
    if (churn_active_) round.churn_events += round_churn_events_;
    stats += round;
    if (trace && trace_round_sampled(r)) {
      trace->on_round_end(r, round.messages_sent, round.words_sent,
                          round.max_edge_load);
    }
    if (metrics_) {
      metrics_->record_round(round);
      metrics_apply_round();
    }
    if (profiler_) {
      profiler_->reduce_end();
      profiler_->round_end();
    }
    in_ = out;
  }
}

void Network::metrics_begin_run() {
  // The staged scratch (edge/tag/critical-path accumulators) was already
  // cleared by reset_for_run() on run entry; this hook only opens the
  // registry run.
  metrics_->begin_run(n_, g_.num_edges());
}

// This is the only per-port, per-round metrics cost, and dense workloads
// (every vertex sends every round) make it the whole metrics overhead —
// keep it one fused pass and branch-light. The inline hint matters: both
// callers live in this TU and the delivery loop is small enough that the
// out-of-line call was measurable (see EXPERIMENTS.md E15).
ECD_METRICS_HOT std::int64_t Network::metrics_account_port(
    int shard, int rs, const Message* msgs, int cnt, std::int64_t r) {
  std::int64_t* const tm =
      tag_msgs_.data() + static_cast<std::size_t>(shard) * kMetricsTagSlots;
  std::int64_t* const tw =
      tag_words_.data() + static_cast<std::size_t>(shard) * kMetricsTagSlots;
  std::int64_t edge_words = 0;
  for (int i = 0; i < cnt; ++i) {
    const int w = msgs[i].size_words();
    const int slot = metrics_tag_slot(msgs[i].tag);
    edge_words += w;
    ++tm[slot];
    tw[slot] += w;
  }
  EdgeAccum& e = edge_accum_[rs];
  e.messages += cnt;
  e.words += edge_words;
  if (cnt > e.peak) e.peak = cnt;
  // Critical path: a delivered batch extends the sender's causal chain by
  // one link. The candidate depth reads the sender's depth from the start
  // of this round (cp_depth_ is only mutated at the barrier), and the
  // receiver's staged maximum is single-writer: vertex `to` lives in this
  // shard, and this shard's worker scans all of its receiving ports.
  // Candidates that cannot raise the receiver's depth are dropped here —
  // the barrier merge is `max(depth, staged)`, so they are no-ops there.
  const VertexId to = port_owner_[rs];
  const std::int32_t cand = cp_depth_[port_peer_[rs]] + 1;
  if (cand > cp_depth_[to]) {
    CpStage& st = cp_stage_[to];
    if (st.stamp != r) {
      st.stamp = r;
      st.depth = cand;
      cp_touched_[shard].push_back(to);
    } else if (cand > st.depth) {
      st.depth = cand;
    }
  }
  return edge_words;
}

void Network::metrics_apply_round() {
  // Caller thread, at the barrier. The max-merge makes the result
  // independent of both shard order and within-shard staging order.
  for (int s = 0; s < num_shards_; ++s) {
    for (const VertexId v : cp_touched_[s]) {
      if (cp_stage_[v].depth > cp_depth_[v]) {
        cp_depth_[v] = cp_stage_[v].depth;
        if (cp_depth_[v] > cp_run_max_) cp_run_max_ = cp_depth_[v];
      }
    }
    cp_touched_[s].clear();
  }
}

void Network::metrics_end_run(const RunStats& stats) {
  // Tag rows reduce across shards in slot order; edge accumulators flush
  // in port order. Both orders are fixed, so the registry sees the same
  // sequence whatever num_shards_ is.
  for (int slot = 0; slot < kMetricsTagSlots; ++slot) {
    std::int64_t messages = 0;
    std::int64_t words = 0;
    for (int s = 0; s < num_shards_; ++s) {
      const std::size_t at =
          static_cast<std::size_t>(s) * kMetricsTagSlots + slot;
      messages += tag_msgs_[at];
      words += tag_words_[at];
    }
    if (messages != 0) metrics_->record_tag_slot(slot, messages, words);
  }
  for (int gp = 0; gp < num_dir_ports_; ++gp) {
    const EdgeAccum& e = edge_accum_[gp];
    if (e.messages == 0) continue;
    metrics_->record_edge(port_peer_[gp], port_owner_[gp], e.messages,
                          e.words, static_cast<int>(e.peak));
  }
  metrics_->end_run(stats, cp_run_max_);
}

}  // namespace ecd::congest
