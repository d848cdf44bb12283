// Cluster-scoped CONGEST primitives (§2.2–2.3 of the paper).
//
// Every primitive is a real distributed algorithm executed on the
// simulator, restricted to intra-cluster edges, for all clusters in
// parallel; round counts returned are *measured*. They are the building
// blocks of Theorem 2.6: leader election, BFS trees, Barenboim–Elkin
// orientation, lazy-random-walk information gathering (Lemma 2.4), leader
// broadcasts, and the return of the leaders' answers along the gathered
// paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/congest/network.h"
#include "src/graph/graph.h"
#include "src/graph/splitmix.h"

namespace ecd::congest {

// --- Cluster tables -------------------------------------------------------------

// Per vertex: its ports to neighbours in its own cluster, in port order.
std::vector<std::vector<int>> intra_cluster_ports(
    const graph::Graph& g, const std::vector<int>& cluster_of);
// One more than the largest cluster label, 0 for no vertices.
int count_clusters(const std::vector<int>& cluster_of);

// --- Leader election ---------------------------------------------------------

struct LeaderElectionResult {
  // Per vertex: the elected leader of its cluster (max (cluster-degree, id)
  // pair, as in the proof of Theorem 2.6).
  std::vector<graph::VertexId> leader_of;
  RunStats stats;
};
LeaderElectionResult elect_cluster_leaders(const graph::Graph& g,
                                           const std::vector<int>& cluster_of,
                                           const NetworkOptions& net = {});

// --- BFS trees ----------------------------------------------------------------

struct BfsTreeResult {
  std::vector<graph::VertexId> parent;  // kInvalidVertex for roots
  std::vector<int> depth;               // 0 at roots
  int max_depth = 0;
  RunStats stats;
};
// Builds a BFS tree of every cluster rooted at its leader.
BfsTreeResult build_cluster_bfs_trees(const graph::Graph& g,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<graph::VertexId>& leader_of,
                                      const NetworkOptions& net = {});

// --- Low-out-degree orientation (Barenboim–Elkin peeling, §2.2) ---------------

struct OrientationResult {
  // owned[v] = intra-cluster edge ids v is responsible for announcing.
  std::vector<std::vector<graph::EdgeId>> owned;
  int max_out_degree = 0;
  int peeling_phases = 0;
  RunStats stats;
};
// `peel_threshold` must be >= the maximum min-degree over subgraphs (the
// degeneracy); for H-minor-free graphs this is O(1), known from the class.
OrientationResult orient_cluster_edges(const graph::Graph& g,
                                       const std::vector<int>& cluster_of,
                                       int peel_threshold,
                                       const NetworkOptions& net = {});

// --- Random-walk gather (Lemma 2.4) -------------------------------------------

struct GatherToken {
  graph::VertexId origin = graph::kInvalidVertex;
  std::vector<std::int64_t> payload;  // <= kMaxMessageWords - 1 words (+ id)
};

struct GatherOptions {
  NetworkOptions net;
  std::uint64_t seed = 1;
};

// A walker's random stream: eight bytes of state and one splitmix64 call a
// draw. Draw i of the stream seeded with s is splitmix64(splitmix64(s) +
// i·γ), γ the golden-ratio increment splitmix64 itself adds, so the state is
// a counter over a whitened start. The whitening keeps the gathers'
// per-vertex seeds, s ^ γ·(v + 1), off each other's counter sequences. Both
// walk gathers give every vertex one stream and draw from it in held-token
// order: a lazy coin per token and, when the token moves, a port.
class WalkStream {
 public:
  explicit WalkStream(std::uint64_t seed) : state_(graph::splitmix64(seed)) {}

  std::uint64_t next() {
    const std::uint64_t draw = graph::splitmix64(state_);
    state_ += kGamma;
    return draw;
  }
  // The lazy walk's fair coin, the top bit of one draw: true = stay put.
  bool lazy() { return next() >> 63 != 0; }
  // An index in [0, k), k > 0: the high word of one draw times k.
  std::size_t pick(std::size_t k) {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(next()) * k) >> 64);
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
};

// A registration token's first arrival at a vertex other than its origin, as
// that vertex records it: the vertex, its port toward the neighbour that
// handed the token over, and the round that neighbour sent it in (the
// receipt round − 1). This is *local bookkeeping*, which is what makes the
// return below routable — no path ever travels in a message.
struct FirstArrival {
  graph::VertexId at = graph::kInvalidVertex;
  int port = -1;
  std::int32_t round = -1;
  friend bool operator==(const FirstArrival&, const FirstArrival&) = default;
};

struct GatherResult {
  // Per cluster: payloads absorbed by the leader (arbitrary order).
  std::vector<std::vector<std::vector<std::int64_t>>> delivered;
  // Token id of each delivered payload, aligned with `delivered`.
  std::vector<std::vector<std::int64_t>> delivered_ids;
  // Token ids by origin: vertex v's tokens are ids [token_begin[v],
  // token_begin[v + 1]), in the order of its list. The first of them is v's
  // registration, the token a reply to v rides.
  std::vector<std::int64_t> token_begin;
  // Per vertex v: the first arrivals of v's registration, in the order they
  // happened (DESIGN.md §19). Once the registration is absorbed, the last
  // record is its leader's. Empty at a leader and at a vertex without
  // tokens; the other tokens record nothing.
  std::vector<std::vector<FirstArrival>> first_arrivals;
  bool complete = false;  // all tokens absorbed before max_rounds
  // Per-edge, per-round token budget the forward gather ran under. The return
  // sends at most min(this, stats.max_edge_load) replies per edge a round.
  int bandwidth_tokens = 1;
  RunStats stats;
};
// Routes each token from its origin to the origin's cluster leader by lazy
// random walks; tokens queue when an edge's per-round budget is full (the
// paper instead batches O(log n) messages per edge into O(log n) rounds —
// the same total work, measured here directly). A vertex's first token is
// its registration: each vertex keeps one seen-bit per registration of its
// cluster, Σ|V_i|² bits in all, and records a registration's first arrival
// in the origin's list. Throws std::invalid_argument, before the run,
// unless cluster_of, leader_of and tokens have one entry per vertex of `g`,
// and when net.max_rounds passes INT32_MAX (recorded rounds are 32-bit).
GatherResult random_walk_gather(const graph::Graph& g,
                                const std::vector<int>& cluster_of,
                                const std::vector<graph::VertexId>& leader_of,
                                const std::vector<std::vector<GatherToken>>& tokens,
                                const GatherOptions& options = {});

// --- Reliable random-walk gather under faults (DESIGN.md §12) -------------------

struct ReliableGatherOptions {
  // net.faults carries the fault plan. Its crash and churn rounds are read
  // on the gather's own cumulative round timeline (re-election rounds
  // included): every re-election and epoch starts from the vertices and
  // topology as they stand, and the result's stats count each crash and
  // churn event once.
  NetworkOptions net;
  std::uint64_t seed = 1;
  // Rounds per epoch before walkers give up, after which the host checks
  // progress, re-elects leaders for clusters whose leader crash-stopped,
  // and re-seeds undelivered tokens at their origins.
  int epoch_rounds = 512;
  int max_epochs = 8;
};

struct ReliableGatherResult {
  // Same shape as random_walk_gather's result; stats accumulate over all
  // epochs and re-elections. complete == true iff every non-orphaned token
  // was absorbed by a leader that was still alive at the last epoch
  // boundary. A token is orphaned when its origin crash-stops before
  // delivery: no live vertex can re-introduce it, so it drops out of the
  // completeness contract (and out of `delivered`) instead of wedging it.
  GatherResult gather;
  std::int64_t retransmissions = 0;  // token re-sends after ack timeout
  std::int64_t ack_messages = 0;     // ack messages sent (batched)
  int epochs = 0;
  int reelections = 0;
  // Leaders in effect when the gather finished (differs from the input
  // when a crash forced re-election).
  std::vector<graph::VertexId> final_leader_of;
};

// random_walk_gather hardened against the fault layer: every token hop
// carries a per-token sequence number, receivers acknowledge (acks batched,
// kMaxMessageWords ids per message) and deduplicate on (token, seq), and
// senders retransmit unacknowledged hops on the same port — so drops,
// duplicates, and delays cannot lose or double-deliver a token. A vertex
// records a registration's first arrival when it accepts a copy, at the
// acceptance round − 1 on the cumulative timeline, so the records stay
// valid for the return. Crash-stopped leaders are replaced by
// host-orchestrated re-election between epochs; tokens stranded at crashed
// or given-up walkers restart from their origins, and a restarted
// registration forgets its records. Throws std::invalid_argument, before
// any run, unless cluster_of, leader_of and tokens have one entry per
// vertex of `g`, and when max_epochs x (net.max_rounds + epoch_rounds +
// delay span + 8) could pass INT32_MAX (32-bit recorded rounds).
ReliableGatherResult reliable_walk_gather(
    const graph::Graph& g, const std::vector<int>& cluster_of,
    const std::vector<graph::VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const ReliableGatherOptions& options = {});

// --- Leader broadcast -----------------------------------------------------------

struct BroadcastResult {
  // value received by each vertex (the leader's word), -1 if unreachable.
  std::vector<std::int64_t> value;
  RunStats stats;
};
// Floods one O(log n)-bit word from each cluster leader to its cluster.
BroadcastResult broadcast_from_leaders(const graph::Graph& g,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<graph::VertexId>& leader_of,
                                       const std::vector<std::int64_t>& leader_value,
                                       const NetworkOptions& net = {});

// --- Path-length result return (§2.2, last paragraph; DESIGN.md §19) ------------

struct PathReturnResult {
  // Per vertex: the word its reply brought back, valid where arrived[v] != 0.
  std::vector<std::int64_t> word;
  std::vector<char> arrived;
  RunStats stats;
};

// Delivers words[v] to every vertex v, from where v's registration ended
// (its leader) back to v, as a store-and-forward run on the simulator. The
// reply follows the first-arrival path: start at the last record of v's
// list, step back through the port it names to the vertex that first handed
// the registration over, whose own record is an earlier one, and stop at v.
// The path visits no vertex twice, and its hops keep their forward rounds. A
// vertex on it knows, for each reply that will pass it, the port back toward
// the origin and the forward round of that first arrival, the reply's
// priority. Every round each directed edge sends its waiting replies latest
// forward round first, ties by lower origin, and at most cap = max(1,
// min(gather.stats.max_edge_load, gather.bandwidth_tokens)) of them, so no
// edge carries more per round than in the forward run. Each reply is one
// message [origin, word] (tag kTagReturnReply) per path hop. Give each
// reverse hop the round before its mirror round (forward round r, mirrored
// at T − 1 − r in a T-round gather) as a deadline: the replies due on an
// edge in a round are at most the forward load of its mirror round, at most
// the cap, and each is ready because its previous hop was due earlier. So
// this earliest-deadline-first schedule meets every deadline and takes at
// most the mirror's T rounds; it ends after about the longest path plus the
// queueing. The run uses `net` with bandwidth_tokens set to the cap. The
// routing tables are built before the run, stepping back through each list
// twice, and the round loop allocates nothing. A vertex with an empty list
// keeps its word, and a return whose paths have no hops runs no rounds. Throws
// std::invalid_argument, before the run, unless there is one word and one list
// per vertex of `g`, when `net` has a fault plan (a reply is not resent, and
// its port's queue has room for one copy), and for a record on a path whose
// vertex or port lies outside `g` or whose port leads neither to the origin
// nor to an earlier record of a smaller round.
PathReturnResult return_along_paths(const graph::Graph& g,
                                    const GatherResult& gather,
                                    const std::vector<std::int64_t>& words,
                                    const NetworkOptions& net = {});

// --- Deterministic tree gather (the Lemma 2.5 role) ----------------------------

// Deterministic alternative to the random-walk gather (DESIGN.md §8 has
// the probe that compares them; only tests call it yet): tokens climb the
// cluster BFS tree in the walks' wire form, one hop per round, oldest
// first, net.bandwidth_tokens per edge per round. A climb reaches each
// ancestor once, so v's list holds depth(v) first arrivals, the last at its
// leader, and return_along_paths runs on the result as on the walks'.
// Throws std::invalid_argument, before the run, unless cluster_of,
// leader_of, bfs_parent and tokens have one entry per vertex of `g` and
// each non-leader's parent is a neighbour in its cluster from which the
// parents lead to a leader, and when net.max_rounds passes INT32_MAX.
GatherResult tree_gather(const graph::Graph& g,
                         const std::vector<int>& cluster_of,
                         const std::vector<graph::VertexId>& leader_of,
                         const std::vector<graph::VertexId>& bfs_parent,
                         const std::vector<std::vector<GatherToken>>& tokens,
                         const NetworkOptions& net = {});

// --- Convergecast ----------------------------------------------------------------

enum class Fold { kSum, kMin, kMax };

struct ConvergecastResult {
  // Per cluster: fold of all vertices' values, available at the leader.
  std::vector<std::int64_t> sum;
  congest::RunStats stats;
};
// Folds one O(log n)-bit value per vertex up the BFS tree (each tree edge
// carries exactly one partial aggregate, so bandwidth 1 suffices).
ConvergecastResult convergecast_fold(const graph::Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<graph::VertexId>& leader_of,
                                     const std::vector<graph::VertexId>& bfs_parent,
                                     const std::vector<std::int64_t>& value,
                                     Fold fold, const NetworkOptions& net = {});

inline ConvergecastResult convergecast_sum(
    const graph::Graph& g, const std::vector<int>& cluster_of,
    const std::vector<graph::VertexId>& leader_of,
    const std::vector<graph::VertexId>& bfs_parent,
    const std::vector<std::int64_t>& value, const NetworkOptions& net = {}) {
  return convergecast_fold(g, cluster_of, leader_of, bfs_parent, value,
                           Fold::kSum, net);
}

// --- Cluster diameter self-check (§2.3, failure detection) ---------------------

struct DiameterCheckResult {
  // Per vertex: true if its cluster verified diameter <= bound.
  std::vector<bool> within_bound;
  RunStats stats;
};
// The paper's *-marking protocol: each vertex computes the max id within
// distance `bound` in its cluster; disagreement with a neighbor marks the
// cluster as too wide. All vertices of a cluster agree on the outcome.
DiameterCheckResult check_cluster_diameter(const graph::Graph& g,
                                           const std::vector<int>& cluster_of,
                                           int bound,
                                           const NetworkOptions& net = {});

}  // namespace ecd::congest
