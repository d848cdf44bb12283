#include "src/congest/primitives.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/graph/splitmix.h"

namespace ecd::congest {

using graph::EdgeId;
using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

std::vector<std::vector<int>> intra_cluster_ports(
    const Graph& g, const std::vector<int>& cluster_of) {
  std::vector<std::vector<int>> ports(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      if (cluster_of[nbrs[p]] == cluster_of[v]) ports[v].push_back(p);
    }
  }
  return ports;
}

int count_clusters(const std::vector<int>& cluster_of) {
  int clusters = 0;
  for (const int c : cluster_of) clusters = std::max(clusters, c + 1);
  return clusters;
}

namespace {

// Throws std::invalid_argument, before a gather starts, unless its
// per-vertex inputs have one entry per vertex of `g` and its budget — `runs`
// network runs of at most `run_rounds` rounds each — stays within
// INT32_MAX, so that a recorded round (FirstArrival::round) never wraps.
void check_gather(const char* gather, const Graph& g,
                  const std::vector<int>& cluster_of,
                  const std::vector<VertexId>& leader_of,
                  const std::vector<std::vector<GatherToken>>& tokens,
                  std::int64_t run_rounds, std::int64_t runs = 1) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (cluster_of.size() != n || leader_of.size() != n || tokens.size() != n) {
    throw std::invalid_argument(
        std::string(gather) + ": " + std::to_string(cluster_of.size()) +
        " cluster labels, " + std::to_string(leader_of.size()) +
        " leaders and " + std::to_string(tokens.size()) +
        " token lists for " + std::to_string(n) + " vertices");
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (run_rounds > kMax ||
      runs > kMax / std::max<std::int64_t>(1, run_rounds)) {
    throw std::invalid_argument(std::string(gather) +
                                ": round budget exceeds INT32_MAX, the range "
                                "of a recorded round");
  }
}

// Numbers the tokens by origin, each origin's in list order, into
// gather.token_begin, and returns how many there are.
std::int64_t number_tokens(const std::vector<std::vector<GatherToken>>& tokens,
                           GatherResult& gather) {
  gather.token_begin.assign(tokens.size() + 1, 0);
  for (std::size_t v = 0; v < tokens.size(); ++v) {
    gather.token_begin[v + 1] =
        gather.token_begin[v] + static_cast<std::int64_t>(tokens[v].size());
  }
  return gather.token_begin.back();
}

// The walks' filter in front of the first-arrival records: a walk may come
// back to a vertex, and only its first arrival there is recorded. Each
// vertex keeps one seen-bit per registration of its cluster, at the
// origin's rank among the cluster's members, in whole words of its own:
// Σ|V_i|² bits in all. A vertex writes only its own bits, so the shards of a
// parallel round never write the same word.
class SeenBits {
 public:
  explicit SeenBits(const std::vector<int>& cluster_of)
      : rank_(cluster_of.size()), begin_(cluster_of.size() + 1, 0) {
    std::vector<int> size(static_cast<std::size_t>(count_clusters(cluster_of)));
    for (std::size_t v = 0; v < cluster_of.size(); ++v) {
      rank_[v] = size[cluster_of[v]]++;
    }
    for (std::size_t v = 0; v < cluster_of.size(); ++v) {
      begin_[v + 1] = begin_[v] + (size[cluster_of[v]] + 63) / 64;
    }
    bits_.assign(begin_.back(), 0);
  }

  // Sets v's bit of origin's registration; false if it was set already.
  bool mark(VertexId v, VertexId origin) {
    std::uint64_t& word = bits_[begin_[v] + rank_[origin] / 64];
    const std::uint64_t bit = std::uint64_t{1} << (rank_[origin] % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  void unmark(VertexId v, VertexId origin) {
    bits_[begin_[v] + rank_[origin] / 64] &=
        ~(std::uint64_t{1} << (rank_[origin] % 64));
  }

 private:
  std::vector<std::size_t> rank_;  // per vertex: rank within its cluster
  std::vector<std::size_t> begin_;
  std::vector<std::uint64_t> bits_;
};

// Every gather's first-arrival records (DESIGN.md §19). The first time a
// registration reaches a vertex other than its origin, the vertex appends
// the arrival to the origin's list in gather.first_arrivals. A climb up the
// tree reaches each vertex once, so the tree gather records every arrival;
// the walks put their seen bits in front. A registration is at one vertex
// at a time, so the shards of a parallel round never write the same list.
class FirstArrivalRecorder {
 public:
  // Reads the tokens' numbering from gather.token_begin. `seen` is the
  // walks' filter, null for the tree.
  FirstArrivalRecorder(GatherResult& gather, SeenBits* seen)
      : lists_(&gather.first_arrivals), seen_(seen) {
    const std::vector<std::int64_t>& begin = gather.token_begin;
    const auto n = static_cast<VertexId>(begin.size() - 1);
    lists_->assign(static_cast<std::size_t>(n), {});
    origin_of_.assign(static_cast<std::size_t>(begin.back()), kInvalidVertex);
    for (VertexId v = 0; v < n; ++v) {
      if (begin[v] < begin[v + 1]) {
        origin_of_[static_cast<std::size_t>(begin[v])] = v;
      }
    }
  }

  // Vertex v received token `id` on `port` in round `round`.
  void arrive(VertexId v, std::int64_t id, int port, std::int64_t round) {
    const VertexId origin = origin_of_[static_cast<std::size_t>(id)];
    if (origin == kInvalidVertex || origin == v) return;
    if (seen_ != nullptr && !seen_->mark(v, origin)) return;
    (*lists_)[origin].push_back(
        {v, port, static_cast<std::int32_t>(round - 1)});
  }

  // Token `id` walks again from its origin: if it is a registration, its
  // records and the bits they set go.
  void forget(std::int64_t id) {
    const VertexId origin = origin_of_[static_cast<std::size_t>(id)];
    if (origin == kInvalidVertex) return;
    for (const FirstArrival& a : (*lists_)[origin]) seen_->unmark(a.at, origin);
    (*lists_)[origin].clear();
  }

 private:
  std::vector<std::vector<FirstArrival>>* lists_;
  SeenBits* seen_;
  std::vector<VertexId> origin_of_;  // per token: its origin if a registration
};

// --- Leader election ----------------------------------------------------------

class LeaderElectionAlgo final : public VertexAlgorithm {
 public:
  explicit LeaderElectionAlgo(const std::vector<int>* intra)
      : intra_(intra) {}

  void round(Context& ctx) override {
    started_ = true;
    bool changed = false;
    if (ctx.round() == 0) {
      best_ = {static_cast<std::int64_t>(intra_->size()), ctx.id()};
      changed = true;
    }
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        const std::pair<std::int64_t, std::int64_t> cand{m.words[0],
                                                         m.words[1]};
        if (cand > best_) {
          best_ = cand;
          changed = true;
        }
      }
    }
    sent_ = changed;
    if (changed) {
      for (int p : *intra_) {
        ctx.send(p, {{best_.first, best_.second}, kTagElection});
      }
    }
  }

  bool finished() const override { return started_ && !sent_; }

  VertexId leader() const { return static_cast<VertexId>(best_.second); }

 private:
  const std::vector<int>* intra_;
  std::pair<std::int64_t, std::int64_t> best_{-1, -1};
  bool started_ = false;
  bool sent_ = false;
};

// --- BFS tree -------------------------------------------------------------------

class BfsAlgo final : public VertexAlgorithm {
 public:
  BfsAlgo(const std::vector<int>* intra, bool is_root)
      : intra_(intra), is_root_(is_root) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0 && is_root_) {
      depth_ = 0;
      announce(ctx);
      return;
    }
    if (depth_ != -1) return;
    int best_depth = -1;
    VertexId best_parent = kInvalidVertex;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        const int d = static_cast<int>(m.words[0]);
        const VertexId sender = ctx.neighbor(p);
        if (best_depth == -1 || d < best_depth ||
            (d == best_depth && sender < best_parent)) {
          best_depth = d;
          best_parent = sender;
        }
      }
    }
    if (best_depth != -1) {
      depth_ = best_depth + 1;
      parent_ = best_parent;
      announce(ctx);
    }
  }

  bool finished() const override { return started_ && !sent_; }

  int depth() const { return depth_; }
  VertexId parent() const { return parent_; }

 private:
  void announce(Context& ctx) {
    sent_ = true;
    for (int p : *intra_) ctx.send(p, {{depth_}, kTagBfs});
  }

  const std::vector<int>* intra_;
  bool is_root_;
  bool started_ = false;
  bool sent_ = false;
  int depth_ = -1;
  VertexId parent_ = kInvalidVertex;
};

// --- Barenboim–Elkin peeling orientation ----------------------------------------

class PeelAlgo final : public VertexAlgorithm {
 public:
  PeelAlgo(const std::vector<int>* intra, int threshold)
      : intra_(intra), threshold_(threshold) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) alive_port_ = *intra_;
    // Process peel announcements from the previous round.
    std::vector<int> simultaneous;  // ports whose neighbor peeled with us
    for (auto it = alive_port_.begin(); it != alive_port_.end();) {
      const int p = *it;
      if (!ctx.inbox(p).empty()) {
        if (peel_round_ != -1 &&
            ctx.inbox(p)[0].words[0] == peel_round_) {
          simultaneous.push_back(p);
        }
        it = alive_port_.erase(it);
      } else {
        ++it;
      }
    }
    if (peel_round_ != -1 && !claimed_) {
      // Finalize ownership one round after peeling: we own edges to
      // neighbors that were still alive from our view, except simultaneous
      // peelers with a smaller id.
      claimed_ = true;
      for (int p : tentative_ports_) {
        const bool simultaneous_peer =
            std::find(simultaneous.begin(), simultaneous.end(), p) !=
            simultaneous.end();
        if (!simultaneous_peer || ctx.id() < ctx.neighbor(p)) {
          owned_ports_.push_back(p);
        }
      }
      return;
    }
    if (peel_round_ == -1 &&
        static_cast<int>(alive_port_.size()) <= threshold_) {
      peel_round_ = ctx.round();
      tentative_ports_ = alive_port_;
      sent_ = true;
      for (int p : alive_port_) ctx.send(p, {{peel_round_}, kTagOrientation});
    }
  }

  bool finished() const override { return started_ && claimed_ && !sent_; }

  const std::vector<int>& owned_ports() const { return owned_ports_; }
  std::int64_t peel_round() const { return peel_round_; }

 private:
  const std::vector<int>* intra_;
  int threshold_;
  bool started_ = false;
  bool sent_ = false;
  bool claimed_ = false;
  std::int64_t peel_round_ = -1;
  std::vector<int> alive_port_;
  std::vector<int> tentative_ports_;
  std::vector<int> owned_ports_;
};

// --- Random-walk gather -----------------------------------------------------------

// Tokens wait and travel in wire form, [id, payload...]: an arrival is copied
// into the held list as it is, and a hop moves the held buffer into the
// outgoing message. Both fit a WordBuffer's inline storage, the held and kept
// lists swap every round and the port loads are a member, so once the lists
// reach their working size a hop allocates nothing (DESIGN.md §19).
class WalkAlgo final : public VertexAlgorithm {
 public:
  WalkAlgo(const std::vector<int>* intra, bool is_leader,
           std::vector<WordBuffer> initial_tokens, std::uint64_t seed,
           int bandwidth, FirstArrivalRecorder* records)
      : intra_(intra),
        is_leader_(is_leader),
        stream_(seed),
        bandwidth_(bandwidth),
        records_(records),
        held_(std::move(initial_tokens)),
        port_load_(intra->size(), 0) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        records_->arrive(ctx.id(), m.words[0], p, ctx.round());
        held_.push_back(m.words);
      }
    }
    if (is_leader_) {
      for (WordBuffer& t : held_) absorbed_.push_back(std::move(t));
      held_.clear();
      return;
    }
    if (held_.empty() || intra_->empty()) return;
    // Lazy step per token, subject to the per-edge budget; blocked tokens
    // simply retry next round. Draws follow the held order: last round's
    // kept tokens, then arrivals in port and inbox order.
    std::fill(port_load_.begin(), port_load_.end(), 0);
    kept_.clear();
    for (WordBuffer& t : held_) {
      if (stream_.lazy()) {
        kept_.push_back(std::move(t));
        continue;
      }
      const std::size_t i = stream_.pick(intra_->size());
      if (port_load_[i] >= bandwidth_) {
        kept_.push_back(std::move(t));
        continue;
      }
      ++port_load_[i];
      sent_ = true;
      ctx.send((*intra_)[i], Message{std::move(t), kTagWalkToken});
    }
    held_.swap(kept_);
  }

  bool finished() const override {
    return started_ && held_.empty() && !sent_;
  }

  std::vector<WordBuffer>& absorbed() { return absorbed_; }

 private:
  const std::vector<int>* intra_;
  bool is_leader_;
  WalkStream stream_;
  int bandwidth_;
  FirstArrivalRecorder* records_;
  bool started_ = false;
  bool sent_ = false;
  std::vector<WordBuffer> held_;
  std::vector<WordBuffer> kept_;
  std::vector<int> port_load_;  // per intra index, this round
  std::vector<WordBuffer> absorbed_;
};

// --- Reliable random-walk gather (DESIGN.md §12) ---------------------------------

// The (token, seq) pairs one walker accepted: an open-addressing hash set of
// non-negative keys. It doubles its table when half full and never frees a
// slot, so an insert allocates only when the table grows.
class AcceptedSet {
 public:
  // Adds `key` (>= 0); false if it was there already.
  bool insert(std::int64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = graph::splitmix64(static_cast<std::uint64_t>(key)) & mask;
    for (; slots_[i] >= 0; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

 private:
  void grow() {
    std::vector<std::int64_t> old(std::max<std::size_t>(16, 2 * slots_.size()),
                                  -1);
    old.swap(slots_);
    size_ = 0;
    for (const std::int64_t key : old) {
      if (key >= 0) insert(key);
    }
  }

  std::vector<std::int64_t> slots_;  // -1 = empty
  std::size_t size_ = 0;
};

// WalkAlgo hardened against message faults. Token hops carry a per-token
// sequence number packed into the routing word (id | seq << 44 — token ids
// stay well under 2^44 and a hop count under 2^19 keeps the word positive);
// receivers ack every copy they see and accept each (id, seq) once, senders
// retransmit un-acked hops on the same port after a timeout. Past the
// `deadline` round a vertex goes silent (still ingesting mail) so the run
// terminates even when a crashed leader makes delivery impossible; the
// host's epoch loop then re-elects and re-seeds. Payloads wait in
// WordBuffers, and the held and kept lists, the port loads and the accepted
// set keep their storage from round to round, so once they reach their
// working size a round allocates nothing.
class ReliableWalkAlgo final : public VertexAlgorithm {
 public:
  static constexpr int kSeqShift = 44;
  static constexpr std::int64_t kIdMask = (std::int64_t{1} << kSeqShift) - 1;

  struct Token {
    std::int64_t id = -1;
    std::int64_t next_seq = 0;  // sequence number of the token's next hop
    WordBuffer payload;
  };

  ReliableWalkAlgo(const std::vector<int>* intra,
                   const std::vector<int>* walk_index, bool is_leader,
                   std::vector<Token> initial, std::uint64_t seed,
                   int bandwidth, int timeout, std::int64_t deadline,
                   std::int64_t base_round, FirstArrivalRecorder* records)
      : intra_(intra),
        walk_index_(walk_index),
        is_leader_(is_leader),
        stream_(seed),
        bandwidth_(bandwidth),
        timeout_(timeout),
        deadline_(deadline),
        base_round_(base_round),
        records_(records),
        ack_queue_(intra->size()),
        load_(intra->size(), 0),
        held_(std::move(initial)) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    const int ports = static_cast<int>(intra_->size());
    const std::int64_t r = ctx.round();
    // Ingest: acks clear pending retransmissions; token messages are acked
    // unconditionally (the sender may be retrying a hop whose first copy
    // made it) and accepted once per (id, seq).
    for (int i = 0; i < ports; ++i) {
      const int port = (*intra_)[i];
      for (const Message& m : ctx.inbox(port)) {
        if (m.tag == kTagWalkAck) {
          for (const std::int64_t packed : m.words) clear_unacked(packed);
          continue;
        }
        const std::int64_t packed = m.words[0];
        ack_queue_[i].push_back(packed);
        if (!accepted_.insert(packed)) continue;  // dup/replay
        Token t;
        t.id = packed & kIdMask;
        t.next_seq = (packed >> kSeqShift) + 1;
        t.payload.assign(m.words.begin() + 1, m.words.end());
        records_->arrive(ctx.id(), t.id, port, base_round_ + r);
        (is_leader_ ? absorbed_ : held_).push_back(std::move(t));
      }
    }
    if (is_leader_ && !held_.empty()) {
      // A leader's own initial tokens are absorbed on the spot.
      for (Token& t : held_) absorbed_.push_back(std::move(t));
      held_.clear();
    }
    if (r >= deadline_) {
      gave_up_ = true;
      return;  // silent: kept tokens are the host's problem now
    }
    if (ports == 0) return;
    // Per-port budget, spent in priority order: acks, retransmissions,
    // fresh hops. Acks ride the same intra-cluster edges as the walks.
    std::fill(load_.begin(), load_.end(), 0);
    for (int i = 0; i < ports; ++i) {
      auto& queue = ack_queue_[i];
      std::size_t consumed = 0;
      while (consumed < queue.size() && load_[i] < bandwidth_) {
        Message m;
        m.tag = kTagWalkAck;
        const std::size_t take = std::min<std::size_t>(
            queue.size() - consumed, static_cast<std::size_t>(kMaxMessageWords));
        for (std::size_t k = 0; k < take; ++k) {
          m.words.push_back(queue[consumed++]);
        }
        ++load_[i];
        sent_ = true;
        ++ack_messages_;
        ctx.send((*intra_)[i], std::move(m));
      }
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
    if (is_leader_) return;
    for (Pending& u : unacked_) {
      if (r - u.sent_round < timeout_ || load_[u.port_index] >= bandwidth_) {
        continue;
      }
      ++load_[u.port_index];
      ++retransmissions_;
      sent_ = true;
      u.sent_round = r;
      ctx.send((*intra_)[u.port_index], token_message(u.packed, u.payload));
    }
    // Fresh hops go only to neighbors the host knows were alive at epoch
    // start (the crash-by-heartbeat assumption of DESIGN.md §12) and over
    // edges that are up: a hop into a crashed vertex or a deleted edge is
    // never acked and would pin the token in unacked_ for the rest of the
    // epoch. A pick of a down edge blocks the hop like a full port.
    if (held_.empty() || walk_index_->empty()) return;
    kept_.clear();
    for (Token& t : held_) {
      if (stream_.lazy()) {
        kept_.push_back(std::move(t));
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(
          (*walk_index_)[stream_.pick(walk_index_->size())]);
      if (load_[i] >= bandwidth_ || !ctx.port_live((*intra_)[i])) {
        kept_.push_back(std::move(t));
        continue;
      }
      ++load_[i];
      sent_ = true;
      const std::int64_t packed = t.id | (t.next_seq << kSeqShift);
      ctx.send((*intra_)[i], token_message(packed, t.payload));
      unacked_.push_back(Pending{packed, std::move(t.payload),
                                 static_cast<int>(i), r});
    }
    held_.swap(kept_);
  }

  bool finished() const override {
    if (!started_ || sent_) return false;
    if (gave_up_) return true;
    if (!held_.empty() || !unacked_.empty()) return false;
    for (const auto& queue : ack_queue_) {
      if (!queue.empty()) return false;
    }
    return true;
  }

  std::vector<Token>& absorbed() { return absorbed_; }
  std::int64_t retransmissions() const { return retransmissions_; }
  std::int64_t ack_messages() const { return ack_messages_; }

 private:
  struct Pending {
    std::int64_t packed = -1;
    WordBuffer payload;
    int port_index = -1;
    std::int64_t sent_round = -1;
  };

  static Message token_message(std::int64_t packed, const WordBuffer& payload) {
    Message m;
    m.tag = kTagWalkToken;
    m.words.push_back(packed);
    m.words.insert(m.words.end(), payload.begin(), payload.end());
    return m;
  }

  void clear_unacked(std::int64_t packed) {
    for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
      if (it->packed == packed) {
        unacked_.erase(it);
        return;
      }
    }
  }

  const std::vector<int>* intra_;
  const std::vector<int>* walk_index_;  // intra indices with live neighbors
  bool is_leader_;
  WalkStream stream_;
  int bandwidth_;
  int timeout_;
  std::int64_t deadline_;
  std::int64_t base_round_;
  FirstArrivalRecorder* records_;
  std::vector<std::vector<std::int64_t>> ack_queue_;  // per intra index
  std::vector<int> load_;  // per intra index, this round
  AcceptedSet accepted_;
  std::vector<Pending> unacked_;
  bool started_ = false;
  bool sent_ = false;
  bool gave_up_ = false;
  std::int64_t retransmissions_ = 0;
  std::int64_t ack_messages_ = 0;
  std::vector<Token> held_;
  std::vector<Token> kept_;
  std::vector<Token> absorbed_;
};

// --- Deterministic tree gather ---------------------------------------------------

// Tokens climb to the BFS parent in the walks' wire form, oldest first:
// arrivals join the back of the held list and a round sends from the front.
// The sent prefix is dropped once it is the larger part, so a token moves
// O(1) times on average, and a list at its working size allocates nothing.
class TreeClimbAlgo final : public VertexAlgorithm {
 public:
  TreeClimbAlgo(bool is_leader, int parent_port,
                std::vector<WordBuffer> initial, int bandwidth,
                FirstArrivalRecorder* records)
      : is_leader_(is_leader),
        parent_port_(parent_port),
        bandwidth_(bandwidth),
        records_(records),
        held_(std::move(initial)) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        records_->arrive(ctx.id(), m.words[0], p, ctx.round());
        held_.push_back(m.words);
      }
    }
    if (is_leader_) {
      for (WordBuffer& t : held_) absorbed_.push_back(std::move(t));
      held_.clear();
      return;
    }
    const std::size_t last = std::min(
        held_.size(), next_ + static_cast<std::size_t>(bandwidth_));
    for (; next_ < last; ++next_) {
      sent_ = true;
      ctx.send(parent_port_, Message{std::move(held_[next_]), kTagTreeToken});
    }
    if (2 * next_ >= held_.size()) {
      held_.erase(held_.begin(),
                  held_.begin() + static_cast<std::ptrdiff_t>(next_));
      next_ = 0;
    }
  }

  // held_ keeps a sent prefix only while more than as many wait behind it.
  bool finished() const override { return started_ && held_.empty() && !sent_; }
  std::vector<WordBuffer>& absorbed() { return absorbed_; }

 private:
  bool is_leader_;
  int parent_port_;
  int bandwidth_;
  FirstArrivalRecorder* records_;
  bool started_ = false;
  bool sent_ = false;
  std::vector<WordBuffer> held_;
  std::size_t next_ = 0;  // held_[0, next_) have been sent
  std::vector<WordBuffer> absorbed_;
};

// --- Convergecast -----------------------------------------------------------------

class ConvergecastAlgo final : public VertexAlgorithm {
 public:
  ConvergecastAlgo(bool is_root, int parent_port, std::int64_t value,
                   Fold fold)
      : is_root_(is_root), parent_port_(parent_port), total_(value),
        fold_(fold) {}

  void round(Context& ctx) override {
    if (done_) return;
    if (ctx.round() == 0) {
      if (!is_root_ && parent_port_ >= 0) {
        ctx.send(parent_port_, {{kTagChild}, kTagConvergecast});
      }
      return;
    }
    // Children announce themselves in round 0, so their announcements all
    // arrive in round 1, before any partial aggregate.
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        if (m.words[0] == kTagChild) {
          ++expected_children_;
          continue;
        }
        switch (fold_) {
          case Fold::kSum: total_ += m.words[1]; break;
          case Fold::kMin: total_ = std::min(total_, m.words[1]); break;
          case Fold::kMax: total_ = std::max(total_, m.words[1]); break;
        }
        ++received_children_;
      }
    }
    if (received_children_ == expected_children_) {
      if (!is_root_ && parent_port_ >= 0) {
        ctx.send(parent_port_, {{kTagSum, total_}, kTagConvergecast});
      }
      done_ = true;
    }
  }

  bool finished() const override { return done_; }
  std::int64_t total() const { return total_; }

 private:
  static constexpr std::int64_t kTagChild = 0;
  static constexpr std::int64_t kTagSum = 1;
  bool is_root_;
  int parent_port_;
  std::int64_t total_;
  Fold fold_;
  int expected_children_ = 0;
  int received_children_ = 0;
  bool done_ = false;
};

// --- Value flood --------------------------------------------------------------------

class FloodAlgo final : public VertexAlgorithm {
 public:
  FloodAlgo(const std::vector<int>* intra, bool is_source, std::int64_t value)
      : intra_(intra), value_(is_source ? value : -1) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) {
      if (value_ != -1) forward(ctx);
      return;
    }
    if (value_ != -1) return;
    for (int p : *intra_) {
      if (!ctx.inbox(p).empty()) {
        value_ = ctx.inbox(p)[0].words[0];
        forward(ctx);
        return;
      }
    }
  }

  bool finished() const override { return started_ && !sent_; }
  std::int64_t value() const { return value_; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p : *intra_) ctx.send(p, {{value_}, kTagBroadcast});
  }

  const std::vector<int>* intra_;
  std::int64_t value_;
  bool started_ = false;
  bool sent_ = false;
};

// --- Diameter self-check ---------------------------------------------------------------

class DiameterCheckAlgo final : public VertexAlgorithm {
 public:
  DiameterCheckAlgo(const std::vector<int>* intra, int bound)
      : intra_(intra), bound_(bound) {}

  void round(Context& ctx) override {
    const std::int64_t r = ctx.round();
    if (r == 0) max_id_ = ctx.id();
    if (r <= bound_) {
      // Flood phase: absorb neighbors' maxima, forward ours. The forward of
      // round `bound` is the settled value the next round compares.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          max_id_ = std::max(max_id_, m.words[0]);
        }
      }
      for (int p : *intra_) ctx.send(p, {{max_id_}, kTagDiameter});
    } else if (r <= bound_ + 2 + 2 * bound_) {
      // Round bound + 1 compares the settled maxima; later rounds spread
      // the mark.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          if (r == bound_ + 1 ? m.words[0] != max_id_ : m.words[0] == 1) {
            marked_ = true;
          }
        }
      }
      for (int p : *intra_) ctx.send(p, {{marked_ ? 1 : 0}, kTagDiameter});
      if (r == bound_ + 2 + 2 * bound_) done_ = true;
    } else {
      done_ = true;
    }
  }

  bool finished() const override { return done_; }
  bool marked() const { return marked_; }

 private:
  const std::vector<int>* intra_;
  int bound_;
  std::int64_t max_id_ = -1;
  bool marked_ = false;
  bool done_ = false;
};

// --- Path-length result return ----------------------------------------------------

// Where the replies of a path return wait and which way they go, for all
// vertices at once. A vertex writes only its own ports' heaps, arrival flag
// and word slot, the last when its reply arrives; a vertex that holds a
// reply reads its origin's slot when it sends it. So the shards of a
// parallel round never write the same element.
struct ReturnRoutes {
  struct Entry {
    VertexId origin = kInvalidVertex;  // the reply's origin
    int port = -1;                     // back toward the origin
    std::int32_t round = -1;  // forward round that first brought it here
  };
  static_assert(sizeof(Entry) == 12);
  // The replies that pass vertex v, by increasing origin:
  // entries[entry_begin[v], entry_begin[v + 1]).
  std::vector<std::size_t> entry_begin;
  std::vector<Entry> entries;
  // The replies waiting on directed port gp = port_base[v] + p: a min-heap
  // of keys in heap[heap_begin[gp], heap_begin[gp] + heap_size[gp]), with
  // room for every entry that leaves by that port. A key is
  // (INT32_MAX − round) << 32 | the entry's index among v's, so the latest
  // forward round comes first and ties go to the lower origin.
  std::vector<std::size_t> port_base;
  std::vector<std::size_t> heap_begin;
  std::vector<int> heap_size;
  std::vector<std::uint64_t> heap;
  // Per origin: its reply's word, overwritten by the word that reaches it,
  // and whether one did.
  std::vector<std::int64_t> word;
  std::vector<char> arrived;
  int cap = 1;  // replies per directed edge per round

  static std::uint64_t key(const Entry& e, std::size_t local) {
    return (std::uint64_t{static_cast<std::uint32_t>(
                std::numeric_limits<std::int32_t>::max() - e.round)}
            << 32) |
           local;
  }
  void push(std::size_t gp, std::uint64_t k) {
    std::uint64_t* h = heap.data() + heap_begin[gp];
    h[heap_size[gp]++] = k;
    std::push_heap(h, h + heap_size[gp], std::greater<>());
  }
};

// Each round: queue every arriving reply on the port back toward its origin
// (or keep its word, at the origin), then let each port send up to the cap
// of its waiting replies, highest priority first. Everything it touches was
// sized before the run, so a round allocates nothing (DESIGN.md §19).
class PathReturnAlgo final : public VertexAlgorithm {
 public:
  PathReturnAlgo(ReturnRoutes* routes, int waiting)
      : routes_(routes), waiting_(waiting) {}

  void round(Context& ctx) override {
    ReturnRoutes& r = *routes_;
    const VertexId v = ctx.id();
    sent_ = false;
    ReturnRoutes::Entry* first = r.entries.data() + r.entry_begin[v];
    ReturnRoutes::Entry* last = r.entries.data() + r.entry_begin[v + 1];
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        const auto origin = static_cast<VertexId>(m.words[0]);
        ReturnRoutes::Entry* e = std::lower_bound(
            first, last, origin,
            [](const ReturnRoutes::Entry& a, VertexId b) {
              return a.origin < b;
            });
        if (e == last || e->origin != origin) {
          r.word[v] = m.words[1];  // no way on: this is the origin
          r.arrived[v] = 1;
          continue;
        }
        r.push(r.port_base[v] + e->port,
               ReturnRoutes::key(*e, static_cast<std::size_t>(e - first)));
        ++waiting_;
      }
    }
    if (waiting_ == 0) return;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      const std::size_t gp = r.port_base[v] + p;
      std::uint64_t* h = r.heap.data() + r.heap_begin[gp];
      int& size = r.heap_size[gp];
      for (int sent = 0; sent < r.cap && size > 0; ++sent) {
        std::pop_heap(h, h + size, std::greater<>());
        const ReturnRoutes::Entry& e = first[h[--size] & 0xffffffffu];
        ctx.send(p, {{e.origin, r.word[e.origin]}, kTagReturnReply});
        --waiting_;
        sent_ = true;
      }
    }
  }

  // A vertex that sent stays unfinished for one more round, so the run
  // does not end with its replies in flight.
  bool finished() const override { return waiting_ == 0 && !sent_; }

 private:
  ReturnRoutes* routes_;
  int waiting_;  // replies held here, not yet sent
  bool sent_ = false;
};

// The port of v that leads to u, or -1 if u is not a neighbour of v. A BFS
// root's parent, kInvalidVertex, is nobody's neighbour.
int port_to(const Graph& g, VertexId v, VertexId u) {
  const auto nbrs = g.neighbors(v);
  const auto it = std::find(nbrs.begin(), nbrs.end(), u);
  return it == nbrs.end() ? -1 : static_cast<int>(it - nbrs.begin());
}

// Per vertex: its port to its BFS parent, -1 at a leader. Throws
// std::invalid_argument unless there is one parent per vertex and every
// non-leader's parent is a neighbour in its cluster from which the parents
// lead to a leader, so that every climb ends.
std::vector<int> parent_ports(const Graph& g,
                              const std::vector<int>& cluster_of,
                              const std::vector<VertexId>& leader_of,
                              const std::vector<VertexId>& bfs_parent) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto refuse = [](const std::string& why) {
    throw std::invalid_argument("tree_gather: " + why);
  };
  if (bfs_parent.size() != n) {
    refuse(std::to_string(bfs_parent.size()) + " parents for " +
           std::to_string(n) + " vertices");
  }
  // Climb from every vertex until a leader or a vertex known to reach one
  // (state 2), marking the climb (state 1) to catch a cycle.
  std::vector<int> port(n, -1);
  std::vector<char> state(n, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    VertexId u = v;
    for (; state[u] == 0 && leader_of[u] != u; u = bfs_parent[u]) {
      state[u] = 1;
      port[u] = port_to(g, u, bfs_parent[u]);
      if (port[u] < 0 || cluster_of[bfs_parent[u]] != cluster_of[u]) {
        refuse("vertex " + std::to_string(u) + "'s parent " +
               std::to_string(bfs_parent[u]) +
               " is not a neighbour in its cluster");
      }
    }
    if (state[u] == 1) {
      refuse("the parents of vertex " + std::to_string(v) +
             " climb in a cycle");
    }
    for (u = v; state[u] == 1; u = bfs_parent[u]) state[u] = 2;
  }
  return port;
}

// The data path of the walk and tree gathers (DESIGN.md §19): numbers the
// tokens into the result, records first arrivals behind `seen` (null: every
// arrival), builds vertex v's algorithm as make(v, its tokens in wire form
// [id, payload...], the recorder), runs them all on one Network and moves
// what the leaders absorbed into delivered, delivered_ids and complete.
template <typename Make>
GatherResult run_gather(const Graph& g, const std::vector<int>& cluster_of,
                        const std::vector<VertexId>& leader_of,
                        const std::vector<std::vector<GatherToken>>& tokens,
                        const NetworkOptions& net, SeenBits* seen,
                        const Make& make) {
  GatherResult result;
  result.bandwidth_tokens = net.bandwidth_tokens;
  const std::int64_t expected = number_tokens(tokens, result);
  FirstArrivalRecorder records(result, seen);

  auto run = run_each_vertex(g, net, [&](VertexId v) {
    std::vector<WordBuffer> initial;
    initial.reserve(tokens[v].size());
    std::int64_t id = result.token_begin[v];
    for (const GatherToken& t : tokens[v]) {
      WordBuffer wire{id++};
      wire.insert(wire.end(), t.payload.begin(), t.payload.end());
      initial.push_back(std::move(wire));
    }
    return make(v, std::move(initial), &records);
  });
  result.stats = run.stats;
  const int num_clusters = count_clusters(cluster_of);
  result.delivered.resize(num_clusters);
  result.delivered_ids.resize(num_clusters);
  std::int64_t received = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leader_of[v] != v) continue;
    auto& absorbed = run.at[v]->absorbed();
    received += static_cast<std::int64_t>(absorbed.size());
    auto& payloads = result.delivered[cluster_of[v]];
    auto& ids = result.delivered_ids[cluster_of[v]];
    for (const WordBuffer& t : absorbed) {
      ids.push_back(t[0]);
      payloads.emplace_back(t.begin() + 1, t.end());
    }
  }
  result.complete = (received == expected);
  return result;
}

}  // namespace

LeaderElectionResult elect_cluster_leaders(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           const NetworkOptions& net) {
  PhaseScope phase(net, "leader_election");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<LeaderElectionAlgo>(&intra[v]);
  });
  LeaderElectionResult result;
  result.stats = run.stats;
  for (const LeaderElectionAlgo* a : run.at) {
    result.leader_of.push_back(a->leader());
  }
  return result;
}

BfsTreeResult build_cluster_bfs_trees(const Graph& g,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<VertexId>& leader_of,
                                      const NetworkOptions& net) {
  PhaseScope phase(net, "bfs_tree");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<BfsAlgo>(&intra[v], leader_of[v] == v);
  });
  BfsTreeResult result;
  result.stats = run.stats;
  for (const BfsAlgo* a : run.at) {
    result.parent.push_back(a->parent());
    result.depth.push_back(a->depth());
    result.max_depth = std::max(result.max_depth, a->depth());
  }
  return result;
}

OrientationResult orient_cluster_edges(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       int peel_threshold,
                                       const NetworkOptions& net) {
  PhaseScope phase(net, "orientation");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<PeelAlgo>(&intra[v], peel_threshold);
  });
  OrientationResult result;
  result.stats = run.stats;
  result.owned.resize(g.num_vertices());
  std::int64_t max_phase = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto eids = g.incident_edges(v);
    for (int port : run.at[v]->owned_ports()) {
      result.owned[v].push_back(eids[port]);
    }
    result.max_out_degree = std::max(
        result.max_out_degree, static_cast<int>(result.owned[v].size()));
    max_phase = std::max(max_phase, run.at[v]->peel_round());
  }
  result.peeling_phases = static_cast<int>(max_phase) + 1;
  return result;
}

GatherResult random_walk_gather(const Graph& g,
                                const std::vector<int>& cluster_of,
                                const std::vector<VertexId>& leader_of,
                                const std::vector<std::vector<GatherToken>>& tokens,
                                const GatherOptions& options) {
  PhaseScope phase(options.net, "walk_gather");
  check_gather("random_walk_gather", g, cluster_of, leader_of, tokens,
               options.net.max_rounds);
  const auto intra = intra_cluster_ports(g, cluster_of);
  SeenBits seen(cluster_of);
  return run_gather(
      g, cluster_of, leader_of, tokens, options.net, &seen,
      [&](VertexId v, std::vector<WordBuffer> initial,
          FirstArrivalRecorder* records) {
        return std::make_unique<WalkAlgo>(
            &intra[v], leader_of[v] == v, std::move(initial),
            options.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)),
            options.net.bandwidth_tokens, records);
      });
}

ReliableGatherResult reliable_walk_gather(
    const Graph& g, const std::vector<int>& cluster_of,
    const std::vector<VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const ReliableGatherOptions& options) {
  PhaseScope gather_phase(options.net, "fault:reliable_gather");
  const FaultPlan& base_plan = options.net.faults;
  const int delay_span =
      base_plan.delay_probability > 0.0 ? base_plan.max_delay_rounds : 0;
  // Each epoch runs at most one re-election plus one epoch network run. A
  // max_rounds past INT32_MAX fails the check as INT32_MAX does.
  check_gather("reliable_walk_gather", g, cluster_of, leader_of, tokens,
               std::min<std::int64_t>(options.net.max_rounds, INT32_MAX) +
                   options.epoch_rounds + delay_span + 8,
               options.max_epochs);
  const auto intra = intra_cluster_ports(g, cluster_of);
  const int n = g.num_vertices();
  // Rounds a sender waits for an ack before retransmitting on the same
  // port: a hop and its ack, each possibly delayed.
  const int timeout = 4 + 2 * delay_span;

  ReliableGatherResult result;
  GatherResult& gather = result.gather;
  gather.bandwidth_tokens = options.net.bandwidth_tokens;
  number_tokens(tokens, gather);
  SeenBits seen(cluster_of);
  FirstArrivalRecorder records(gather, &seen);

  // Host-side token table: the authoritative record of where every token
  // is. Tokens in flight or stranded when an epoch ends are re-seeded at
  // their origins; only an absorption at a live leader is durable.
  struct TokenState {
    VertexId origin = kInvalidVertex;
    std::vector<std::int64_t> payload;
    VertexId absorbed_by = kInvalidVertex;
  };
  std::vector<TokenState> toks;
  for (VertexId v = 0; v < n; ++v) {
    for (const GatherToken& t : tokens[v]) {
      TokenState ts;
      ts.origin = v;
      ts.payload = t.payload;
      toks.push_back(std::move(ts));
    }
  }

  std::vector<std::int64_t> crash_round(
      n, std::numeric_limits<std::int64_t>::max());
  for (const CrashEvent& c : base_plan.crashes) {
    crash_round[c.vertex] = std::min(crash_round[c.vertex], c.round);
  }
  // The plan's crash and churn schedules for a run (a re-election or an
  // epoch) that starts at cumulative round `base`. An event that fired in an
  // earlier run fires again at round 0, so the run starts from the vertices
  // and topology as they stand, and `rebased_run` takes it back out of the
  // run's stats. Churn is ordered by round first, so that the events moved
  // to round 0 still apply in the order they fired.
  std::vector<ChurnEvent> churn = base_plan.churn;
  std::stable_sort(churn.begin(), churn.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.round < b.round;
                   });
  const auto rebase = [&](std::int64_t base, FaultPlan& plan) {
    plan.crashes.clear();
    for (const CrashEvent& c : base_plan.crashes) {
      plan.crashes.push_back(
          CrashEvent{c.vertex, std::max<std::int64_t>(0, c.round - base)});
    }
    plan.churn = churn;
    for (ChurnEvent& e : plan.churn) {
      e.round = std::max<std::int64_t>(0, e.round - base);
    }
  };
  // A run's stats with the re-fired events taken out. They all fire in
  // round 0, so only a run that executed a round counted them: a crashed
  // vertex once, and every churn event.
  const auto rebased_run = [&](std::int64_t base, RunStats stats) {
    if (stats.rounds == 0) return stats;
    for (const std::int64_t c : crash_round) stats.vertices_crashed -= c < base;
    for (const ChurnEvent& e : churn) stats.churn_events -= e.round < base;
    return stats;
  };
  result.final_leader_of = leader_of;
  std::int64_t base_round = 0;
  bool all_absorbed = toks.empty();
  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    // An absorption only survives while its leader does: a leader that has
    // crash-stopped by now takes its gathered payloads down with it.
    all_absorbed = true;
    for (std::size_t id = 0; id < toks.size(); ++id) {
      TokenState& ts = toks[id];
      if (ts.absorbed_by != kInvalidVertex &&
          crash_round[ts.absorbed_by] <= base_round) {
        ts.absorbed_by = kInvalidVertex;
      }
      if (ts.absorbed_by == kInvalidVertex) {
        if (crash_round[ts.origin] <= base_round) continue;  // orphaned
        all_absorbed = false;
        if (epoch > 0) {
          // Re-seed at the origin: whatever partial path the token walked
          // last epoch is void, and so are its first-arrival records. A
          // token whose origin itself crash-stopped is orphaned instead — no
          // live vertex is responsible for re-introducing it, so it drops
          // out of the completeness contract rather than wedging it.
          records.forget(static_cast<std::int64_t>(id));
        }
      }
    }
    if (all_absorbed) break;

    // Re-elect when any current leader is dead (always re-check after the
    // first epoch: give-ups mean some cluster made no progress). Election
    // traffic is modeled crash-accurately but message-reliable — the §12
    // determinism contract treats the control plane as reliable, which is
    // also what keeps the election's own convergence guarantee intact.
    bool leader_dead = false;
    for (VertexId v = 0; v < n; ++v) {
      if (result.final_leader_of[v] == v && crash_round[v] <= base_round) {
        leader_dead = true;
        break;
      }
    }
    if (leader_dead) {
      PhaseScope reelect_phase(options.net, "fault:reelect");
      NetworkOptions eopt = options.net;
      eopt.faults = FaultPlan{};
      rebase(base_round, eopt.faults);
      const LeaderElectionResult elect =
          elect_cluster_leaders(g, cluster_of, eopt);
      result.final_leader_of = elect.leader_of;
      gather.stats += rebased_run(base_round, elect.stats);
      base_round += elect.stats.rounds;
      ++result.reelections;
    }

    PhaseScope epoch_phase(options.net, "fault:epoch");
    NetworkOptions nopt = options.net;
    FaultPlan& plan = nopt.faults;
    plan.seed = epoch == 0 ? base_plan.seed
                           : graph::splitmix64(base_plan.seed + epoch);
    rebase(base_round, plan);
    // The message-fault window, moved onto this run's rounds. Parts of it
    // that fall before round 0 are rounds this run never has.
    plan.first_faulty_round = base_plan.first_faulty_round - base_round;
    plan.last_faulty_round = base_plan.last_faulty_round - base_round;
    // The give-up deadline bounds the run: after it nobody sends, so the
    // network drains within the residual delay span.
    nopt.max_rounds = options.epoch_rounds + delay_span + 8;

    // Fresh hops avoid neighbors known dead at epoch start (crashes the
    // plan has already fired — the heartbeat failure-detector assumption):
    // a hop into a crashed vertex is never acked, so without this a token
    // re-enters the dead port every epoch and never converges.
    std::vector<std::vector<int>> walk_index(n);
    for (VertexId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      walk_index[v].reserve(intra[v].size());
      for (std::size_t i = 0; i < intra[v].size(); ++i) {
        if (crash_round[nbrs[intra[v][i]]] > base_round) {
          walk_index[v].push_back(static_cast<int>(i));
        }
      }
    }
    std::vector<std::vector<ReliableWalkAlgo::Token>> initial(n);
    for (std::size_t id = 0; id < toks.size(); ++id) {
      if (toks[id].absorbed_by != kInvalidVertex) continue;
      if (crash_round[toks[id].origin] <= base_round) continue;  // orphaned
      ReliableWalkAlgo::Token t;
      t.id = static_cast<std::int64_t>(id);
      t.payload = toks[id].payload;
      initial[toks[id].origin].push_back(std::move(t));
    }
    const auto run = run_each_vertex(g, nopt, [&](VertexId v) {
      return std::make_unique<ReliableWalkAlgo>(
          &intra[v], &walk_index[v], result.final_leader_of[v] == v,
          std::move(initial[v]),
          graph::splitmix64(graph::splitmix64(options.seed + epoch) ^
                            (0x9e3779b97f4a7c15ULL * (v + 1))),
          options.net.bandwidth_tokens, timeout, options.epoch_rounds,
          base_round, &records);
    });
    gather.stats += rebased_run(base_round, run.stats);
    base_round += run.stats.rounds;
    ++result.epochs;
    for (VertexId v = 0; v < n; ++v) {
      result.retransmissions += run.at[v]->retransmissions();
      result.ack_messages += run.at[v]->ack_messages();
      for (const ReliableWalkAlgo::Token& t : run.at[v]->absorbed()) {
        toks[t.id].absorbed_by = v;
      }
    }
    if (epoch + 1 == options.max_epochs) {
      // Last epoch ran without a trailing boundary check: apply it here so
      // `complete` means what it says.
      all_absorbed = true;
      for (TokenState& ts : toks) {
        const bool delivered = ts.absorbed_by != kInvalidVertex &&
                               crash_round[ts.absorbed_by] > base_round;
        if (delivered || crash_round[ts.origin] <= base_round) continue;
        all_absorbed = false;
        break;
      }
    }
  }
  // An absorption at a leader that has crashed by the end of the run is
  // lost with the leader; never report it as delivered.
  for (TokenState& ts : toks) {
    if (ts.absorbed_by != kInvalidVertex &&
        crash_round[ts.absorbed_by] <= base_round) {
      ts.absorbed_by = kInvalidVertex;
    }
  }

  const int num_clusters = count_clusters(cluster_of);
  gather.delivered.resize(num_clusters);
  gather.delivered_ids.resize(num_clusters);
  for (std::size_t id = 0; id < toks.size(); ++id) {
    TokenState& ts = toks[id];
    if (ts.absorbed_by == kInvalidVertex) continue;
    const int c = cluster_of[ts.origin];
    gather.delivered_ids[c].push_back(static_cast<std::int64_t>(id));
    gather.delivered[c].push_back(std::move(ts.payload));
  }
  gather.complete = all_absorbed;
  return result;
}

PathReturnResult return_along_paths(const Graph& g,
                                    const GatherResult& gather,
                                    const std::vector<std::int64_t>& words,
                                    const NetworkOptions& net) {
  PhaseScope phase(net, "path_return");
  const int n = g.num_vertices();
  const auto refuse = [](const std::string& why) {
    throw std::invalid_argument("return_along_paths: " + why);
  };
  if (words.size() != static_cast<std::size_t>(n) ||
      gather.first_arrivals.size() != static_cast<std::size_t>(n)) {
    refuse(std::to_string(words.size()) + " words and " +
           std::to_string(gather.first_arrivals.size()) +
           " first-arrival lists for " + std::to_string(n) + " vertices");
  }
  if (net.faults.enabled()) {
    refuse("the network has a fault plan; a reply is not resent, and its "
           "port's queue has room for one copy");
  }
  ReturnRoutes r;
  r.cap = std::max(
      1, std::min(gather.stats.max_edge_load, gather.bandwidth_tokens));
  r.word = words;
  r.arrived.assign(n, 0);
  r.port_base.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    r.port_base[v + 1] = r.port_base[v] + static_cast<std::size_t>(g.degree(v));
  }

  // Step back through origin's list, from its last record (the leader's) to
  // the origin, visiting the record of each step: a record's port leads to
  // the vertex that first handed the registration over, whose own first
  // arrival is an earlier record.
  const auto where = [](VertexId origin, const FirstArrival& a) {
    return "vertex " + std::to_string(origin) + "'s registration at " +
           std::to_string(a.at);
  };
  const auto step_back = [&](VertexId origin, const auto& visit) {
    const std::vector<FirstArrival>& list = gather.first_arrivals[origin];
    for (std::size_t j = list.size(); j > 0;) {
      const FirstArrival& a = list[j - 1];
      if (a.at < 0 || a.at >= n || a.port < 0 || a.port >= g.degree(a.at)) {
        refuse(where(origin, a) + " port " + std::to_string(a.port) +
               " lies outside the graph");
      }
      visit(a);
      const VertexId from = g.neighbors(a.at)[a.port];
      if (from == origin) return;
      do {
        --j;
      } while (j > 0 && list[j - 1].at != from);
      if (j == 0 || list[j - 1].round >= a.round) {
        refuse(where(origin, a) + " came from " + std::to_string(from) +
               ", which it had not reached before");
      }
    }
  };

  // First pass: check every path and count the entries each vertex holds
  // and each port sends. on_path[u] == origin marks u as a step of
  // origin's path.
  std::vector<VertexId> on_path(static_cast<std::size_t>(n), kInvalidVertex);
  r.entry_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  r.heap_begin.assign(r.port_base[n] + 1, 0);
  for (VertexId origin = 0; origin < n; ++origin) {
    step_back(origin, [&](const FirstArrival& a) {
      if (a.at == origin || on_path[a.at] == origin) {
        refuse(where(origin, a) + " comes back to a vertex of its path");
      }
      on_path[a.at] = origin;
      ++r.entry_begin[static_cast<std::size_t>(a.at) + 1];
      ++r.heap_begin[r.port_base[a.at] + a.port + 1];
    });
  }
  std::partial_sum(r.entry_begin.begin(), r.entry_begin.end(),
                   r.entry_begin.begin());
  std::partial_sum(r.heap_begin.begin(), r.heap_begin.end(),
                   r.heap_begin.begin());
  const std::size_t hops = r.entry_begin[n];
  r.entries.resize(hops);
  r.heap.resize(hops);
  r.heap_size.assign(r.port_base[n], 0);

  // Second pass: fill the entries in origin order, so each vertex's are
  // sorted by origin, and queue each reply at its path's first step, the
  // leader. A reply with no path is at its origin already.
  std::vector<std::size_t> fill(r.entry_begin.begin(), r.entry_begin.end() - 1);
  std::vector<int> waiting(n, 0);
  for (VertexId origin = 0; origin < n; ++origin) {
    const std::vector<FirstArrival>& list = gather.first_arrivals[origin];
    r.arrived[origin] = list.empty();
    step_back(origin, [&](const FirstArrival& a) {
      const std::size_t e = fill[a.at]++;
      r.entries[e] = {origin, a.port, a.round};
      if (&a != &list.back()) return;
      r.push(r.port_base[a.at] + a.port,
             ReturnRoutes::key(r.entries[e], e - r.entry_begin[a.at]));
      ++waiting[a.at];
    });
  }

  PathReturnResult result;
  if (hops > 0) {
    NetworkOptions opt = net;
    opt.bandwidth_tokens = r.cap;
    result.stats = run_each_vertex(g, opt, [&](VertexId v) {
                     return std::make_unique<PathReturnAlgo>(&r, waiting[v]);
                   }).stats;
  }
  result.word = std::move(r.word);
  result.arrived = std::move(r.arrived);
  return result;
}

BroadcastResult broadcast_from_leaders(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<VertexId>& leader_of,
                                       const std::vector<std::int64_t>& leader_value,
                                       const NetworkOptions& net) {
  PhaseScope phase(net, "broadcast");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<FloodAlgo>(&intra[v], leader_of[v] == v,
                                       leader_value[v]);
  });
  BroadcastResult result;
  result.stats = run.stats;
  for (const FloodAlgo* a : run.at) result.value.push_back(a->value());
  return result;
}

GatherResult tree_gather(const Graph& g, const std::vector<int>& cluster_of,
                         const std::vector<VertexId>& leader_of,
                         const std::vector<VertexId>& bfs_parent,
                         const std::vector<std::vector<GatherToken>>& tokens,
                         const NetworkOptions& net) {
  PhaseScope phase(net, "tree_gather");
  check_gather("tree_gather", g, cluster_of, leader_of, tokens,
               net.max_rounds);
  const std::vector<int> parent_port =
      parent_ports(g, cluster_of, leader_of, bfs_parent);
  return run_gather(
      g, cluster_of, leader_of, tokens, net, nullptr,
      [&](VertexId v, std::vector<WordBuffer> initial,
          FirstArrivalRecorder* records) {
        return std::make_unique<TreeClimbAlgo>(
            leader_of[v] == v, parent_port[v], std::move(initial),
            net.bandwidth_tokens, records);
      });
}

ConvergecastResult convergecast_fold(const Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<VertexId>& leader_of,
                                     const std::vector<VertexId>& bfs_parent,
                                     const std::vector<std::int64_t>& value,
                                     Fold fold, const NetworkOptions& net) {
  PhaseScope phase(net, "convergecast");
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<ConvergecastAlgo>(
        leader_of[v] == v, port_to(g, v, bfs_parent[v]), value[v], fold);
  });
  ConvergecastResult result;
  result.stats = run.stats;
  result.sum.assign(count_clusters(cluster_of), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leader_of[v] == v) result.sum[cluster_of[v]] = run.at[v]->total();
  }
  return result;
}

DiameterCheckResult check_cluster_diameter(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           int bound,
                                           const NetworkOptions& net) {
  PhaseScope phase(net, "diameter_check");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const auto run = run_each_vertex(g, net, [&](VertexId v) {
    return std::make_unique<DiameterCheckAlgo>(&intra[v], bound);
  });
  DiameterCheckResult result;
  result.stats = run.stats;
  for (const DiameterCheckAlgo* a : run.at) {
    result.within_bound.push_back(!a->marked());
  }
  return result;
}

}  // namespace ecd::congest
