#include "src/congest/primitives.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/congest/trace.h"
#include "src/graph/splitmix.h"

namespace ecd::congest {

using graph::EdgeId;
using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

namespace {

// Ports of v whose neighbor lies in the same cluster.
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

// Hop rounds are 32-bit (TokenHop::round). A gather whose budget — `runs`
// network runs of at most `run_rounds` rounds each — could pass INT32_MAX
// is rejected before it starts, so a recorded round never wraps.
void check_round_budget(const char* gather, std::int64_t run_rounds,
                        std::int64_t runs = 1) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (run_rounds > kMax ||
      runs > kMax / std::max<std::int64_t>(1, run_rounds)) {
    throw std::invalid_argument(std::string(gather) +
                                ": round budget exceeds INT32_MAX, the range "
                                "of a hop round");
  }
}

// LEB128: seven bits a byte, low bits first, high bit set on every byte but
// the last.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80));
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t byte = in[pos++];
    v |= std::uint64_t{byte & 0x7fu} << shift;
    if (byte < 0x80) return v;
  }
}

// --- Leader election ----------------------------------------------------------

class LeaderElectionAlgo final : public VertexAlgorithm {
 public:
  LeaderElectionAlgo(const std::vector<int>* intra, int intra_degree)
      : intra_(intra), intra_degree_(intra_degree) {}

  void round(Context& ctx) override {
    started_ = true;
    bool changed = false;
    if (ctx.round() == 0) {
      best_ = {intra_degree_, ctx.id()};
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
  int intra_degree_;
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
    if (ctx.round() == 0) {
      for (int p : *intra_) alive_port_.push_back(p);
    }
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
           int bandwidth, std::vector<TokenTrace>* traces)
      : intra_(intra),
        is_leader_(is_leader),
        stream_(seed),
        bandwidth_(bandwidth),
        traces_(traces),
        held_(std::move(initial_tokens)),
        port_load_(intra->size(), 0) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) held_.push_back(m.words);
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
      const int port = (*intra_)[i];
      // Local bookkeeping for the reversed delivery (§2.2): the trace
      // records which way the token went and when.
      (*traces_)[static_cast<std::size_t>(t[0])].append(
          {ctx.neighbor(port), static_cast<std::int32_t>(ctx.round())});
      ctx.send(port, Message{std::move(t), kTagWalkToken});
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
  std::vector<TokenTrace>* traces_;
  bool started_ = false;
  bool sent_ = false;
  std::vector<WordBuffer> held_;
  std::vector<WordBuffer> kept_;
  std::vector<int> port_load_;  // per intra index, this round
  std::vector<WordBuffer> absorbed_;
};

// --- Reliable random-walk gather (DESIGN.md §12) ---------------------------------

// WalkAlgo hardened against message faults. Token hops carry a per-token
// sequence number packed into the routing word (id | seq << 44 — token ids
// stay well under 2^44 and a hop count under 2^19 keeps the word positive);
// receivers ack every copy they see and accept each (id, seq) once, senders
// retransmit un-acked hops on the same port after a timeout. Past the
// `deadline` round a vertex goes silent (still ingesting mail) so the run
// terminates even when a crashed leader makes delivery impossible; the
// host's epoch loop then re-elects and re-seeds.
class ReliableWalkAlgo final : public VertexAlgorithm {
 public:
  static constexpr int kSeqShift = 44;
  static constexpr std::int64_t kIdMask = (std::int64_t{1} << kSeqShift) - 1;

  struct Token {
    std::int64_t id = -1;
    std::int64_t next_seq = 0;  // sequence number of the token's next hop
    std::vector<std::int64_t> payload;
  };

  ReliableWalkAlgo(const std::vector<int>* intra,
                   const std::vector<int>* walk_index, bool is_leader,
                   std::vector<Token> initial, std::uint64_t seed,
                   int bandwidth, int timeout, std::int64_t deadline,
                   std::int64_t base_round, std::vector<TokenTrace>* traces)
      : intra_(intra),
        walk_index_(walk_index),
        is_leader_(is_leader),
        stream_(seed),
        bandwidth_(bandwidth),
        timeout_(timeout),
        deadline_(deadline),
        base_round_(base_round),
        traces_(traces),
        ack_queue_(intra->size()) {
    for (auto& t : initial) held_.push_back(std::move(t));
  }

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    const int ports = static_cast<int>(intra_->size());
    // Ingest: acks clear pending retransmissions; token messages are acked
    // unconditionally (the sender may be retrying a hop whose first copy
    // made it) and accepted once per (id, seq).
    for (int i = 0; i < ports; ++i) {
      for (const Message& m : ctx.inbox((*intra_)[i])) {
        if (m.tag == kTagWalkAck) {
          for (const std::int64_t packed : m.words) clear_unacked(packed);
          continue;
        }
        const std::int64_t packed = m.words[0];
        ack_queue_[i].push_back(packed);
        if (!accepted_.insert(packed).second) continue;  // dup/replay
        Token t;
        t.id = packed & kIdMask;
        t.next_seq = (packed >> kSeqShift) + 1;
        t.payload.assign(m.words.begin() + 1, m.words.end());
        if (is_leader_) {
          absorbed_.push_back(std::move(t));
        } else {
          held_.push_back(std::move(t));
        }
      }
    }
    if (is_leader_ && !held_.empty()) {
      // A leader's own initial tokens are absorbed on the spot.
      for (auto& t : held_) absorbed_.push_back(std::move(t));
      held_.clear();
    }
    const std::int64_t r = ctx.round();
    if (r >= deadline_) {
      gave_up_ = true;
      return;  // silent: kept tokens are the host's problem now
    }
    if (ports == 0) return;
    // Per-port budget, spent in priority order: acks, retransmissions,
    // fresh hops. Acks ride the same intra-cluster edges as the walks.
    std::vector<int> load(ports, 0);
    for (int i = 0; i < ports; ++i) {
      auto& queue = ack_queue_[i];
      std::size_t consumed = 0;
      while (consumed < queue.size() && load[i] < bandwidth_) {
        Message m;
        m.tag = kTagWalkAck;
        const std::size_t take = std::min<std::size_t>(
            queue.size() - consumed, static_cast<std::size_t>(kMaxMessageWords));
        for (std::size_t k = 0; k < take; ++k) {
          m.words.push_back(queue[consumed++]);
        }
        ++load[i];
        sent_ = true;
        ++ack_messages_;
        ctx.send((*intra_)[i], std::move(m));
      }
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
    if (is_leader_) return;
    for (Pending& u : unacked_) {
      if (r - u.sent_round < timeout_ || load[u.port_index] >= bandwidth_) {
        continue;
      }
      ++load[u.port_index];
      ++retransmissions_;
      sent_ = true;
      u.sent_round = r;
      ctx.send((*intra_)[u.port_index], token_message(u.packed, u.payload));
    }
    // Fresh hops go only to neighbors the host knows were alive at epoch
    // start (the crash-by-heartbeat assumption of DESIGN.md §12): a hop into
    // a crashed vertex is never acked and would pin the token in unacked_
    // for the rest of the epoch.
    if (held_.empty() || walk_index_->empty()) return;
    std::deque<Token> keep;
    while (!held_.empty()) {
      Token t = std::move(held_.front());
      held_.pop_front();
      if (stream_.lazy()) {
        keep.push_back(std::move(t));
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(
          (*walk_index_)[stream_.pick(walk_index_->size())]);
      if (load[i] >= bandwidth_) {
        keep.push_back(std::move(t));
        continue;
      }
      ++load[i];
      sent_ = true;
      const std::int64_t seq = t.next_seq++;
      const std::int64_t packed = t.id | (seq << kSeqShift);
      // The hop is recorded once, at first transmission; retransmissions
      // re-send the identical hop, so the trace stays a faithful record of
      // the walk and the return remains routable.
      (*traces_)[t.id].append({ctx.neighbor((*intra_)[i]),
                               static_cast<std::int32_t>(base_round_ + r)});
      ctx.send((*intra_)[i], token_message(packed, t.payload));
      unacked_.push_back(Pending{packed, std::move(t.payload),
                                 static_cast<int>(i), r});
    }
    held_ = std::move(keep);
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
    std::vector<std::int64_t> payload;
    int port_index = -1;
    std::int64_t sent_round = -1;
  };

  static Message token_message(std::int64_t packed,
                               const std::vector<std::int64_t>& payload) {
    Message m;
    m.tag = kTagWalkToken;
    m.words.reserve(payload.size() + 1);
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
  std::vector<TokenTrace>* traces_;
  std::vector<std::vector<std::int64_t>> ack_queue_;  // per intra index
  std::set<std::int64_t> accepted_;
  std::vector<Pending> unacked_;
  bool started_ = false;
  bool sent_ = false;
  bool gave_up_ = false;
  std::int64_t retransmissions_ = 0;
  std::int64_t ack_messages_ = 0;
  std::deque<Token> held_;
  std::vector<Token> absorbed_;
};

// --- Deterministic tree gather ---------------------------------------------------

class TreeClimbAlgo final : public VertexAlgorithm {
 public:
  TreeClimbAlgo(bool is_leader, int parent_port,
                std::vector<std::vector<std::int64_t>> initial, int bandwidth)
      : is_leader_(is_leader), parent_port_(parent_port), bandwidth_(bandwidth) {
    for (auto& p : initial) held_.push_back(std::move(p));
  }

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) held_.push_back(m.words.to_vector());
    }
    if (is_leader_) {
      for (auto& t : held_) absorbed_.push_back(std::move(t));
      held_.clear();
      return;
    }
    if (parent_port_ < 0) return;  // orphan (singleton handled as leader)
    int budget = bandwidth_;
    while (!held_.empty() && budget-- > 0) {
      sent_ = true;
      ctx.send(parent_port_, {std::move(held_.front()), kTagTreeToken});
      held_.pop_front();
    }
  }

  bool finished() const override { return started_ && held_.empty() && !sent_; }
  std::vector<std::vector<std::int64_t>>& absorbed() { return absorbed_; }

 private:
  bool is_leader_;
  int parent_port_;
  int bandwidth_;
  bool started_ = false;
  bool sent_ = false;
  std::deque<std::vector<std::int64_t>> held_;
  std::vector<std::vector<std::int64_t>> absorbed_;
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
    if (ctx.round() == 1) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == kTagChild) ++expected_children_;
        }
      }
    } else {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == kTagSum) {
            switch (fold_) {
              case Fold::kSum: total_ += m.words[1]; break;
              case Fold::kMin: total_ = std::min(total_, m.words[1]); break;
              case Fold::kMax: total_ = std::max(total_, m.words[1]); break;
            }
            ++received_children_;
          }
        }
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
    if (r < bound_) {
      // Flood phase: absorb neighbors' maxima, forward ours.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          max_id_ = std::max(max_id_, m.words[0]);
        }
      }
      for (int p : *intra_) ctx.send(p, {{max_id_}, kTagDiameter});
    } else if (r == bound_) {
      // Final absorb, then exchange the settled value for comparison.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          max_id_ = std::max(max_id_, m.words[0]);
        }
      }
      for (int p : *intra_) ctx.send(p, {{max_id_}, kTagDiameter});
    } else if (r == bound_ + 1) {
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] != max_id_) marked_ = true;
        }
      }
      for (int p : *intra_) ctx.send(p, {{marked_ ? 1 : 0}, kTagDiameter});
    } else if (r <= bound_ + 2 + 2 * bound_) {
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == 1) marked_ = true;
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
// vertices at once. A vertex reads and writes only its own entries, ports
// and result slots, so the shards of a parallel round never write the same
// element.
struct ReturnRoutes {
  struct Entry {
    std::int64_t id = -1;     // the token
    std::int64_t word = 0;    // its reply, once the reply is here
    int port = -1;            // back toward the token's origin
    std::int32_t round = -1;  // forward round that first brought it here
  };
  // The replies that pass vertex v, by increasing token id:
  // entries[entry_begin[v], entry_begin[v + 1]).
  std::vector<std::size_t> entry_begin;
  std::vector<Entry> entries;
  // The replies waiting on directed port gp = port_base[v] + p: a min-heap
  // of keys in heap[heap_begin[gp], heap_begin[gp] + heap_size[gp]), with
  // room for every entry that leaves by that port. A key is
  // (INT32_MAX − round) << 32 | the entry's index among v's, so the latest
  // forward round comes first and ties go to the lower token id.
  std::vector<std::size_t> port_base;
  std::vector<std::size_t> heap_begin;
  std::vector<int> heap_size;
  std::vector<std::uint64_t> heap;
  // Per vertex: the word its reply brought back, and whether one arrived.
  std::vector<std::int64_t> received;
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
        ReturnRoutes::Entry* e = std::lower_bound(
            first, last, m.words[0],
            [](const ReturnRoutes::Entry& a, std::int64_t b) {
              return a.id < b;
            });
        if (e == last || e->id != m.words[0]) {
          r.received[v] = m.words[1];  // no way on: this is the origin
          r.arrived[v] = 1;
          continue;
        }
        e->word = m.words[1];
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
        ctx.send(p, {{e.id, e.word}, kTagReturnReply});
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

}  // namespace

// A hop is zig-zag(to − from), so that a short step of either sign takes one
// byte, then the rounds it waited since the previous hop.
void TokenTrace::append(TokenHop hop) {
  if (hop.round <= last_.round) {
    throw std::invalid_argument("TokenTrace::append: hop rounds must increase");
  }
  const VertexId from = hop_count_ == 0 ? origin : last_.to;
  const std::int64_t step = std::int64_t{hop.to} - from;
  put_varint(log_, (static_cast<std::uint64_t>(step) << 1) ^
                       static_cast<std::uint64_t>(step >> 63));
  put_varint(log_, static_cast<std::uint64_t>(std::int64_t{hop.round} -
                                              last_.round - 1));
  last_ = hop;
  ++hop_count_;
}

void TokenTrace::clear() {
  log_.clear();
  last_ = {};
  hop_count_ = 0;
}

std::size_t TokenTrace::decode(std::size_t pos, TokenHop& hop) const {
  const std::uint64_t zigzag = get_varint(log_, pos);
  const std::uint64_t step = (zigzag >> 1) ^ (std::uint64_t{0} - (zigzag & 1));
  hop.to = static_cast<VertexId>(hop.to + static_cast<std::int64_t>(step));
  const auto wait = static_cast<std::int64_t>(get_varint(log_, pos));
  hop.round = static_cast<std::int32_t>(hop.round + 1 + wait);
  return pos;
}

std::vector<TokenHop> TokenTrace::hops() const {
  std::vector<TokenHop> out;
  out.reserve(static_cast<std::size_t>(hop_count_));
  TokenHop hop{origin, -1};
  for (std::size_t pos = 0; pos < log_.size();) {
    pos = decode(pos, hop);
    out.push_back(hop);
  }
  return out;
}

LeaderElectionResult elect_cluster_leaders(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "leader_election");
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  std::vector<LeaderElectionAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<LeaderElectionAlgo>(
        &intra[v], static_cast<int>(intra[v].size()));
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  LeaderElectionResult result;
  result.stats = network.run(algos);
  result.leader_of.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.leader_of[v] = typed[v]->leader();
  }
  return result;
}

BfsTreeResult build_cluster_bfs_trees(const Graph& g,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<VertexId>& leader_of,
                                      const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "bfs_tree");
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<BfsAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<BfsAlgo>(&intra[v], leader_of[v] == v);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  BfsTreeResult result;
  result.stats = network.run(algos);
  result.parent.resize(g.num_vertices());
  result.depth.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.parent[v] = typed[v]->parent();
    result.depth[v] = typed[v]->depth();
    result.max_depth = std::max(result.max_depth, result.depth[v]);
  }
  return result;
}

OrientationResult orient_cluster_edges(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       int peel_threshold,
                                       const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "orientation");
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<PeelAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<PeelAlgo>(&intra[v], peel_threshold);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  OrientationResult result;
  result.stats = network.run(algos);
  result.owned.resize(g.num_vertices());
  std::int64_t max_phase = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto eids = g.incident_edges(v);
    for (int port : typed[v]->owned_ports()) {
      result.owned[v].push_back(eids[port]);
    }
    result.max_out_degree = std::max(
        result.max_out_degree, static_cast<int>(result.owned[v].size()));
    max_phase = std::max(max_phase, typed[v]->peel_round());
  }
  result.peeling_phases = static_cast<int>(max_phase) + 1;
  return result;
}

GatherResult random_walk_gather(const Graph& g,
                                const std::vector<int>& cluster_of,
                                const std::vector<VertexId>& leader_of,
                                const std::vector<std::vector<GatherToken>>& tokens,
                                const GatherOptions& options) {
  TRACE_SPAN(options.net.trace, "walk_gather");
  check_round_budget("random_walk_gather", options.net.max_rounds);
  const auto intra = intra_cluster_ports(g, cluster_of);
  GatherResult result;
  result.bandwidth_tokens = options.net.bandwidth_tokens;
  std::int64_t expected = 0;
  for (const auto& list : tokens) expected += static_cast<std::int64_t>(list.size());
  result.traces.reserve(expected);

  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<WalkAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<WordBuffer> initial;
    initial.reserve(tokens[v].size());
    for (const GatherToken& t : tokens[v]) {
      WordBuffer wire{static_cast<std::int64_t>(result.traces.size())};
      wire.insert(wire.end(), t.payload.begin(), t.payload.end());
      initial.push_back(std::move(wire));
      result.traces.emplace_back(v, cluster_of[v]);
    }
    auto a = std::make_unique<WalkAlgo>(
        &intra[v], leader_of[v] == v, std::move(initial),
        options.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)),
        options.net.bandwidth_tokens, &result.traces);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, options.net);
  result.stats = network.run(algos);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.delivered.resize(num_clusters);
  result.delivered_ids.resize(num_clusters);
  std::int64_t received = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leader_of[v] != v) continue;
    auto& absorbed = typed[v]->absorbed();
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

ReliableGatherResult reliable_walk_gather(
    const Graph& g, const std::vector<int>& cluster_of,
    const std::vector<VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const ReliableGatherOptions& options) {
  TRACE_SPAN(options.net.trace, "fault:reliable_gather");
  const auto intra = intra_cluster_ports(g, cluster_of);
  const int n = g.num_vertices();
  const FaultPlan& base_plan = options.net.faults;
  const int delay_span =
      base_plan.delay_probability > 0.0 ? base_plan.max_delay_rounds : 0;
  const int timeout =
      options.ack_timeout > 0 ? options.ack_timeout : 4 + 2 * delay_span;
  // Each epoch runs at most one re-election plus one epoch network run. The
  // first check keeps the sum in the second from overflowing.
  check_round_budget("reliable_walk_gather", options.net.max_rounds);
  check_round_budget(
      "reliable_walk_gather",
      options.net.max_rounds + options.epoch_rounds + delay_span + 8,
      options.max_epochs);

  ReliableGatherResult result;
  GatherResult& gather = result.gather;
  gather.bandwidth_tokens = options.net.bandwidth_tokens;

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
      gather.traces.emplace_back(v, cluster_of[v]);
    }
  }

  std::vector<std::int64_t> crash_round(
      n, std::numeric_limits<std::int64_t>::max());
  for (const CrashEvent& c : base_plan.crashes) {
    crash_round[c.vertex] = std::min(crash_round[c.vertex], c.round);
  }
  // Epoch-relative view of the plan's crash schedule at cumulative round
  // `base`: already-fired crashes become round-0 crashes.
  const auto relative_crashes = [&](std::int64_t base) {
    std::vector<CrashEvent> out;
    for (const CrashEvent& c : base_plan.crashes) {
      out.push_back(CrashEvent{c.vertex, std::max<std::int64_t>(
                                             0, c.round - base)});
    }
    return out;
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
          // last epoch is void, and its trace restarts with it. A token
          // whose origin itself crash-stopped is orphaned instead — no live
          // vertex is responsible for re-introducing it, so it drops out of
          // the completeness contract rather than wedging it.
          gather.traces[id].clear();
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
      TRACE_SPAN(options.net.trace, "fault:reelect");
      NetworkOptions eopt = options.net;
      eopt.faults = FaultPlan{};
      eopt.faults.crashes = relative_crashes(base_round);
      const LeaderElectionResult elect =
          elect_cluster_leaders(g, cluster_of, eopt);
      result.final_leader_of = elect.leader_of;
      gather.stats += elect.stats;
      base_round += elect.stats.rounds;
      ++result.reelections;
    }

    TRACE_SPAN(options.net.trace, "fault:epoch");
    NetworkOptions nopt = options.net;
    FaultPlan& plan = nopt.faults;
    plan.seed = epoch == 0 ? base_plan.seed
                           : graph::splitmix64(base_plan.seed + epoch);
    plan.crashes = relative_crashes(base_round);
    if (base_plan.first_faulty_round > 0 ||
        base_plan.last_faulty_round !=
            std::numeric_limits<std::int64_t>::max()) {
      plan.first_faulty_round =
          std::max<std::int64_t>(0, base_plan.first_faulty_round - base_round);
      plan.last_faulty_round =
          base_plan.last_faulty_round ==
                  std::numeric_limits<std::int64_t>::max()
              ? base_plan.last_faulty_round
              : base_plan.last_faulty_round - base_round;
      if (plan.last_faulty_round < 0) {
        plan.first_faulty_round = 1;  // window already closed: no faults
        plan.last_faulty_round = 0;
      }
    }
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
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    std::vector<ReliableWalkAlgo*> typed(n);
    std::vector<std::vector<ReliableWalkAlgo::Token>> initial(n);
    for (std::size_t id = 0; id < toks.size(); ++id) {
      if (toks[id].absorbed_by != kInvalidVertex) continue;
      if (crash_round[toks[id].origin] <= base_round) continue;  // orphaned
      ReliableWalkAlgo::Token t;
      t.id = static_cast<std::int64_t>(id);
      t.payload = toks[id].payload;
      initial[toks[id].origin].push_back(std::move(t));
    }
    for (VertexId v = 0; v < n; ++v) {
      auto a = std::make_unique<ReliableWalkAlgo>(
          &intra[v], &walk_index[v], result.final_leader_of[v] == v,
          std::move(initial[v]),
          graph::splitmix64(graph::splitmix64(options.seed + epoch) ^
                            (0x9e3779b97f4a7c15ULL * (v + 1))),
          options.net.bandwidth_tokens, timeout, options.epoch_rounds,
          base_round, &gather.traces);
      typed[v] = a.get();
      algos.push_back(std::move(a));
    }
    Network network(g, nopt);
    const RunStats stats = network.run(algos);
    gather.stats += stats;
    base_round += stats.rounds;
    ++result.epochs;
    for (VertexId v = 0; v < n; ++v) {
      result.retransmissions += typed[v]->retransmissions();
      result.ack_messages += typed[v]->ack_messages();
      for (ReliableWalkAlgo::Token& t : typed[v]->absorbed()) {
        toks[t.id].absorbed_by = v;
        toks[t.id].payload = std::move(t.payload);
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

  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
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
                                    const std::vector<std::int64_t>& ids,
                                    const std::vector<std::int64_t>& words,
                                    const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "path_return");
  const int n = g.num_vertices();
  const auto refuse = [](const std::string& why) {
    throw std::invalid_argument("return_along_paths: " + why);
  };
  const auto check = [&](std::int64_t id, VertexId v) {
    if (v < 0 || v >= n) {
      refuse("token " + std::to_string(id) + " leaves the graph");
    }
  };
  if (words.size() != ids.size()) {
    refuse(std::to_string(words.size()) + " words for " +
           std::to_string(ids.size()) + " replies");
  }
  ReturnRoutes r;
  r.cap = std::max(
      1, std::min(gather.stats.max_edge_load, gather.bandwidth_tokens));
  r.received.assign(n, 0);
  r.arrived.assign(n, 0);

  // Increasing ids keep each vertex's entries sorted; one reply per origin
  // keeps one word slot per vertex.
  std::vector<char> replied(n, 0);
  std::int64_t longest = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::int64_t id = ids[k];
    if (id < 0 || id >= static_cast<std::int64_t>(gather.traces.size()) ||
        (k > 0 && id <= ids[k - 1])) {
      refuse("token ids must increase within [0, " +
             std::to_string(gather.traces.size()) + ")");
    }
    const TokenTrace& t = gather.traces[static_cast<std::size_t>(id)];
    check(id, t.origin);
    if (replied[t.origin]) {
      refuse("two replies to vertex " + std::to_string(t.origin));
    }
    replied[t.origin] = 1;
    longest = std::max(longest, t.hop_count());
  }

  // Cut each replied walk to its first-arrival path, leader end first: the
  // vertex, port back and forward round of each first arrival, for the k-th
  // reply at path[path_begin[k], path_begin[k + 1]). For the walk being cut,
  // reached[v] − base is 0 at its origin, i + 1 if its hop i first reached
  // v, and negative if it never reached v. Each walk raises `base` past
  // every value written before it, so the array is never cleared.
  struct Step {
    VertexId at;
    int port;
    std::int32_t round;
  };
  std::vector<Step> path;
  std::vector<std::size_t> path_begin(ids.size() + 1, 0);
  std::vector<std::int64_t> reached(static_cast<std::size_t>(n), -1);
  std::int64_t base = 0;
  std::vector<TokenHop> walk;
  walk.reserve(static_cast<std::size_t>(longest));
  r.entry_begin.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const TokenTrace& t = gather.traces[static_cast<std::size_t>(ids[k])];
    reached[t.origin] = base;
    walk.clear();
    TokenHop hop{t.origin, -1};
    for (std::size_t pos = 0; pos < t.log_size();) {
      pos = t.decode(pos, hop);
      check(ids[k], hop.to);
      if (reached[hop.to] < base) {
        reached[hop.to] = base + static_cast<std::int64_t>(walk.size()) + 1;
      }
      walk.push_back(hop);
    }
    for (std::int64_t j = walk.empty() ? 0 : reached[walk.back().to] - base;
         j > 0;) {
      const TokenHop& arrival = walk[static_cast<std::size_t>(j - 1)];
      const VertexId from =
          j == 1 ? t.origin : walk[static_cast<std::size_t>(j - 2)].to;
      const int port = port_to(g, arrival.to, from);
      if (port < 0) {
        throw std::logic_error(
            "return_along_paths: token " + std::to_string(ids[k]) +
            " hops from " + std::to_string(from) + " to " +
            std::to_string(arrival.to) + ", which are not neighbours");
      }
      path.push_back({arrival.to, port, arrival.round});
      ++r.entry_begin[static_cast<std::size_t>(arrival.to) + 1];
      j = reached[from] - base;
    }
    base += static_cast<std::int64_t>(walk.size()) + 1;
    path_begin[k + 1] = path.size();
  }
  std::partial_sum(r.entry_begin.begin(), r.entry_begin.end(),
                   r.entry_begin.begin());
  r.port_base.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    r.port_base[v + 1] = r.port_base[v] + static_cast<std::size_t>(g.degree(v));
  }

  // Fill the entries in token id order, so each vertex's are sorted by id,
  // and count the entries that leave by each port. A reply starts at its
  // path's first step, the walk's end, holding the leader's word; a reply
  // with no path is at its origin already.
  r.entries.resize(path.size());
  r.heap_begin.assign(r.port_base[n] + 1, 0);
  std::vector<std::size_t> fill(r.entry_begin.begin(), r.entry_begin.end() - 1);
  std::vector<std::pair<VertexId, std::size_t>> starts;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (path_begin[k] == path_begin[k + 1]) {
      const VertexId origin =
          gather.traces[static_cast<std::size_t>(ids[k])].origin;
      r.received[origin] = words[k];
      r.arrived[origin] = 1;
      continue;
    }
    for (std::size_t s = path_begin[k]; s < path_begin[k + 1]; ++s) {
      const Step& step = path[s];
      r.entries[fill[step.at]++] = {ids[k], 0, step.port, step.round};
      ++r.heap_begin[r.port_base[step.at] + step.port + 1];
    }
    const VertexId end = path[path_begin[k]].at;
    r.entries[fill[end] - 1].word = words[k];
    starts.emplace_back(end, fill[end] - 1);
  }
  std::partial_sum(r.heap_begin.begin(), r.heap_begin.end(),
                   r.heap_begin.begin());
  r.heap.resize(path.size());
  r.heap_size.assign(r.port_base[n], 0);

  PathReturnResult result;
  if (!path.empty()) {
    std::vector<int> waiting(n, 0);
    for (const auto& [v, e] : starts) {
      const ReturnRoutes::Entry& entry = r.entries[e];
      r.push(r.port_base[v] + entry.port,
             ReturnRoutes::key(entry, e - r.entry_begin[v]));
      ++waiting[v];
    }
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    algos.reserve(n);
    for (VertexId v = 0; v < n; ++v) {
      algos.push_back(std::make_unique<PathReturnAlgo>(&r, waiting[v]));
    }
    NetworkOptions opt = net;
    opt.bandwidth_tokens = r.cap;
    Network network(g, opt);
    result.stats = network.run(algos);
  }
  result.word = std::move(r.received);
  result.arrived = std::move(r.arrived);
  return result;
}

BroadcastResult broadcast_from_leaders(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<VertexId>& leader_of,
                                       const std::vector<std::int64_t>& leader_value,
                                       const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "broadcast");
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<FloodAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<FloodAlgo>(&intra[v], leader_of[v] == v,
                                         leader_value[v]);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  BroadcastResult result;
  result.stats = network.run(algos);
  result.value.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.value[v] = typed[v]->value();
  }
  return result;
}

TreeGatherResult tree_gather(const Graph& g,
                             const std::vector<int>& cluster_of,
                             const std::vector<VertexId>& leader_of,
                             const std::vector<VertexId>& bfs_parent,
                             const std::vector<std::vector<GatherToken>>& tokens,
                             const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "tree_gather");
  const int n = g.num_vertices();
  std::int64_t expected = 0;
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<TreeClimbAlgo*> typed(n);
  for (VertexId v = 0; v < n; ++v) {
    std::vector<std::vector<std::int64_t>> payloads;
    for (const GatherToken& t : tokens[v]) {
      payloads.push_back(t.payload);
      ++expected;
    }
    auto a = std::make_unique<TreeClimbAlgo>(
        leader_of[v] == v, port_to(g, v, bfs_parent[v]), std::move(payloads),
        net.bandwidth_tokens);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  TreeGatherResult result;
  result.stats = network.run(algos);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.delivered.resize(num_clusters);
  std::int64_t received = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] != v) continue;
    auto& absorbed = typed[v]->absorbed();
    received += static_cast<std::int64_t>(absorbed.size());
    result.delivered[cluster_of[v]] = std::move(absorbed);
  }
  result.complete = (received == expected);
  return result;
}

ConvergecastResult convergecast_fold(const Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<VertexId>& leader_of,
                                     const std::vector<VertexId>& bfs_parent,
                                     const std::vector<std::int64_t>& value,
                                     Fold fold, const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "convergecast");
  const int n = g.num_vertices();
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<ConvergecastAlgo*> typed(n);
  for (VertexId v = 0; v < n; ++v) {
    auto a = std::make_unique<ConvergecastAlgo>(
        leader_of[v] == v, port_to(g, v, bfs_parent[v]), value[v], fold);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  ConvergecastResult result;
  result.stats = network.run(algos);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.sum.assign(num_clusters, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] == v) result.sum[cluster_of[v]] = typed[v]->total();
  }
  return result;
}

DiameterCheckResult check_cluster_diameter(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           int bound,
                                           const NetworkOptions& net) {
  TRACE_SPAN(net.trace, "diameter_check");
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<DiameterCheckAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<DiameterCheckAlgo>(&intra[v], bound);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  DiameterCheckResult result;
  result.stats = network.run(algos);
  result.within_bound.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.within_bound[v] = !typed[v]->marked();
  }
  return result;
}

}  // namespace ecd::congest
