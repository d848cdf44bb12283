#include "src/congest/trace.h"

#include <ostream>

namespace ecd::congest {

const char* tag_name(int tag) {
  switch (tag) {
    case kTagDefault: return "default";
    case kTagElection: return "election";
    case kTagBfs: return "bfs";
    case kTagOrientation: return "orientation";
    case kTagWalkToken: return "walk_token";
    case kTagBroadcast: return "broadcast";
    case kTagConvergecast: return "convergecast";
    case kTagDiameter: return "diameter";
    case kTagTreeToken: return "tree_token";
    case kTagWalkAck: return "walk_ack";
    case kTagReturnReply: return "return_reply";
    default: return tag >= kTagUserBase ? "user" : "?";
  }
}

// --- FlightRecorder ------------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Options{}) {}

FlightRecorder::FlightRecorder(Options options) : options_(options) {
  if (options_.ring_capacity < 1) options_.ring_capacity = 1;
  if (options_.keep_rounds < 1) options_.keep_rounds = 1;
  ring_.resize(static_cast<std::size_t>(options_.ring_capacity));
}

void FlightRecorder::push(const Event& e) {
  const std::int64_t cap = options_.ring_capacity;
  if (size_ == cap) {
    head_ = (head_ + 1) % cap;
    --size_;
    ++dropped_;
  }
  ring_[static_cast<std::size_t>((head_ + size_) % cap)] = e;
  ++size_;
}

void FlightRecorder::trim_rounds(std::int64_t newest_round) {
  const std::int64_t cap = options_.ring_capacity;
  const std::int64_t floor = newest_round - options_.keep_rounds + 1;
  while (size_ > 0 && ring_[static_cast<std::size_t>(head_)].round < floor) {
    head_ = (head_ + 1) % cap;
    --size_;
    ++dropped_;
  }
}

void FlightRecorder::on_run_begin(int num_vertices, int num_edges,
                                  const NetworkOptions& options) {
  (void)options;
  run_base_round_ = last_round_ + 1;
  purge_dumped_ = false;
  push({EventKind::kRunBegin, run_base_round_, num_vertices, num_edges, 0, 0});
}

void FlightRecorder::on_run_end(const RunStats& stats) {
  push({EventKind::kRunEnd, last_round_ < run_base_round_ ? run_base_round_
                                                          : last_round_,
        stats.rounds, stats.messages_sent, stats.words_sent, 0});
}

void FlightRecorder::on_round_end(std::int64_t round, std::int64_t messages,
                                  std::int64_t words, int max_edge_load) {
  const std::int64_t g = run_base_round_ + round;
  last_round_ = g;
  push({EventKind::kRound, g, messages, words, max_edge_load, 0});
  trim_rounds(g);
}

void FlightRecorder::on_edge_load(std::int64_t round, graph::VertexId from,
                                  graph::VertexId to, int messages,
                                  std::int64_t words) {
  push({EventKind::kEdgeLoad, run_base_round_ + round, from, to, messages,
        words});
}

void FlightRecorder::on_message(std::int64_t round, int tag, int words) {
  push({EventKind::kMessage, run_base_round_ + round, tag, words, 0, 0});
}

void FlightRecorder::on_churn_event(std::int64_t round, ChurnKind kind,
                                    graph::VertexId u, graph::VertexId v) {
  push({EventKind::kChurn, run_base_round_ + round,
        static_cast<std::int64_t>(kind), u, v, 0});
}

void FlightRecorder::on_churn_purge(std::int64_t round, graph::VertexId from,
                                    graph::VertexId to, int count) {
  push({EventKind::kPurge, run_base_round_ + round, from, to, count, 0});
  if (auto_dump_ && dump_on_purge_ && !purge_dumped_) {
    purge_dumped_ = true;
    dump_jsonl(*auto_dump_);
  }
}

void FlightRecorder::on_violation(const CongestionError& err) {
  push({EventKind::kViolation, run_base_round_ + err.round(),
        static_cast<std::int64_t>(err.kind()), err.from(), err.to(),
        (static_cast<std::int64_t>(err.used()) << 32) |
            static_cast<std::uint32_t>(err.budget())});
}

void FlightRecorder::on_abort(const char* reason) {
  (void)reason;
  if (auto_dump_) dump_jsonl(*auto_dump_);
}

void FlightRecorder::dump_jsonl(std::ostream& os) const {
  os << "{\"type\":\"flight\",\"retained\":" << size_
     << ",\"dropped\":" << dropped_ << ",\"last_round\":" << last_round_
     << ",\"ring_capacity\":" << options_.ring_capacity
     << ",\"keep_rounds\":" << options_.keep_rounds << "}\n";
  const std::int64_t cap = options_.ring_capacity;
  for (std::int64_t i = 0; i < size_; ++i) {
    const Event& e = ring_[static_cast<std::size_t>((head_ + i) % cap)];
    switch (e.kind) {
      case EventKind::kRunBegin:
        os << "{\"type\":\"run_begin\",\"round\":" << e.round
           << ",\"vertices\":" << e.a << ",\"edges\":" << e.b << "}\n";
        break;
      case EventKind::kRound:
        os << "{\"type\":\"round\",\"round\":" << e.round
           << ",\"messages\":" << e.a << ",\"words\":" << e.b
           << ",\"max_edge_load\":" << e.c << "}\n";
        break;
      case EventKind::kEdgeLoad:
        os << "{\"type\":\"edge_load\",\"round\":" << e.round
           << ",\"from\":" << e.a << ",\"to\":" << e.b
           << ",\"messages\":" << e.c << ",\"words\":" << e.d << "}\n";
        break;
      case EventKind::kMessage:
        os << "{\"type\":\"message\",\"round\":" << e.round << ",\"tag\":\""
           << tag_name(static_cast<int>(e.a)) << "\",\"id\":" << e.a
           << ",\"words\":" << e.b << "}\n";
        break;
      case EventKind::kChurn:
        os << "{\"type\":\"churn\",\"round\":" << e.round << ",\"kind\":"
           << e.a << ",\"u\":" << e.b << ",\"v\":" << e.c << "}\n";
        break;
      case EventKind::kPurge:
        os << "{\"type\":\"purge\",\"round\":" << e.round
           << ",\"from\":" << e.a << ",\"to\":" << e.b
           << ",\"count\":" << e.c << "}\n";
        break;
      case EventKind::kViolation:
        os << "{\"type\":\"violation\",\"round\":" << e.round
           << ",\"kind\":"
           << (e.a == static_cast<std::int64_t>(
                          CongestionError::Kind::kBandwidth)
                   ? "\"bandwidth\""
                   : "\"message_size\"")
           << ",\"from\":" << e.b << ",\"to\":" << e.c
           << ",\"used\":" << (e.d >> 32)
           << ",\"budget\":" << static_cast<std::int32_t>(e.d & 0xffffffff)
           << "}\n";
        break;
      case EventKind::kRunEnd:
        os << "{\"type\":\"run_end\",\"round\":" << e.round
           << ",\"rounds\":" << e.a << ",\"messages\":" << e.b
           << ",\"words\":" << e.c << "}\n";
        break;
    }
  }
}

}  // namespace ecd::congest
