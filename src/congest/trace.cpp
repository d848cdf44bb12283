#include "src/congest/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

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

// --- MetricsCollector ----------------------------------------------------------

namespace {

std::uint64_t edge_key(graph::VertexId from, graph::VertexId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

}  // namespace

void MetricsCollector::on_run_begin(int num_vertices, int num_edges,
                                    const NetworkOptions& options) {
  (void)num_vertices, (void)num_edges, (void)options;
  ++runs_observed_;
  run_base_round_ = total_rounds_;
}

void MetricsCollector::on_run_end(const RunStats& stats) { (void)stats; }

void MetricsCollector::on_round_end(std::int64_t round, std::int64_t messages,
                                    std::int64_t words, int max_edge_load) {
  rounds_.push_back(
      {run_base_round_ + round, messages, words, max_edge_load});
  total_rounds_ = run_base_round_ + round + 1;
  for (std::size_t i : open_spans_) ++spans_[i].rounds;
}

void MetricsCollector::on_edge_load(std::int64_t round, graph::VertexId from,
                                    graph::VertexId to, int messages,
                                    std::int64_t words) {
  (void)round;
  total_messages_ += messages;
  total_words_ += words;
  max_edge_load_ = std::max(max_edge_load_, messages);
  ++load_histogram_[messages];
  EdgeTraffic& e = edges_[edge_key(from, to)];
  e.from = from;
  e.to = to;
  e.messages += messages;
  e.words += words;
  e.peak_load = std::max(e.peak_load, messages);
  for (std::size_t i : open_spans_) {
    SpanStats& s = spans_[i];
    s.messages += messages;
    s.words += words;
    s.max_edge_load = std::max(s.max_edge_load, messages);
    ++s.load_histogram[messages];
  }
}

void MetricsCollector::on_message(std::int64_t round, int tag, int words) {
  (void)round;
  TagStats& t = tags_[tag];
  t.messages += 1;
  t.words += words;
}

void MetricsCollector::on_churn_event(std::int64_t round, ChurnKind kind,
                                      graph::VertexId u, graph::VertexId v) {
  (void)round, (void)u, (void)v;
  switch (kind) {
    case ChurnKind::kEdgeInsert: ++churn_.edge_inserts; break;
    case ChurnKind::kEdgeDelete: ++churn_.edge_deletes; break;
    case ChurnKind::kNodeLeave: ++churn_.node_leaves; break;
    case ChurnKind::kNodeJoin: ++churn_.node_joins; break;
  }
}

void MetricsCollector::on_churn_purge(std::int64_t round, graph::VertexId from,
                                      graph::VertexId to, int count) {
  (void)round, (void)from, (void)to;
  ++churn_.purge_events;
  churn_.messages_purged += count;
}

void MetricsCollector::on_violation(const CongestionError& err) {
  violations_.push_back({err.kind(), run_base_round_ + err.round(),
                         err.from(), err.to(), err.used(), err.budget()});
  for (std::size_t i : open_spans_) ++spans_[i].violations;
}

void MetricsCollector::on_span_begin(const std::string& name) {
  SpanStats s;
  s.name = name;
  s.depth = static_cast<int>(open_spans_.size());
  s.begin_round = total_rounds_;
  open_spans_.push_back(spans_.size());
  spans_.push_back(std::move(s));
}

void MetricsCollector::on_span_end(const std::string& name) {
  (void)name;
  if (open_spans_.empty()) return;  // unmatched end: ignore
  spans_[open_spans_.back()].closed = true;
  open_spans_.pop_back();
}

RunStats MetricsCollector::totals() const {
  RunStats s;
  s.rounds = total_rounds_;
  s.messages_sent = total_messages_;
  s.words_sent = total_words_;
  s.max_edge_load = max_edge_load_;
  return s;
}

std::vector<EdgeTraffic> MetricsCollector::top_edges(int k) const {
  std::vector<EdgeTraffic> out;
  out.reserve(edges_.size());
  for (const auto& [key, e] : edges_) out.push_back(e);
  std::sort(out.begin(), out.end(), [](const EdgeTraffic& a,
                                       const EdgeTraffic& b) {
    if (a.messages != b.messages) return a.messages > b.messages;
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  });
  if (k >= 0 && static_cast<int>(out.size()) > k) out.resize(k);
  return out;
}

double MetricsCollector::load_percentile(double p) const {
  std::int64_t samples = 0;
  for (const auto& [load, count] : load_histogram_) samples += count;
  if (samples == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(samples - 1);
  std::int64_t target = static_cast<std::int64_t>(std::ceil(rank));
  std::int64_t seen = 0;
  for (const auto& [load, count] : load_histogram_) {
    seen += count;
    if (seen > target) return static_cast<double>(load);
  }
  return static_cast<double>(load_histogram_.rbegin()->first);
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

// --- Exporters -----------------------------------------------------------------

namespace {

// Span names and tag names are plain identifiers, but escape defensively.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* violation_kind_name(CongestionError::Kind kind) {
  return kind == CongestionError::Kind::kBandwidth ? "bandwidth"
                                                   : "message_size";
}

}  // namespace

void export_jsonl(const MetricsCollector& collector, std::ostream& os) {
  const RunStats t = collector.totals();
  os << "{\"type\":\"meta\",\"runs\":" << collector.runs_observed()
     << ",\"rounds\":" << t.rounds << ",\"messages\":" << t.messages_sent
     << ",\"words\":" << t.words_sent
     << ",\"max_edge_load\":" << t.max_edge_load << "}\n";
  for (const SpanStats& s : collector.spans()) {
    os << "{\"type\":\"span\",\"name\":\"" << json_escape(s.name)
       << "\",\"depth\":" << s.depth << ",\"begin_round\":" << s.begin_round
       << ",\"rounds\":" << s.rounds << ",\"messages\":" << s.messages
       << ",\"words\":" << s.words
       << ",\"max_edge_load\":" << s.max_edge_load
       << ",\"violations\":" << s.violations << "}\n";
  }
  for (const auto& [tag, stats] : collector.tag_stats()) {
    os << "{\"type\":\"tag\",\"tag\":\"" << json_escape(tag_name(tag))
       << "\",\"id\":" << tag << ",\"messages\":" << stats.messages
       << ",\"words\":" << stats.words << "}\n";
  }
  for (const RoundSample& r : collector.rounds()) {
    os << "{\"type\":\"round\",\"round\":" << r.round
       << ",\"messages\":" << r.messages << ",\"words\":" << r.words
       << ",\"max_edge_load\":" << r.max_edge_load << "}\n";
  }
  for (const EdgeTraffic& e : collector.top_edges(-1)) {
    os << "{\"type\":\"edge\",\"from\":" << e.from << ",\"to\":" << e.to
       << ",\"messages\":" << e.messages << ",\"words\":" << e.words
       << ",\"peak_load\":" << e.peak_load << "}\n";
  }
  for (const ViolationRecord& v : collector.violations()) {
    os << "{\"type\":\"violation\",\"kind\":\""
       << violation_kind_name(v.kind) << "\",\"round\":" << v.round
       << ",\"from\":" << v.from << ",\"to\":" << v.to
       << ",\"used\":" << v.used << ",\"budget\":" << v.budget << "}\n";
  }
  // Churn line only on runs that actually churned, so churn-free traces
  // stay byte-identical to their pre-churn goldens.
  const ChurnStats& c = collector.churn_stats();
  if (c.total_events() > 0 || c.purge_events > 0) {
    os << "{\"type\":\"churn\",\"edge_inserts\":" << c.edge_inserts
       << ",\"edge_deletes\":" << c.edge_deletes
       << ",\"node_leaves\":" << c.node_leaves
       << ",\"node_joins\":" << c.node_joins
       << ",\"purge_events\":" << c.purge_events
       << ",\"messages_purged\":" << c.messages_purged << "}\n";
  }
}

void export_chrome_trace(const MetricsCollector& collector, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const SpanStats& s : collector.spans()) {
    sep();
    // 1 round = 1 µs; zero-round spans get dur 1 so they stay visible.
    os << "{\"name\":\"" << json_escape(s.name)
       << "\",\"ph\":\"X\",\"ts\":" << s.begin_round
       << ",\"dur\":" << std::max<std::int64_t>(s.rounds, 1)
       << ",\"pid\":0,\"tid\":0,\"args\":{\"rounds\":" << s.rounds
       << ",\"messages\":" << s.messages << ",\"words\":" << s.words
       << ",\"max_edge_load\":" << s.max_edge_load << "}}";
  }
  for (const RoundSample& r : collector.rounds()) {
    sep();
    os << "{\"name\":\"traffic\",\"ph\":\"C\",\"ts\":" << r.round
       << ",\"pid\":0,\"args\":{\"messages\":" << r.messages
       << ",\"words\":" << r.words << "}}";
    sep();
    os << "{\"name\":\"max_edge_load\",\"ph\":\"C\",\"ts\":" << r.round
       << ",\"pid\":0,\"args\":{\"load\":" << r.max_edge_load << "}}";
  }
  for (const ViolationRecord& v : collector.violations()) {
    sep();
    os << "{\"name\":\"violation:" << violation_kind_name(v.kind)
       << "\",\"ph\":\"i\",\"ts\":" << v.round
       << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"from\":" << v.from
       << ",\"to\":" << v.to << ",\"used\":" << v.used
       << ",\"budget\":" << v.budget << "}}";
  }
  os << "\n]}\n";
}

std::string hotspot_report(const MetricsCollector& collector, int top_k) {
  std::ostringstream os;
  const RunStats t = collector.totals();
  os << "=== congestion hotspots ===\n";
  os << "rounds=" << t.rounds << " messages=" << t.messages_sent
     << " words=" << t.words_sent << " max-edge-load=" << t.max_edge_load
     << " violations=" << collector.violations().size() << "\n";
  os << "messages-per-edge-per-round: p50=" << collector.load_percentile(50)
     << " p99=" << collector.load_percentile(99) << "\n";
  os << "top congested directed edges (by total messages):\n";
  for (const EdgeTraffic& e : collector.top_edges(top_k)) {
    os << "  " << e.from << "->" << e.to << ": " << e.messages
       << " msgs, " << e.words << " words, peak load " << e.peak_load
       << "\n";
  }
  os << "per-phase edge-load histogram (load: samples):\n";
  for (const SpanStats& s : collector.spans()) {
    if (s.depth != 0) continue;
    os << "  " << s.name << ":";
    if (s.load_histogram.empty()) os << " (no traffic)";
    for (const auto& [load, count] : s.load_histogram) {
      os << " " << load << ":" << count;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ecd::congest
