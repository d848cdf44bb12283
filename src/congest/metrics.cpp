#include "src/congest/metrics.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

namespace ecd::congest {

// --- LogHistogram ------------------------------------------------------------

std::int64_t LogHistogram::bucket_upper_bound(int b) {
  if (b <= 0) return 0;
  if (b >= kBuckets - 1) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << b) - 1;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void LogHistogram::clear() {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

std::int64_t LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the p-th percentile sample, 1-based, nearest-rank method.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(p / 100.0 * static_cast<double>(count_) +
                                   0.5));
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      // The top bucket's nominal bound is int64 max; the recorded max is
      // the honest answer there.
      return std::min(bucket_upper_bound(b), max_);
    }
  }
  return max_;
}

// --- MetricsRegistry: instruments -------------------------------------------

MetricsRegistry::Counter* MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

MetricsRegistry::Gauge* MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

LogHistogram* MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

// --- MetricsRegistry: collection hooks --------------------------------------

void MetricsRegistry::begin_run(int num_vertices, int num_edges) {
  (void)num_vertices, (void)num_edges;
  run_base_round_ = totals_.rounds;
}

void MetricsRegistry::record_round(const RunStats& round) {
  const auto accrue = [&](RunStats& stats) {
    ++stats.rounds;
    stats.messages_sent += round.messages_sent;
    stats.words_sent += round.words_sent;
    stats.max_edge_load = std::max(stats.max_edge_load, round.max_edge_load);
    stats.messages_dropped += round.messages_dropped;
    stats.messages_duplicated += round.messages_duplicated;
    stats.messages_delayed += round.messages_delayed;
    stats.vertices_crashed += round.vertices_crashed;
    stats.churn_events += round.churn_events;
    stats.messages_purged += round.messages_purged;
  };
  accrue(totals_);
  rounds_.push_back(
      {round.messages_sent, round.words_sent, round.max_edge_load});
  round_messages_.record(round.messages_sent);
  round_words_.record(round.words_sent);
  round_edge_load_.record(round.max_edge_load);
  for (const std::size_t i : open_) {
    PhaseMetrics& phase = phases_[i];
    accrue(phase.stats);
    phase.round_messages.record(round.messages_sent);
    phase.round_words.record(round.words_sent);
    phase.round_edge_load.record(round.max_edge_load);
  }
}

void MetricsRegistry::record_tag_slot(int slot, std::int64_t messages,
                                      std::int64_t words) {
  tags_[slot].messages += messages;
  tags_[slot].words += words;
  for (const std::size_t i : open_) {
    phases_[i].tags[slot].messages += messages;
    phases_[i].tags[slot].words += words;
  }
}

void MetricsRegistry::record_edge(graph::VertexId from, graph::VertexId to,
                                  std::int64_t messages, std::int64_t words,
                                  int peak_load) {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(from))
                             << 32) |
                            static_cast<std::uint32_t>(to);
  EdgeLoadStats& e = edges_[key];
  e.from = from;
  e.to = to;
  e.messages += messages;
  e.words += words;
  e.peak_load = std::max(e.peak_load, peak_load);
}

void MetricsRegistry::end_run(const RunStats& run_totals,
                              std::int64_t critical_path) {
  // Logical fields were already accrued round by round; the wall-clock
  // duration only exists per run. It lives in totals_ / phase stats for
  // the run report's "wall" section but is deliberately left out of
  // write_stats_json — snapshots stay bit-identical across thread counts
  // and with profiling on or off (DESIGN.md §13/§14).
  totals_.duration_ns += run_totals.duration_ns;
  ++runs_;
  cp_total_ += critical_path;
  if (critical_path > cp_longest_) cp_longest_ = critical_path;
  for (const std::size_t i : open_) {
    ++phases_[i].runs;
    phases_[i].critical_path += critical_path;
    phases_[i].stats.duration_ns += run_totals.duration_ns;
  }
}

void MetricsRegistry::record_violation(const CongestionError& err) {
  violations_.push_back({err.kind(), run_base_round_ + err.round(), err.from(),
                         err.to(), err.used(), err.budget()});
  for (const std::size_t i : open_) ++phases_[i].violations;
}

// --- MetricsRegistry: phases -------------------------------------------------

void MetricsRegistry::phase_begin(std::string name) {
  PhaseMetrics phase;
  phase.name = std::move(name);
  phase.depth = static_cast<int>(open_.size());
  phase.begin_round = totals_.rounds;
  open_.push_back(phases_.size());
  phases_.push_back(std::move(phase));
}

void MetricsRegistry::phase_end() {
  if (open_.empty()) return;  // unbalanced end: ignore, don't corrupt
  phases_[open_.back()].closed = true;
  open_.pop_back();
}

// --- MetricsRegistry: snapshots ----------------------------------------------

std::vector<EdgeLoadStats> MetricsRegistry::top_edges(int k) const {
  std::vector<EdgeLoadStats> out;
  out.reserve(edges_.size());
  for (const auto& [key, e] : edges_) out.push_back(e);
  std::sort(out.begin(), out.end(),
            [](const EdgeLoadStats& a, const EdgeLoadStats& b) {
              if (a.messages != b.messages) return a.messages > b.messages;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  if (k >= 0 && static_cast<int>(out.size()) > k) out.resize(k);
  return out;
}

void MetricsRegistry::reset() {
  totals_ = RunStats{};
  runs_ = 0;
  run_base_round_ = 0;
  cp_total_ = 0;
  cp_longest_ = 0;
  round_messages_.clear();
  round_words_.clear();
  round_edge_load_.clear();
  tags_.fill(TagTraffic{});
  phases_.clear();
  open_.clear();
  rounds_.clear();
  violations_.clear();
  edges_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_report_header(
    std::ostream& os, std::string_view schema, std::string_view title,
    const std::vector<std::pair<std::string, std::string>>& info) {
  os << "{\"schema\":";
  write_json_string(os, schema);
  os << ",\"title\":";
  write_json_string(os, title);
  os << ",\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, info[i].first);
    os << ':';
    write_json_string(os, info[i].second);
  }
  os << '}';
}

namespace {

void write_histogram_json(std::ostream& os, const LogHistogram& h) {
  os << "{\"count\":" << h.count() << ",\"sum\":" << h.sum()
     << ",\"max\":" << h.max() << ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '[' << LogHistogram::bucket_upper_bound(b) << ','
       << h.bucket_count(b) << ']';
  }
  os << "]}";
}

void write_stats_json(std::ostream& os, const RunStats& s) {
  os << "{\"rounds\":" << s.rounds << ",\"messages\":" << s.messages_sent
     << ",\"words\":" << s.words_sent
     << ",\"max_edge_load\":" << s.max_edge_load
     << ",\"dropped\":" << s.messages_dropped
     << ",\"duplicated\":" << s.messages_duplicated
     << ",\"delayed\":" << s.messages_delayed
     << ",\"crashed\":" << s.vertices_crashed
     << ",\"churn_events\":" << s.churn_events
     << ",\"purged\":" << s.messages_purged << '}';
}

void write_tags_json(std::ostream& os,
                     const std::array<TagTraffic, kMetricsTagSlots>& tags) {
  os << '[';
  bool first = true;
  for (int slot = 0; slot < kMetricsTagSlots; ++slot) {
    if (tags[slot].messages == 0 && tags[slot].words == 0) continue;
    if (!first) os << ',';
    first = false;
    const int tag = metrics_slot_tag(slot);
    os << "{\"id\":" << tag << ",\"name\":";
    write_json_string(os, tag < 0 ? "user_overflow" : tag_name(tag));
    os << ",\"messages\":" << tags[slot].messages
       << ",\"words\":" << tags[slot].words << '}';
  }
  os << ']';
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os, int top_k_edges) const {
  os << "{\"totals\":";
  write_stats_json(os, totals_);
  os << ",\"runs\":" << runs_ << ",\"critical_path\":{\"total\":" << cp_total_
     << ",\"longest_run\":" << cp_longest_ << '}';
  os << ",\"round_histograms\":{\"messages\":";
  write_histogram_json(os, round_messages_);
  os << ",\"words\":";
  write_histogram_json(os, round_words_);
  os << ",\"max_edge_load\":";
  write_histogram_json(os, round_edge_load_);
  os << '}';
  os << ",\"tags\":";
  write_tags_json(os, tags_);
  os << ",\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseMetrics& p = phases_[i];
    if (i) os << ',';
    os << "{\"name\":";
    write_json_string(os, p.name);
    os << ",\"depth\":" << p.depth << ",\"closed\":"
       << (p.closed ? "true" : "false") << ",\"runs\":" << p.runs
       << ",\"critical_path\":" << p.critical_path << ",\"stats\":";
    write_stats_json(os, p.stats);
    os << ",\"round_histograms\":{\"messages\":";
    write_histogram_json(os, p.round_messages);
    os << ",\"words\":";
    write_histogram_json(os, p.round_words);
    os << ",\"max_edge_load\":";
    write_histogram_json(os, p.round_edge_load);
    os << "},\"tags\":";
    write_tags_json(os, p.tags);
    os << '}';
  }
  os << ']';
  os << ",\"top_edges\":[";
  const auto edges = top_edges(top_k_edges);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeLoadStats& e = edges[i];
    if (i) os << ',';
    os << "{\"from\":" << e.from << ",\"to\":" << e.to
       << ",\"messages\":" << e.messages << ",\"words\":" << e.words
       << ",\"peak_load\":" << e.peak_load << '}';
  }
  os << "],\"total_edges_observed\":" << edges_.size();
  os << ",\"counters\":{";
  {
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) os << ',';
      first = false;
      write_json_string(os, name);
      os << ':' << c.value();
    }
  }
  os << "},\"gauges\":{";
  {
    bool first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) os << ',';
      first = false;
      write_json_string(os, name);
      os << ":{\"value\":" << g.value() << ",\"max\":" << g.max() << '}';
    }
  }
  os << "},\"histograms\":{";
  {
    bool first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) os << ',';
      first = false;
      write_json_string(os, name);
      os << ':';
      write_histogram_json(os, h);
    }
  }
  os << "}}";
}

std::string MetricsRegistry::to_json(int top_k_edges) const {
  std::ostringstream os;
  write_json(os, top_k_edges);
  return os.str();
}

void write_run_report(std::ostream& os, const MetricsRegistry& metrics,
                      const RunReportContext& context) {
  write_report_header(os, "ecd-run-report-v1", context.title, context.info);
  // Wall-clock elapsed time lives outside the "metrics" snapshot: the
  // snapshot is the determinism witness (byte-compared across thread
  // counts), the wall section is a measurement. Phase durations count
  // simulated-run wall time accrued while the phase was open; host-side
  // work between runs is not attributed.
  os << ",\"wall\":{\"duration_ns\":" << metrics.totals().duration_ns
     << ",\"phases\":[";
  {
    const auto& phases = metrics.phases();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (i) os << ',';
      os << "{\"name\":";
      write_json_string(os, phases[i].name);
      os << ",\"depth\":" << phases[i].depth
         << ",\"duration_ns\":" << phases[i].stats.duration_ns << '}';
    }
  }
  os << "]},\"metrics\":";
  metrics.write_json(os, context.top_k_edges);
  os << "}\n";
}


// --- Exporters -------------------------------------------------------------------

namespace {

const char* violation_kind_name(CongestionError::Kind kind) {
  return kind == CongestionError::Kind::kBandwidth ? "bandwidth"
                                                   : "message_size";
}

}  // namespace

void export_jsonl(const MetricsRegistry& metrics, std::ostream& os) {
  const RunStats& t = metrics.totals();
  os << "{\"type\":\"meta\",\"runs\":" << metrics.runs_observed()
     << ",\"rounds\":" << t.rounds << ",\"messages\":" << t.messages_sent
     << ",\"words\":" << t.words_sent
     << ",\"max_edge_load\":" << t.max_edge_load << "}\n";
  for (const PhaseMetrics& p : metrics.phases()) {
    os << "{\"type\":\"span\",\"name\":";
    write_json_string(os, p.name);
    os << ",\"depth\":" << p.depth << ",\"begin_round\":" << p.begin_round
       << ",\"rounds\":" << p.stats.rounds
       << ",\"messages\":" << p.stats.messages_sent
       << ",\"words\":" << p.stats.words_sent
       << ",\"max_edge_load\":" << p.stats.max_edge_load
       << ",\"violations\":" << p.violations << "}\n";
  }
  const auto& tags = metrics.tag_slots();
  for (int slot = 0; slot < kMetricsTagSlots; ++slot) {
    if (tags[slot].messages == 0) continue;
    const int tag = metrics_slot_tag(slot);
    os << "{\"type\":\"tag\",\"tag\":";
    write_json_string(os, tag < 0 ? "user_overflow" : tag_name(tag));
    os << ",\"id\":" << tag << ",\"messages\":" << tags[slot].messages
       << ",\"words\":" << tags[slot].words << "}\n";
  }
  const std::vector<RoundSample>& rounds = metrics.rounds();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    os << "{\"type\":\"round\",\"round\":" << r
       << ",\"messages\":" << rounds[r].messages
       << ",\"words\":" << rounds[r].words
       << ",\"max_edge_load\":" << rounds[r].max_edge_load << "}\n";
  }
  for (const EdgeLoadStats& e : metrics.top_edges(-1)) {
    os << "{\"type\":\"edge\",\"from\":" << e.from << ",\"to\":" << e.to
       << ",\"messages\":" << e.messages << ",\"words\":" << e.words
       << ",\"peak_load\":" << e.peak_load << "}\n";
  }
  for (const ViolationRecord& v : metrics.violations()) {
    os << "{\"type\":\"violation\",\"kind\":\""
       << violation_kind_name(v.kind) << "\",\"round\":" << v.round
       << ",\"from\":" << v.from << ",\"to\":" << v.to
       << ",\"used\":" << v.used << ",\"budget\":" << v.budget << "}\n";
  }
  // Churn line only on runs that churned, so churn-free traces keep their
  // shape.
  if (t.churn_events > 0 || t.messages_purged > 0) {
    os << "{\"type\":\"churn\",\"churn_events\":" << t.churn_events
       << ",\"purged\":" << t.messages_purged << "}\n";
  }
}

void export_chrome_trace(const MetricsRegistry& metrics, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (const PhaseMetrics& p : metrics.phases()) {
    sep();
    // 1 round = 1 µs; zero-round phases get dur 1 so they stay visible.
    os << "{\"name\":";
    write_json_string(os, p.name);
    os << ",\"ph\":\"X\",\"ts\":" << p.begin_round
       << ",\"dur\":" << std::max<std::int64_t>(p.stats.rounds, 1)
       << ",\"pid\":0,\"tid\":0,\"args\":{\"rounds\":" << p.stats.rounds
       << ",\"messages\":" << p.stats.messages_sent
       << ",\"words\":" << p.stats.words_sent
       << ",\"max_edge_load\":" << p.stats.max_edge_load << "}}";
  }
  const std::vector<RoundSample>& rounds = metrics.rounds();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    sep();
    os << "{\"name\":\"traffic\",\"ph\":\"C\",\"ts\":" << r
       << ",\"pid\":0,\"args\":{\"messages\":" << rounds[r].messages
       << ",\"words\":" << rounds[r].words << "}}";
    sep();
    os << "{\"name\":\"max_edge_load\",\"ph\":\"C\",\"ts\":" << r
       << ",\"pid\":0,\"args\":{\"load\":" << rounds[r].max_edge_load
       << "}}";
  }
  for (const ViolationRecord& v : metrics.violations()) {
    sep();
    os << "{\"name\":\"violation:" << violation_kind_name(v.kind)
       << "\",\"ph\":\"i\",\"ts\":" << v.round
       << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{\"from\":" << v.from
       << ",\"to\":" << v.to << ",\"used\":" << v.used
       << ",\"budget\":" << v.budget << "}}";
  }
  os << "\n]}\n";
}

std::string hotspot_report(const MetricsRegistry& metrics, int top_k) {
  std::ostringstream os;
  const RunStats& t = metrics.totals();
  os << "=== congestion hotspots ===\n";
  os << "rounds=" << t.rounds << " messages=" << t.messages_sent
     << " words=" << t.words_sent << " max-edge-load=" << t.max_edge_load
     << " violations=" << metrics.violations().size() << "\n";
  const LogHistogram& load = metrics.round_edge_load_histogram();
  os << "per-round peak edge load (log-bucket bounds): p50="
     << load.percentile(50) << " p99=" << load.percentile(99) << "\n";
  os << "top congested directed edges (by total messages):\n";
  for (const EdgeLoadStats& e : metrics.top_edges(top_k)) {
    os << "  " << e.from << "->" << e.to << ": " << e.messages
       << " msgs, " << e.words << " words, peak load " << e.peak_load
       << "\n";
  }
  os << "per-phase peak edge load per round (bucket bound: rounds):\n";
  for (const PhaseMetrics& p : metrics.phases()) {
    if (p.depth != 0) continue;
    os << "  " << p.name << ":";
    if (p.round_edge_load.empty()) os << " (no rounds)";
    for (int b = 0; b < LogHistogram::kBuckets; ++b) {
      if (p.round_edge_load.bucket_count(b) == 0) continue;
      os << " " << LogHistogram::bucket_upper_bound(b) << ":"
         << p.round_edge_load.bucket_count(b);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace ecd::congest
