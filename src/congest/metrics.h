// The aggregate observer of the CONGEST simulator (DESIGN.md §9 and §13).
//
// The TraceSink (src/congest/trace.h) streams one callback per event,
// replayed on the caller thread at every round barrier. This registry is
// the aggregate: the Network accumulates per-tag traffic, per-edge
// high-water marks and causal-depth ("critical path") updates in per-shard,
// cache-line-padded rows during the round, and reduces them on the
// orchestrating thread at the existing round barrier — the same pattern as
// the ShardAccum stat reduction of DESIGN.md §11. Snapshots are therefore
// bit-identical for every NetworkOptions::num_threads value. Registration,
// phase opens, first-time edge observations and the growth of the
// per-round sample list allocate; nothing else on the round path does.
//
// What a registry holds:
//   * grand totals (RunStats summed over observed runs) and per-round
//     log-bucketed histograms of messages / words / max edge load;
//   * one sample per executed round (messages, words, max edge load) on a
//     global timeline across runs;
//   * per-message-tag message/word counts (fixed slot table, so the round
//     path indexes an array instead of hashing);
//   * per-directed-edge totals and peak single-round load;
//   * the critical-path estimate: the longest causal message chain — each
//     delivered message extends a chain one link past its sender's depth
//     at the start of the delivering round (DESIGN.md §13 for why this
//     lower-bounds any completion-time schedule of the same run);
//   * the congestion violation each aborted run threw;
//   * named counters / gauges / histograms for algorithm-layer facts
//     (gather retransmissions, epochs, re-elections, ...);
//   * a stack of "phases" (PhaseScope, src/congest/network.h): every
//     round and tag record accrues to each open phase, so a
//     partition_and_gather run yields per-phase round/bandwidth
//     histograms without any per-event callback.
//
// write_json() emits the deterministic snapshot (fixed key order, sorted
// edges/counters, integer-only values) — the thread-count determinism
// tests literally compare snapshot strings. The per-round samples, phase
// begin rounds and violations stay out of it; the exporters below print
// them. write_run_report() wraps a snapshot in the "ecd-run-report-v1"
// schema consumed by `ecd_cli report` (schema documented in DESIGN.md §13).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/congest/message.h"
#include "src/congest/network.h"

namespace ecd::congest {

// --- Log-bucketed histogram ------------------------------------------------

// Power-of-two bucketed histogram of non-negative 64-bit samples: bucket 0
// holds value 0, bucket b >= 1 holds values with bit_width b, i.e. the
// range [2^(b-1), 2^b - 1]. 64 buckets cover every int64 value, recording
// is two adds and an index computation, and merging is element-wise — the
// properties the per-round path and the barrier reduction need.
class LogHistogram {
 public:
  static constexpr int kBuckets = 64;

  static int bucket_of(std::int64_t value) {
    if (value <= 0) return 0;
    int b = 0;
    for (std::uint64_t v = static_cast<std::uint64_t>(value); v != 0; v >>= 1) {
      ++b;
    }
    return b;
  }
  // Largest value bucket b accepts (inclusive).
  static std::int64_t bucket_upper_bound(int b);

  void record(std::int64_t value) {
    if (value < 0) value = 0;
    ++counts_[bucket_of(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }
  void merge(const LogHistogram& other);
  void clear();

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t max() const { return max_; }
  bool empty() const { return count_ == 0; }
  std::int64_t bucket_count(int b) const { return counts_[b]; }
  // Upper bound of the bucket containing the p-th percentile sample
  // (p in [0,100]); 0 when empty. An estimate: exact within its bucket's
  // factor-of-two resolution.
  std::int64_t percentile(double p) const;

 private:
  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = 0;
};

// --- Tag slot table ---------------------------------------------------------

// The round path attributes traffic to a fixed slot table instead of a
// hash map: well-known tags [0, kTagUserBase) map to themselves, the first
// kMetricsUserTagSlots user tags map after them, and everything else (deep
// user tags, invalid negatives) shares one overflow slot.
inline constexpr int kMetricsUserTagSlots = 15;
inline constexpr int kMetricsTagSlots = kTagUserBase + kMetricsUserTagSlots + 1;
inline constexpr int kMetricsOverflowSlot = kMetricsTagSlots - 1;

inline int metrics_tag_slot(int tag) {
  if (tag >= 0 && tag < kTagUserBase) return tag;
  const int user = tag - kTagUserBase;
  if (user >= 0 && user < kMetricsUserTagSlots) return kTagUserBase + user;
  return kMetricsOverflowSlot;
}
// Representative tag id of a slot (the overflow slot has none and
// returns -1).
inline int metrics_slot_tag(int slot) {
  return slot == kMetricsOverflowSlot ? -1 : slot;
}

struct TagTraffic {
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

// --- Aggregate record types -------------------------------------------------

// One executed round; its index in MetricsRegistry::rounds() is its round
// on the registry's global timeline.
struct RoundSample {
  std::int64_t messages = 0;
  std::int64_t words = 0;
  int max_edge_load = 0;
};

// The congestion violation an aborted run threw.
struct ViolationRecord {
  CongestionError::Kind kind = CongestionError::Kind::kBandwidth;
  std::int64_t round = 0;  // on the registry's global timeline
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  int used = 0;
  int budget = 0;
};

struct EdgeLoadStats {
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  int peak_load = 0;  // max messages delivered in a single round
};

// One named phase (PhaseScope). Phases accrue every round, tag record and
// violation that happens while they are open, so a parent's numbers
// include its children's.
struct PhaseMetrics {
  std::string name;
  int depth = 0;  // 0 = top-level
  bool closed = false;
  std::int64_t begin_round = 0;  // global round at which it opened
  std::int64_t violations = 0;   // runs aborted by a violation while open
  std::int64_t runs = 0;  // Network runs that *ended* while open
  // rounds/messages/words/max_edge_load/fault counters accrued while open.
  RunStats stats;
  // Longest causal chain, summed over the runs that ended while open.
  std::int64_t critical_path = 0;
  LogHistogram round_messages;
  LogHistogram round_words;
  LogHistogram round_edge_load;
  std::array<TagTraffic, kMetricsTagSlots> tags{};
};

// --- The registry -----------------------------------------------------------

class MetricsRegistry {
 public:
  // Named instruments. Registration (first lookup of a name) allocates a
  // map node; increments on the returned pointer never do, and the pointer
  // stays valid for the registry's lifetime.
  class Counter {
   public:
    void add(std::int64_t delta) { value_ += delta; }
    void increment() { ++value_; }
    std::int64_t value() const { return value_; }

   private:
    friend class MetricsRegistry;
    std::int64_t value_ = 0;
  };
  class Gauge {
   public:
    void set(std::int64_t value) {
      value_ = value;
      if (value > max_) max_ = value;
    }
    std::int64_t value() const { return value_; }
    std::int64_t max() const { return max_; }

   private:
    friend class MetricsRegistry;
    std::int64_t value_ = 0;
    std::int64_t max_ = 0;
  };

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  LogHistogram* histogram(std::string_view name);

  // --- Collection hooks (called by Network) --------------------------------
  // All run on the orchestrating thread: begin_run/end_run bracket a
  // Network::run, record_round fires once per executed round at the round
  // barrier, and the tag/edge flushes happen inside end_run's caller.
  void begin_run(int num_vertices, int num_edges);
  // One executed round's deltas; `round.rounds` is ignored (each call
  // counts as exactly one round).
  void record_round(const RunStats& round);
  void record_tag_slot(int slot, std::int64_t messages, std::int64_t words);
  void record_edge(graph::VertexId from, graph::VertexId to,
                   std::int64_t messages, std::int64_t words, int peak_load);
  // `run_totals` is the finished run's RunStats (already accrued round by
  // round — only run/critical-path bookkeeping happens here).
  void end_run(const RunStats& run_totals, std::int64_t critical_path);
  // The violation that aborts the current run (instead of end_run).
  void record_violation(const CongestionError& err);

  // --- Phases ---------------------------------------------------------------
  void phase_begin(std::string name);
  void phase_end();

  // --- Snapshot accessors ---------------------------------------------------
  const RunStats& totals() const { return totals_; }
  std::int64_t runs_observed() const { return runs_; }
  std::int64_t critical_path_total() const { return cp_total_; }
  std::int64_t critical_path_longest_run() const { return cp_longest_; }
  const LogHistogram& round_messages_histogram() const {
    return round_messages_;
  }
  const LogHistogram& round_words_histogram() const { return round_words_; }
  const LogHistogram& round_edge_load_histogram() const {
    return round_edge_load_;
  }
  const std::array<TagTraffic, kMetricsTagSlots>& tag_slots() const {
    return tags_;
  }
  std::int64_t tag_messages(int tag) const {
    return tags_[metrics_tag_slot(tag)].messages;
  }
  std::int64_t tag_words(int tag) const {
    return tags_[metrics_tag_slot(tag)].words;
  }
  // Phases in opening order (pre-order of the phase tree).
  const std::vector<PhaseMetrics>& phases() const { return phases_; }
  // One sample per executed round, in order across every observed run.
  const std::vector<RoundSample>& rounds() const { return rounds_; }
  const std::vector<ViolationRecord>& violations() const {
    return violations_;
  }
  // Directed edges by (messages desc, from, to) — a total order, so the
  // cut at k is deterministic. k < 0 returns all edges.
  std::vector<EdgeLoadStats> top_edges(int k) const;

  // Deterministic full snapshot: fixed key order, sorted collections,
  // integer values only. Equal snapshots <=> equal observed histories,
  // which is how the cross-thread determinism tests compare registries.
  void write_json(std::ostream& os, int top_k_edges = 16) const;
  std::string to_json(int top_k_edges = 16) const;

  // Clears every record. The per-round sample list keeps its capacity, so
  // a reused registry stops allocating once it has seen its longest history.
  void reset();

 private:
  RunStats totals_;
  std::int64_t runs_ = 0;
  std::int64_t run_base_round_ = 0;  // global round of the current run's 0
  std::int64_t cp_total_ = 0;
  std::int64_t cp_longest_ = 0;
  LogHistogram round_messages_;
  LogHistogram round_words_;
  LogHistogram round_edge_load_;
  std::array<TagTraffic, kMetricsTagSlots> tags_{};
  std::vector<PhaseMetrics> phases_;
  std::vector<std::size_t> open_;  // indices into phases_
  std::vector<RoundSample> rounds_;
  std::vector<ViolationRecord> violations_;
  std::unordered_map<std::uint64_t, EdgeLoadStats> edges_;
  // std::map: node-based, so instrument pointers stay stable forever.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LogHistogram, std::less<>> histograms_;
};

// --- Exporters ----------------------------------------------------------------

// One JSON object per line: a "meta" header, then "span" (one per phase),
// "tag", "round", "edge", "violation" and, on runs that churned, "churn"
// records (schema in DESIGN.md §9).
void export_jsonl(const MetricsRegistry& metrics, std::ostream& os);

// Chrome trace_event JSON ({"traceEvents": [...]}): phases as complete
// ("X") events and per-round counter ("C") tracks, 1 round = 1 µs. Open
// with chrome://tracing or https://ui.perfetto.dev.
void export_chrome_trace(const MetricsRegistry& metrics, std::ostream& os);

// Human-readable congestion hotspot summary: top-k congested directed
// edges, p50/p99 of the per-round peak edge load, and each top-level
// phase's per-round peak-load histogram.
std::string hotspot_report(const MetricsRegistry& metrics, int top_k = 10);

// --- Run report --------------------------------------------------------------

// Writes `s` as a JSON string literal, quotes included, escaping what JSON
// requires. Every JSON writer of the observability layer uses it.
void write_json_string(std::ostream& os, std::string_view s);

// Opens a report document: {"schema":…,"title":…,"info":{…} — the caller
// writes its sections after it and the closing brace.
void write_report_header(
    std::ostream& os, std::string_view schema, std::string_view title,
    const std::vector<std::pair<std::string, std::string>>& info);

struct RunReportContext {
  // Free-form description of what produced the metrics (shown verbatim).
  std::string title;
  // Extra key/value context, emitted in the given order.
  std::vector<std::pair<std::string, std::string>> info;
  int top_k_edges = 10;
};

// Emits the "ecd-run-report-v1" JSON document: {"schema", "title", "info",
// "metrics": <registry snapshot>}. Schema spelled out in DESIGN.md §13.
void write_run_report(std::ostream& os, const MetricsRegistry& metrics,
                      const RunReportContext& context = {});

}  // namespace ecd::congest
