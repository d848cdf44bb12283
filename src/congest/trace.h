// The simulator's event stream (DESIGN.md §9 "Observability", §18).
//
// Every claim in this reproduction — Lemma 2.4's O(log n)-messages-per-edge
// walk congestion, Theorem 2.6's phase-by-phase round budget, the
// LOCAL–CONGEST gap — is a statement about per-edge, per-round traffic.
// Two observers turn those proofs into inspectable data:
//
//   * TraceSink (this header) — the event stream the Network run loop
//     feeds: round boundaries, per-edge load samples, per-message-tag
//     events, churn, congestion-limit violations, and the named phase
//     spans PhaseScope (src/congest/network.h) opens. FlightRecorder is
//     its bounded post-mortem sink.
//   * MetricsRegistry (src/congest/metrics.h) — the aggregate: per-phase
//     rounds/messages/words/peak load, per-round samples, per-tag and
//     per-edge traffic; its exporters write the JSONL and Chrome
//     trace_event files and the hotspot report.
//
// The sink hangs off NetworkOptions::trace; a null sink (the default)
// costs one predictable branch per outbox and nothing else.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/congest/network.h"

namespace ecd::congest {

// Observer for simulator events. All callbacks have empty default bodies so
// sinks override only what they need. One TraceSink instance may observe
// many Network runs (the framework's phases are separate runs); rounds
// passed to callbacks restart at 0 per run — sinks that want a continuous
// timeline keep their own cumulative offset (FlightRecorder does).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // A Network::run started / finished (stats are that run's totals).
  virtual void on_run_begin(int num_vertices, int num_edges,
                            const NetworkOptions& options) {
    (void)num_vertices, (void)num_edges, (void)options;
  }
  virtual void on_run_end(const RunStats& stats) { (void)stats; }

  // Delivery of round `round` completed with these per-round totals.
  virtual void on_round_end(std::int64_t round, std::int64_t messages,
                            std::int64_t words, int max_edge_load) {
    (void)round, (void)messages, (void)words, (void)max_edge_load;
  }

  // Directed edge from->to carried `messages` messages totalling `words`
  // words in round `round`. Only called for edges that carried traffic.
  virtual void on_edge_load(std::int64_t round, graph::VertexId from,
                            graph::VertexId to, int messages,
                            std::int64_t words) {
    (void)round, (void)from, (void)to, (void)messages, (void)words;
  }

  // One message with tag `tag` (MsgTag or user value) was delivered.
  virtual void on_message(std::int64_t round, int tag, int words) {
    (void)round, (void)tag, (void)words;
  }

  // `events` scheduled topology events (FaultPlan::churn) fired before
  // round `round`'s compute phase. Only called when at least one fired.
  virtual void on_churn(std::int64_t round, int events) {
    (void)round, (void)events;
  }

  // One topology event fired before round `round`'s compute phase. Edge
  // events carry both endpoints; node events carry u with
  // v == graph::kInvalidVertex. Emitted per event, in schedule order, from
  // the caller thread — immediately before the matching lump on_churn.
  virtual void on_churn_event(std::int64_t round, ChurnKind kind,
                              graph::VertexId u, graph::VertexId v) {
    (void)round, (void)kind, (void)u, (void)v;
  }

  // `count` in-flight messages stranded on the dead edge from->to were
  // purged during round `round`'s delivery (churn killed the edge under
  // pending traffic — delayed messages, undelivered sends). Dead-port
  // *send* drops are not per-event (the send never entered a mailbox);
  // they appear only in RunStats::messages_purged.
  virtual void on_churn_purge(std::int64_t round, graph::VertexId from,
                              graph::VertexId to, int count) {
    (void)round, (void)from, (void)to, (void)count;
  }

  // A congestion-limit violation is about to be thrown.
  virtual void on_violation(const CongestionError& err) { (void)err; }

  // The run is unwinding abnormally: `reason` is "congestion"
  // (CongestionError — the violation above was already reported) or
  // "max_rounds". Fired from Network::run before the exception propagates;
  // flight recorders use it to dump their ring (post-mortem artifact).
  virtual void on_abort(const char* reason) { (void)reason; }

  // Named phase spans (PhaseScope); may nest (a span closed is the
  // innermost open one).
  virtual void on_span_begin(const std::string& name) { (void)name; }
  virtual void on_span_end(const std::string& name) { (void)name; }
};

// Bounded-memory post-mortem sink (DESIGN.md §18): a preallocated ring of
// compact POD events retaining the most recent `ring_capacity` events,
// additionally trimmed at each round boundary so at most the last
// `keep_rounds` rounds survive. Steady state allocates nothing (audited by
// sparse_alloc_test) and memory is fixed at construction — the sink for
// traced runs at n >= 10^6, where keeping every event is the problem this
// class exists to avoid. On an abnormal run end
// (CongestionError, max_rounds — TraceSink::on_abort) the ring dumps
// itself to the configured stream automatically, shipping the last K
// rounds of events as the failure artifact.
class FlightRecorder : public TraceSink {
 public:
  struct Options {
    int ring_capacity = 1 << 16;  // events retained, absolute ceiling
    int keep_rounds = 64;         // rounds retained behind the newest
  };
  FlightRecorder();
  explicit FlightRecorder(Options options);

  void on_run_begin(int num_vertices, int num_edges,
                    const NetworkOptions& options) override;
  void on_run_end(const RunStats& stats) override;
  void on_round_end(std::int64_t round, std::int64_t messages,
                    std::int64_t words, int max_edge_load) override;
  void on_edge_load(std::int64_t round, graph::VertexId from,
                    graph::VertexId to, int messages,
                    std::int64_t words) override;
  void on_message(std::int64_t round, int tag, int words) override;
  void on_churn_event(std::int64_t round, ChurnKind kind, graph::VertexId u,
                      graph::VertexId v) override;
  void on_churn_purge(std::int64_t round, graph::VertexId from,
                      graph::VertexId to, int count) override;
  void on_violation(const CongestionError& err) override;
  void on_abort(const char* reason) override;

  // Dump target for on_abort (and, when dump_on_purge, the first churn
  // purge of a run). Null (the default) disables auto-dumping.
  void set_auto_dump(std::ostream* os, bool dump_on_purge = false) {
    auto_dump_ = os;
    dump_on_purge_ = dump_on_purge;
  }

  // Events currently retained, oldest first.
  std::int64_t events_retained() const { return size_; }
  std::int64_t events_dropped() const { return dropped_; }
  std::int64_t last_round() const { return last_round_; }
  // Writes the retained events as JSONL: a "flight" meta line, then one
  // event object per line, oldest first.
  void dump_jsonl(std::ostream& os) const;

  // One ring slot. Type-specific payloads share the int64 fields; unused
  // fields are zero.
  enum class EventKind : std::uint8_t {
    kRunBegin,   // a = vertices, b = edges
    kRound,      // a = messages, b = words, c = max_edge_load
    kEdgeLoad,   // a = from, b = to, c = messages, d = words
    kMessage,    // a = tag, b = words
    kChurn,      // a = ChurnKind, b = u, c = v
    kPurge,      // a = from, b = to, c = count
    kViolation,  // a = kind, b = from, c = to, d = used<<32|budget
    kRunEnd,     // a = rounds, b = messages, c = words
  };
  struct Event {
    EventKind kind = EventKind::kRound;
    std::int64_t round = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;
    std::int64_t d = 0;
  };

 private:
  void push(const Event& e);
  void trim_rounds(std::int64_t newest_round);

  Options options_;
  std::vector<Event> ring_;     // capacity fixed at construction
  std::int64_t head_ = 0;       // index of oldest retained event
  std::int64_t size_ = 0;       // events retained
  std::int64_t dropped_ = 0;    // events overwritten or trimmed
  std::int64_t last_round_ = -1;
  std::int64_t run_base_round_ = 0;  // global round offset of current run
  std::ostream* auto_dump_ = nullptr;
  bool dump_on_purge_ = false;
  bool purge_dumped_ = false;
};

}  // namespace ecd::congest
