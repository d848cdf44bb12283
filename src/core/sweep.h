// Sweep engine: high-throughput multiplexed simulator runs over a
// declarative grid (DESIGN.md §16).
//
// A regression grid — topology family × size × topology seed × run seed ×
// algorithm × thread count × fault plan × churn plan — is mostly
// *redundant* work for
// the simulator: grid cells that share a topology rebuild the same CSR,
// and cells that additionally share an algorithm/thread/fault shape
// rebuild the same Network mailboxes. For small-n cells construction costs
// more than the run itself, so a grid paying it per cell is
// construction-bound, not simulation-bound.
//
// The engine removes the redundancy with two keyed caches:
//   * a topology cache keyed (family, n, topo_seed): one Graph per
//     distinct topology, shared by every cell over it;
//   * a network cache keyed (topology key, algorithm, threads,
//     fault_permille, spec constants): one Network + one algorithm vector
//     per distinct run shape. Repeated runs go through
//     Network::reset_for_run() + per-vertex SweepAlgo::reset(run_seed), so
//     a warm cell pays zero construction and zero steady-state allocation
//     — the substrate's per-run contract (DESIGN.md §10) lifted to
//     grid scope.
//
// Scheduling is two-level. The spec expands in a fixed nested order with
// run_seed as the fastest axis, so cells sharing a cached Network form
// contiguous groups; serial groups (threads == 1) are distributed
// whole-group-per-worker over one shared ThreadPool (run-level
// parallelism, one exclusive writer per cached Network), while parallel
// groups (threads > 1) run one at a time on the caller and parallelize
// *inside* the run via NetworkOptions::shared_pool (intra-run
// parallelism). Per-run ecd-run-report-v1 records stream to a JSONL sink
// as runs finish; the cross-run aggregate reduces in cell-index order
// after every record is in place, so its JSON is byte-identical for every
// worker count and completion order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/graph/graph.h"

namespace ecd::core {

// The declarative run grid: the cross product of the axis vectors below,
// expanded in declaration order with run_seeds as the innermost (fastest)
// axis. Scalars apply to every cell.
struct SweepSpec {
  // Topology families as understood by `ecd_cli gen`: grid, tri, planar,
  // outer, twotree, tree, torus, hypercube, expander.
  std::vector<std::string> families = {"grid"};
  std::vector<int> sizes = {256};
  std::vector<std::uint64_t> topo_seeds = {1};
  // Per-run seed: drives algorithm randomness (e.g. Luby priorities) and,
  // when the cell has faults, the fault schedule (Network::set_fault_seed).
  std::vector<std::uint64_t> run_seeds = {1};
  // Workloads: "flood" (wavefront from vertex 0, result = vertices
  // reached), "pingpong" (full-duplex exchange for pingpong_rounds, result
  // = vertex 0's checksum), "mis" (Luby-style MIS, result = |MIS|).
  std::vector<std::string> algorithms = {"flood"};
  std::vector<int> threads = {1};
  // k > 0 turns on the mixed fault plan: drop k/1000, duplicate k/2000,
  // delay k/1000 with max_delay_rounds = 2 (the bench_network shape).
  std::vector<int> fault_permille = {0};
  // c > 0 turns on a deterministic topology-churn schedule (FaultPlan
  // ::churn) of ~c per mille of the graph's edges: each picked edge is
  // deleted early and re-inserted a few rounds later, and every 8th pick
  // becomes a node leave/join pair instead (see make_churn_plan). The
  // schedule derives from (topo_seed, c) — NOT run_seed — so every run on
  // a cached Network shares one schedule and warm reuse stays valid.
  std::vector<int> churn_permille = {0};

  int pingpong_rounds = 16;
  int bandwidth_tokens = 2;
  int sparse_serial_threshold = 256;
  std::int64_t max_rounds = 2'000'000;

  // Throws std::invalid_argument on unknown families/algorithms,
  // non-positive axis values, empty axes, or a grid over 10^7 cells.
  void validate() const;
  std::int64_t num_cells() const;
};

// Parses the JSON spec (tools/json_min.h — no dependencies). Every key is
// optional and defaults as above; unknown keys throw (a typoed axis name
// must not silently run the default grid). Axis keys take arrays of
// numbers/strings, scalar keys take numbers.
SweepSpec parse_sweep_spec(std::string_view json);

// One grid cell, fully describing one run.
struct SweepCell {
  std::int64_t index = 0;  // position in expansion order; the run id
  std::string family;
  int n = 0;
  std::uint64_t topo_seed = 1;
  std::uint64_t run_seed = 1;
  std::string algorithm;
  int threads = 1;
  int fault_permille = 0;
  int churn_permille = 0;
};

// The sweep's churn schedule for (g, topo_seed, churn_permille): an empty
// plan at 0, otherwise k = max(1, m * c / 1000) splitmix64-picked items.
// Item i deletes its edge at round 1 + (i % 8) and re-inserts it four
// rounds later; every 8th item is instead a node leave (same round) /
// join (three rounds later) pair for one of the edge's endpoints. Pure
// function of its arguments, so warm and cold runs of a cell construct
// bit-identical FaultPlan::churn vectors. Exposed for tests and for
// examples/churn_experiment, which replays the same schedule host-side.
std::vector<congest::ChurnEvent> make_churn_plan(const graph::Graph& g,
                                                 std::uint64_t topo_seed,
                                                 int churn_permille);

// Expands the spec into its cell list (validates first). The order is the
// determinism anchor: records, the aggregate reduction and the JSONL
// `run` ids all key off it.
std::vector<SweepCell> expand_sweep(const SweepSpec& spec);

// The outcome of one cell. Everything except stats.duration_ns is
// bit-identical to a fresh-Network standalone run of the same cell.
struct SweepRunRecord {
  SweepCell cell;
  congest::RunStats stats;
  // Algorithm result checksum summed over vertices (see SweepSpec
  // ::algorithms); the witness that reuse did not change the computation.
  std::int64_t result_word = 0;
};

struct SweepOptions {
  // Workers multiplexing serial cells (whole-run-per-worker); 0 resolves
  // to hardware concurrency. Parallel cells (threads > 1) ignore this and
  // use their own intra-run sharding.
  int workers = 1;
  // false = cold mode: every run constructs a fresh Graph + Network +
  // algorithm vector and nothing is cached. The baseline the warm path is
  // benchmarked against (bench/bench_sweep.cpp), and the reference the
  // determinism tests compare records with.
  bool reuse = true;
  // When set, each finished run appends one ecd-run-report-v1 line
  // (metrics snapshot + cell info) to this stream. Lines complete in
  // whatever order runs finish; the "run" info key recovers cell order.
  std::ostream* jsonl = nullptr;
  int report_top_edges = 4;
  // When set, a monitor thread streams one ecd-sweep-progress-v1 JSON
  // line per interval: cells done/total, elapsed wall clock, runs/s, and
  // per-worker liveness (runs completed, ms since last completion, a
  // stall flag). A final line with "done":true follows the last cell.
  // Values are measurements — the schema is stable, the numbers are not
  // (contrast the deterministic aggregate). Null: no monitor thread.
  std::ostream* progress = nullptr;
  int progress_interval_ms = 1000;
  // A worker whose last run completion is older than this while the grid
  // is unfinished is flagged "stalled":true — the watchdog for wedged
  // workers on long sweeps.
  int stall_seconds = 30;
};

// Results of one SweepEngine::run execution. Returned by reference: the
// buffers live in the engine and are reused by the next execution (the
// warm path's zero-allocation contract covers them).
struct SweepResult {
  std::vector<SweepRunRecord> records;  // indexed by cell index
  std::int64_t wall_ns = 0;             // whole-grid wall clock
  // Construction performed by this execution (cache diagnostics: a fully
  // warm execution has 0 / 0 / num_cells).
  std::int64_t graphs_built = 0;
  std::int64_t networks_built = 0;
  std::int64_t cache_hits = 0;

  double runs_per_sec() const;

  // Deterministic cross-run aggregate: run count, totals and exact
  // min/p50/p90/p99/max quantiles of rounds, delivered messages, per-edge
  // peak load (congestion) and dropped messages, plus an order-sensitive
  // result checksum — reduced in cell-index order over integer fields
  // only, so the JSON is byte-identical across worker counts, completion
  // orders and repeated executions ("ecd-sweep-aggregate-v1").
  std::string aggregate_json() const;
  // Wall-clock counterpart (duration quantiles, runs/sec): a measurement,
  // deliberately kept out of aggregate_json so CI can hash the aggregate.
  std::string wall_json() const;
};

class SweepEngine {
 public:
  SweepEngine();
  ~SweepEngine();
  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  // Executes the grid. The returned reference is valid until the next
  // run()/clear_cache() call on this engine. Thread-compatible: one run()
  // at a time per engine.
  const SweepResult& run(const SweepSpec& spec, const SweepOptions& options = {});

  // Drops every cached Graph, Network and worker pool (the next run is
  // cold). Mostly for tests and memory ceilings.
  void clear_cache();

  // Runs one cell standalone — fresh Graph, fresh Network, fresh
  // algorithms, no caches touched. When `metrics` is non-null the run is
  // recorded into it (callers pass a reset registry to get the reference
  // snapshot a warm run must reproduce).
  static SweepRunRecord run_cell_fresh(const SweepSpec& spec,
                                       const SweepCell& cell,
                                       congest::MetricsRegistry* metrics = nullptr);

  // The ecd-run-report-v1 line a fresh standalone run of `cell` produces —
  // what the engine's JSONL line for the cell must match byte-for-byte
  // outside the "wall" section (wall is a measurement).
  static std::string reference_report_line(const SweepSpec& spec,
                                           const SweepCell& cell,
                                           int top_edges = 4);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ecd::core
