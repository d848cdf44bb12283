// The paper's framework (Theorem 2.6).
//
// partition_and_gather() performs the full pipeline on an H-minor-free
// network G:
//   1. (ε', φ) expander decomposition with ε' = ε / t, t the edge-density
//      bound of the graph class, so inter-cluster edges <= ε·min{|V|,|E|}
//      (construction rounds are *modeled*, see DESIGN.md);
//   2. leader election by max (cluster-degree, id) flooding (measured);
//   3. Barenboim–Elkin low-out-degree orientation (measured);
//   4. topology gathering: one token per oriented edge rides lazy random
//      walks to the leader (Lemma 2.4; measured);
//   5. leader-side reconstruction of G[V_i] from the delivered tokens.
//
// Applications then run any sequential algorithm on each reconstructed
// cluster through solve_clusters(), which returns the per-vertex answers
// along the reversed first-arrival paths of the registration tokens, as a
// simulated phase of about the longest path's length in rounds (at most the
// forward gather's measured round count and per-edge load).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/congest/primitives.h"
#include "src/congest/round_ledger.h"
#include "src/expander/decomposition.h"
#include "src/graph/graph.h"
#include "src/graph/subgraph.h"

namespace ecd::congest {
class ExecutionProfiler;  // src/congest/profiler.h
class MetricsRegistry;    // src/congest/metrics.h
}  // namespace ecd::congest

namespace ecd::core {

// How the expander decomposition is constructed and accounted.
enum class DecompositionMode {
  // Host-side spectral construction; rounds charged by the Thm 2.1/2.2
  // formula (a *modeled* ledger entry). Default: fast, contract-identical.
  kModeled,
  // Fully distributed construction (distributed power iteration + histogram
  // sweep, src/expander/distributed_decomposition.h); every round executes
  // on the simulator and enters the ledger as *measured*.
  kDistributed,
};

struct FrameworkOptions {
  expander::DecompositionOptions decomposition;
  DecompositionMode decomposition_mode = DecompositionMode::kModeled;
  // Tokens per edge per round for the walk phase; 0 = ceil(log2 n), the
  // batch size Lemma 2.4's O(log n)-messages-per-edge argument allows.
  int walk_bandwidth = 0;
  std::uint64_t seed = 1;
  bool deterministic = false;
  // Divide ε by the graph-class density bound t (Theorem 2.6's ε' = ε/t).
  // When 0 the bound is taken as max(1, ceil(|E|/|V|)) of the input.
  int density_bound = 0;
  // Use weighted volumes in the decomposition (inter-cluster *weight*
  // <= ε'·w(E) instead of edge count) — the §1.3 weighted-problems variant.
  // Ignored on unweighted graphs.
  bool weighted_volumes = false;
  // Event stream (src/congest/trace.h): every simulator round/edge/message
  // event is reported, and each phase below opens a span. Null: zero
  // overhead. Valid at every num_threads value — sharded trace lanes
  // (DESIGN.md §18) replay events on the caller in a fixed merge order, so
  // the event stream is byte-identical across thread counts.
  congest::TraceSink* trace = nullptr;
  // Sampling filters for `trace` (NetworkOptions::trace_config):
  // round/vertex/tag filters that bound the event stream
  // deterministically. Defaults trace everything; `metrics` is never
  // sampled.
  congest::TraceConfig trace_config;
  // Aggregate metrics (src/congest/metrics.h): every simulated phase runs
  // with the registry attached — per-tag traffic, per-round samples and
  // histograms, edge high-water marks, critical path — with bit-identical
  // snapshots at every `num_threads` value. The pipeline opens a
  // "phase:*" PhaseScope on both observers around each of its five phases
  // (decomposition, election, orientation, gather, reconstruct), and
  // return_results one more ("phase:return"); the primitives nest their
  // own phases inside.
  congest::MetricsRegistry* metrics = nullptr;
  // Wall-clock execution profiler (src/congest/profiler.h, DESIGN.md §14):
  // when set, every simulated phase (election, orientation, gather, return)
  // runs with per-shard phase/barrier timestamping. Purely observational —
  // results and metrics snapshots are unchanged — and valid at every
  // num_threads value.
  congest::ExecutionProfiler* profiler = nullptr;
  // Worker threads for the simulated phases (NetworkOptions::num_threads):
  // 1 = serial (default), 0 = hardware concurrency, k = k shards.
  int num_threads = 1;
  // Sparse-round serial fallback cutoff for the simulated phases
  // (NetworkOptions::sparse_serial_threshold): rounds with at most this
  // many active vertices run on the calling thread. 0 disables the
  // fallback; results are bit-identical at every setting.
  int sparse_serial_threshold = 256;
  // --- Fault tolerance (DESIGN.md §12) ------------------------------------
  // Fault plan applied to the gather phase (the data plane); crash rounds
  // are interpreted on the gather's own round timeline. Control phases
  // (election, orientation) stay message-reliable — the §12 control-plane
  // assumption. An enabled plan implies `reliable_gather`.
  congest::FaultPlan faults;
  // Route the walk phase through reliable_walk_gather (per-token sequence
  // numbers, ack/retransmit, crash-stop leader re-election) even with an
  // empty fault plan.
  bool reliable_gather = false;
  int gather_epoch_rounds = 512;
  int gather_max_epochs = 8;
};

struct Cluster {
  std::vector<graph::VertexId> members;  // parent-graph vertex ids
  graph::VertexId leader = graph::kInvalidVertex;
  // G[V_i] as reconstructed by the leader from gathered tokens; local
  // vertex i corresponds to parent id subgraph.to_parent[i]. Local ids
  // follow increasing parent vertex id and edges increasing parent edge id,
  // so a complete gather gives graph::induced_subgraph(g, members) exactly,
  // whatever route the tokens took.
  graph::InducedSubgraph subgraph;
  int leader_local = -1;
};

struct Partition {
  // The graph the partition was computed on; return_results routes the
  // replies over it. partition_and_gather sets it, and the graph must
  // outlive every return_results call on the partition.
  const graph::Graph* graph = nullptr;
  expander::ExpanderDecomposition decomposition;
  std::vector<graph::VertexId> leader_of;
  std::vector<Cluster> clusters;
  congest::RoundLedger ledger;
  // The caller's observers and threading, as the simulated phases ran on
  // them (one message per edge per round, no faults). Phases an
  // application simulates after the partition run on them too.
  congest::NetworkOptions net;
  bool gather_complete = false;
  // Reliable-gather diagnostics (zero unless the faulted path ran).
  std::int64_t gather_retransmissions = 0;
  int gather_epochs = 0;
  int gather_reelections = 0;
  double eps_effective = 0.0;  // the ε' actually passed to the decomposition
  // The gather's result, the first arrivals of each vertex's registration
  // ("hello") token included. return_results sends each answer back along
  // the first-arrival path they record.
  congest::GatherResult gather;
};

// Throws std::invalid_argument unless 0 < eps < 1.
void check_eps(double eps);

Partition partition_and_gather(const graph::Graph& g, double eps,
                               const FrameworkOptions& options = {});

// Returns one O(log n)-bit answer from each leader to every vertex of its
// cluster along the reverse of each registration token's first-arrival path
// (§2.2, last paragraph), as a simulated run: congest::return_along_paths on
// `partition.net` (the caller's observers and threads, no faults) inside a
// "phase:return" span and metrics phase. Each edge sends its waiting replies
// latest forward round first, at most the gather's peak edge load a round,
// so the return takes about its longest path in rounds and never more than
// the gather's mirror image (DESIGN.md §19). Throws
// std::logic_error if `partition.graph` is null, and
// std::invalid_argument unless there is exactly one word per vertex. Only a
// registration token that reached its leader has a path to reverse: if any
// vertex's did not, throws std::runtime_error naming how many. All three,
// and return_along_paths' refusal of malformed first-arrival records, throw
// before the ledger changes. Adds the measured run to the ledger under
// `label` and returns its rounds.
std::int64_t return_results(Partition& partition,
                            const std::vector<std::int64_t>& per_vertex_word,
                            const char* label);

// A leader's sequential solve of its reconstructed G[V_i]: one word per
// local vertex of cluster.subgraph.
using ClusterSolver =
    std::function<std::vector<std::int64_t>(const Cluster& cluster)>;

// Theorem 2.6's application step: calls `solve` once per cluster, in
// cluster order, writes each cluster's words at their parent ids, returns
// them to the vertices through return_results ("result return (reversed
// walks)") and returns the per-vertex words.
std::vector<std::int64_t> solve_clusters(Partition& partition,
                                         const ClusterSolver& solve);

// Diagnostics for Lemma 2.3: for every cluster, deg(v*) and φ²·|V_i|.
struct HighDegreeDiagnostic {
  int cluster = 0;
  int leader_degree = 0;
  int cluster_size = 0;
  int cluster_edges = 0;
  double phi = 0.0;
  double ratio = 0.0;  // deg(v*) / (φ² |V_i|)
};
std::vector<HighDegreeDiagnostic> high_degree_diagnostics(
    const Partition& partition);

}  // namespace ecd::core
