#include "src/core/framework.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/congest/metrics.h"
#include "src/expander/distributed_decomposition.h"
#include "src/expander/weighted.h"
#include "src/graph/metrics.h"
#include "src/graph/splitmix.h"

namespace ecd::core {

using congest::GatherOptions;
using congest::GatherToken;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

namespace {

// Rebuilds G[V_i] as the leader sees it: the vertex set is the union of
// token endpoints (plus the leader itself), edges and their attributes come
// from the token payloads [u, v, weight, sign]. The numbering is canonical,
// local ids by increasing parent vertex id and edges by increasing parent
// edge id, so the leader's view depends on which tokens arrived but not on
// their route or arrival order. A complete gather therefore yields exactly
// graph::induced_subgraph(g, members).
graph::InducedSubgraph reconstruct_cluster(
    const Graph& g, VertexId leader,
    const std::vector<std::vector<std::int64_t>>& payloads) {
  graph::InducedSubgraph out;
  out.to_parent.push_back(leader);
  std::vector<std::pair<EdgeId, const std::vector<std::int64_t>*>> edge_tokens;
  for (const auto& p : payloads) {
    out.to_parent.push_back(static_cast<VertexId>(p[0]));
    if (p[1] < 0) continue;  // registration token: names a vertex, not an edge
    out.to_parent.push_back(static_cast<VertexId>(p[1]));
    // The parent edge id orders the edges and is kept for downstream
    // bookkeeping.
    const EdgeId parent_edge = g.find_edge(static_cast<VertexId>(p[0]),
                                           static_cast<VertexId>(p[1]));
    if (parent_edge == graph::kInvalidEdge) {
      throw std::logic_error("gathered token names a non-edge");
    }
    edge_tokens.emplace_back(parent_edge, &p);
  }
  std::sort(out.to_parent.begin(), out.to_parent.end());
  out.to_parent.erase(std::unique(out.to_parent.begin(), out.to_parent.end()),
                      out.to_parent.end());
  std::sort(edge_tokens.begin(), edge_tokens.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto local_id = [&](std::int64_t parent) {
    return static_cast<VertexId>(
        std::lower_bound(out.to_parent.begin(), out.to_parent.end(), parent) -
        out.to_parent.begin());
  };
  std::vector<graph::Edge> edges;
  std::vector<graph::Weight> weights;
  std::vector<graph::EdgeSign> signs;
  edges.reserve(edge_tokens.size());
  out.edge_to_parent.reserve(edge_tokens.size());
  for (const auto& [parent_edge, token] : edge_tokens) {
    const std::vector<std::int64_t>& p = *token;
    edges.push_back({local_id(p[0]), local_id(p[1])});
    weights.push_back(p[2]);
    signs.push_back(p[3] > 0 ? graph::EdgeSign::kPositive
                             : graph::EdgeSign::kNegative);
    out.edge_to_parent.push_back(parent_edge);
  }
  out.graph = Graph::from_edges(static_cast<int>(out.to_parent.size()),
                                std::move(edges));
  if (g.is_weighted()) out.graph = out.graph.with_weights(std::move(weights));
  if (g.is_signed()) out.graph = out.graph.with_signs(std::move(signs));
  return out;
}

}  // namespace

void check_eps(double eps) {
  if (!(eps > 0 && eps < 1)) throw std::invalid_argument("eps out of (0,1)");
}

Partition partition_and_gather(const Graph& g, double eps,
                               const FrameworkOptions& options) {
  check_eps(eps);
  const int n = g.num_vertices();
  Partition out;
  out.graph = &g;

  // Theorem 2.6: ε' = ε / t with t the density bound of the class.
  const int t = options.density_bound > 0
                    ? options.density_bound
                    : std::max(1, static_cast<int>(std::ceil(g.edge_density())));
  out.eps_effective = eps / t;

  expander::DecompositionOptions dopt = options.decomposition;
  dopt.deterministic = options.deterministic;
  // Per-phase sub-seeds are splitmix-derived with distinct phase tags:
  // the old multiplicative mixes left the decomposition and gather streams
  // trivially correlated across nearby user seeds (seed=1 reuse).
  dopt.seed = graph::splitmix64(dopt.seed ^ graph::splitmix64(options.seed));
  // The caller's observers and threading, copied once for every simulated
  // phase. The distributed decomposition and the control traffic (election,
  // orientation) run on it as is, at the default bandwidth of one message
  // per edge per round; the gather derives its own budget from it below.
  congest::NetworkOptions& net = out.net;
  net.trace = options.trace;
  net.trace_config = options.trace_config;
  net.metrics = options.metrics;
  net.profiler = options.profiler;
  net.num_threads = options.num_threads;
  net.sparse_serial_threshold = options.sparse_serial_threshold;
  {
    congest::PhaseScope phase(net, "phase:decomposition");
    if (options.decomposition_mode == DecompositionMode::kDistributed) {
      expander::DistributedDecompositionOptions ddopt;
      ddopt.phi = dopt.phi;
      ddopt.seed = dopt.seed;
      ddopt.max_retries = dopt.max_retries;
      ddopt.net = net;
      const auto dd =
          expander::distributed_expander_decompose(g, out.eps_effective, ddopt);
      out.decomposition = dd.decomposition;
      out.ledger.add_measured("expander decomposition (distributed sweep)",
                              dd.stats);
    } else {
      if (options.weighted_volumes && g.is_weighted()) {
        out.decomposition =
            expander::expander_decompose_weighted(g, out.eps_effective, dopt)
                .base;
      } else {
        out.decomposition =
            expander::expander_decompose(g, out.eps_effective, dopt);
      }
      out.ledger.add_modeled(
          "expander decomposition (Thm 2.1/2.2)",
          congest::modeled_decomposition_rounds(n, out.eps_effective,
                                                options.deterministic));
    }
  }

  const auto& cluster_of = out.decomposition.cluster_of;

  // Leader election: the paper elects a maximum-cluster-degree vertex.
  congest::LeaderElectionResult election;
  {
    congest::PhaseScope phase(net, "phase:election");
    election = congest::elect_cluster_leaders(g, cluster_of, net);
  }
  out.leader_of = election.leader_of;
  out.ledger.add_measured("leader election (flooding)", election.stats);

  // Low-out-degree orientation (Barenboim–Elkin): the peel threshold is the
  // degeneracy, an O(1) constant of the H-minor-free class. Note: BE's
  // O(log n)-phase guarantee needs threshold >= (2+δ)·arboricity; at
  // exactly the degeneracy some families (grids: degeneracy 2 = arboricity)
  // peel in Θ(sqrt n) measured phases instead — visible in the ledger and
  // discussed in EXPERIMENTS.md E13.
  const int threshold = std::max(1, graph::degeneracy(g).degeneracy);
  congest::OrientationResult orientation;
  {
    congest::PhaseScope phase(net, "phase:orientation");
    orientation =
        congest::orient_cluster_edges(g, cluster_of, threshold, net);
  }
  out.ledger.add_measured("edge orientation (Barenboim-Elkin)",
                          orientation.stats);

  // Token per oriented intra-cluster edge: [u, v, weight, sign]; plus one
  // registration ("hello") token [v, -1, 0, 0] per vertex, first in its
  // list, which both announces the vertex to the leader and records the
  // first arrivals the reversed result delivery follows back (Theorem 2.6's
  // "exchange a distinct message with each vertex").
  std::vector<std::vector<GatherToken>> tokens(n);
  for (VertexId v = 0; v < n; ++v) {
    tokens[v].push_back({v, {v, -1, 0, 0}});
    for (EdgeId e : orientation.owned[v]) {
      const graph::Edge ed = g.edge(e);
      tokens[v].push_back(
          {v,
           {ed.u, ed.v, g.weight(e),
            !g.is_signed() || g.sign(e) == graph::EdgeSign::kPositive ? 1
                                                                      : -1}});
    }
  }
  GatherOptions gopt;
  gopt.seed = graph::splitmix64(options.seed ^ 0x2545F4914F6CDD1DULL);
  gopt.net = net;
  gopt.net.bandwidth_tokens =
      options.walk_bandwidth > 0
          ? options.walk_bandwidth
          : std::max(1, static_cast<int>(std::ceil(std::log2(std::max(2, n)))));
  if (options.reliable_gather || options.faults.enabled()) {
    congest::ReliableGatherOptions ropt;
    ropt.net = gopt.net;
    ropt.net.faults = options.faults;
    ropt.seed = gopt.seed;
    ropt.epoch_rounds = options.gather_epoch_rounds;
    ropt.max_epochs = options.gather_max_epochs;
    congest::PhaseScope phase(net, "phase:gather");
    congest::ReliableGatherResult reliable = congest::reliable_walk_gather(
        g, cluster_of, out.leader_of, tokens, ropt);
    out.gather = std::move(reliable.gather);
    out.gather_retransmissions = reliable.retransmissions;
    out.gather_epochs = reliable.epochs;
    out.gather_reelections = reliable.reelections;
    if (options.metrics) {
      options.metrics->counter("gather.retransmissions")
          ->add(reliable.retransmissions);
      options.metrics->counter("gather.epochs")->add(reliable.epochs);
      options.metrics->counter("gather.reelections")->add(reliable.reelections);
    }
    // Crash-forced re-elections replace leaders mid-gather; downstream
    // phases (reconstruction, reversed delivery) must see the survivors.
    // Crashed vertices report no leader (-1) and keep their original entry.
    for (VertexId v = 0; v < n; ++v) {
      if (reliable.final_leader_of[v] >= 0) {
        out.leader_of[v] = reliable.final_leader_of[v];
      }
    }
    out.ledger.add_measured("topology gather (reliable walks, §12)",
                            out.gather.stats);
  } else {
    congest::PhaseScope phase(net, "phase:gather");
    out.gather = congest::random_walk_gather(g, cluster_of, out.leader_of,
                                             tokens, gopt);
    out.ledger.add_measured("topology gather (Lemma 2.4 random walks)",
                            out.gather.stats);
  }
  const auto& gather = out.gather;
  out.gather_complete = gather.complete;

  // Leader-side reconstruction.
  congest::PhaseScope reconstruct_phase(net, "phase:reconstruct");
  const auto members = expander::cluster_members(out.decomposition);
  out.clusters.resize(out.decomposition.num_clusters);
  for (int c = 0; c < out.decomposition.num_clusters; ++c) {
    Cluster& cluster = out.clusters[c];
    cluster.members = members[c];
    cluster.leader = out.leader_of[members[c].front()];
    cluster.subgraph =
        reconstruct_cluster(g, cluster.leader, gather.delivered[c]);
    for (int i = 0; i < static_cast<int>(cluster.subgraph.to_parent.size());
         ++i) {
      if (cluster.subgraph.to_parent[i] == cluster.leader) {
        cluster.leader_local = i;
      }
    }
  }
  return out;
}

std::int64_t return_results(Partition& partition,
                            const std::vector<std::int64_t>& per_vertex_word,
                            const char* label) {
  // Send each vertex's answer back along the first-arrival path of its
  // registration token, on the simulator. A registration that never reached
  // its leader has no path to reverse.
  if (partition.graph == nullptr) {
    throw std::logic_error("return_results: the partition has no graph");
  }
  const std::size_t n =
      static_cast<std::size_t>(partition.graph->num_vertices());
  if (per_vertex_word.size() != n) {
    throw std::invalid_argument(
        "return_results: " + std::to_string(per_vertex_word.size()) +
        " words for " + std::to_string(n) +
        " vertices; there must be exactly one per vertex");
  }
  // Vertex v's registration is its first token, id token_begin[v].
  const std::vector<std::int64_t>& token_begin = partition.gather.token_begin;
  std::vector<bool> delivered(static_cast<std::size_t>(token_begin.back()),
                              false);
  for (const auto& ids : partition.gather.delivered_ids) {
    for (const std::int64_t id : ids) delivered[id] = true;
  }
  std::size_t missing = 0;
  for (std::size_t v = 0; v < n; ++v) {
    missing += token_begin[v] == token_begin[v + 1] ||
               !delivered[static_cast<std::size_t>(token_begin[v])];
  }
  if (missing > 0) {
    throw std::runtime_error(
        "return_results: " + std::to_string(missing) + " of " +
        std::to_string(per_vertex_word.size()) +
        " registration tokens never reached their leader");
  }
  congest::PathReturnResult delivery;
  {
    congest::PhaseScope phase(partition.net, "phase:return");
    delivery = congest::return_along_paths(*partition.graph, partition.gather,
                                           per_vertex_word, partition.net);
  }
  // Every vertex must have received exactly its own word back.
  for (std::size_t v = 0; v < per_vertex_word.size(); ++v) {
    if (!delivery.arrived[v] || delivery.word[v] != per_vertex_word[v]) {
      throw std::logic_error("the return dropped or mixed a reply");
    }
  }
  partition.ledger.add_measured(label, delivery.stats);
  return delivery.stats.rounds;
}

std::vector<std::int64_t> solve_clusters(Partition& partition,
                                         const ClusterSolver& solve) {
  std::vector<std::int64_t> words(partition.leader_of.size());
  for (const Cluster& cluster : partition.clusters) {
    const std::vector<std::int64_t> local = solve(cluster);
    const auto& to_parent = cluster.subgraph.to_parent;
    if (local.size() != to_parent.size()) {
      throw std::logic_error("a cluster solve must return one word per vertex");
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
      words[to_parent[i]] = local[i];
    }
  }
  return_results(partition, words, "result return (reversed walks)");
  return words;
}

std::vector<HighDegreeDiagnostic> high_degree_diagnostics(
    const Partition& partition) {
  std::vector<HighDegreeDiagnostic> out;
  const double phi = partition.decomposition.phi;
  for (int c = 0; c < static_cast<int>(partition.clusters.size()); ++c) {
    const Cluster& cluster = partition.clusters[c];
    HighDegreeDiagnostic d;
    d.cluster = c;
    d.cluster_size = static_cast<int>(cluster.members.size());
    d.cluster_edges = cluster.subgraph.graph.num_edges();
    d.leader_degree = cluster.leader_local >= 0
                          ? cluster.subgraph.graph.degree(cluster.leader_local)
                          : 0;
    d.phi = phi;
    const double denom = phi * phi * d.cluster_size;
    d.ratio = denom > 0 ? d.leader_degree / denom : 0.0;
    out.push_back(d);
  }
  return out;
}

}  // namespace ecd::core
