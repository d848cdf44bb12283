// Pipeline benchmark harness: one Theorem 2.6 application workload per run.
//
// A run generates --variants inputs from --seed (variant k: a graph, its
// weights and the framework seed, all drawn from a stream derived from the
// seed and k). It then calls the application back to back on one thread (a
// closed loop with one caller, num_threads = 1) in cycles over the variants,
// starting another cycle only while it is expected to end within --seconds.
// Every call's output is checked. The deterministic metrics (rounds,
// messages, quality) are means over the variants, which keeps their spread
// across seeds small while every run still sees fresh inputs.
//
//   --trace 0  End-to-end. Each call is the library's application function
//              (core::mis_approx, core::mcm_planar_approx, core::mwm_approx).
//   --trace 1  Per-layer. The first half of the time runs untraced cycles as
//              above; they are the reference. The second half runs the same
//              application composed here from the public functions of each
//              module (graph, expander, congest, seq, core), with a span
//              around every such call. Each partition_and_gather call is
//              preceded by a replay of its layer calls (decompose, election,
//              orientation, gather) with the seeds the framework derives; the
//              replays time those layers, and their RunStats must equal the
//              partition's ledger entries. The composed call must reproduce
//              the reference's output, quality and ledger exactly.
//
// Output: human-readable lines, then one JSON line with the keys correct,
// attempted, failed and metrics. perfbench/run.py builds and drives this
// binary; README.md lists the workloads and what each metric should move.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/congest/primitives.h"
#include "src/core/framework.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/core/mwm.h"
#include "src/expander/decomposition.h"
#include "src/expander/weighted.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/splitmix.h"
#include "src/graph/subgraph.h"
#include "src/seq/matching.h"
#include "src/seq/mis.h"
#include "src/seq/mwm.h"

namespace {

using namespace ecd;
using graph::Graph;
using graph::VertexId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Command line -----------------------------------------------------------

struct Args {
  std::string app;    // mis | mcm | mwm
  std::string graph;  // tri:<n> | grid:<rows>x<cols>
  graph::Weight max_weight = 0;  // > 0: uniform random weights in [1, max]
  double eps = 0.2;
  double phi = 0.0;  // decomposition φ; 0 keeps the library default
  std::int64_t node_budget = 0;  // mis: B&B nodes per cluster; 0 = default
  std::uint64_t seed = 1;
  int variants = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // --trace 1: write the span log here (JSONL)
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pipeline_bench: %s\n"
               "usage: pipeline_bench --app mis|mcm|mwm --graph tri:N|grid:RxC"
               " [--weights W] [--eps E] [--phi P] [--node-budget B]"
               " [--seed S] [--variants K] [--seconds T]"
               " [--trace 0|1] [--spans PATH]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--app") a.app = value;
      else if (flag == "--graph") a.graph = value;
      else if (flag == "--weights") a.max_weight = std::stoll(value);
      else if (flag == "--eps") a.eps = std::stod(value);
      else if (flag == "--phi") a.phi = std::stod(value);
      else if (flag == "--node-budget") a.node_budget = std::stoll(value);
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--variants") a.variants = std::stoi(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--spans") a.spans_path = value;
      else usage("unknown flag " + std::string(flag));
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (a.app != "mis" && a.app != "mcm" && a.app != "mwm") usage("bad --app");
  if (a.graph.empty()) usage("missing --graph");
  if (a.variants < 1 || a.seconds <= 0) usage("bad --variants/--seconds");
  return a;
}

// --- Workload input (the set-up that setup_s times) -------------------------

// Seed of variant k's random stream.
std::uint64_t variant_seed(const Args& a, int k) {
  return graph::splitmix64(graph::splitmix64(a.seed) ^ static_cast<std::uint64_t>(k));
}

Graph generate(const Args& a, int k) {
  graph::Rng rng(variant_seed(a, k));
  Graph g;
  const auto colon = a.graph.find(':');
  const std::string family = a.graph.substr(0, colon);
  const std::string size =
      colon == std::string::npos ? "" : a.graph.substr(colon + 1);
  if (family == "tri") {
    g = graph::random_maximal_planar(std::stoi(size), rng);
  } else if (family == "grid") {
    const auto x = size.find('x');
    if (x == std::string::npos) usage("grid size must be RxC");
    g = graph::grid(std::stoi(size.substr(0, x)), std::stoi(size.substr(x + 1)));
  } else {
    usage("unknown graph family " + family);
  }
  if (a.max_weight > 0) {
    g = g.with_weights(graph::random_weights(g, a.max_weight, rng));
  }
  return g;
}

// --- Spans ------------------------------------------------------------------

// In-memory span log of the traced calls. Spans nest by call order; every
// span carries the id of the call (one application call) it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  // index into spans(), -1 for a call's root
    int call;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  template <class F>
  decltype(auto) span(const char* name, F&& fn) {
    Scope scope(*this, name);
    return fn();
  }

  void begin_call() { ++call_; }
  int call() const { return call_; }
  const std::vector<Span>& spans() const { return spans_; }

  void write_jsonl(std::ostream& os) const {
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
         << ",\"call\":" << s.call << ",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void open(const char* name) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), call_,
                      now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int call_ = -1;
};

// --- One application call ---------------------------------------------------

struct Outcome {
  std::vector<std::int64_t> output;  // the independent set, or the mate array
  std::int64_t quality = 0;          // |I|, |M| or matching weight
  congest::RoundLedger ledger;
  // Workload properties; -1 where the library's result does not report one.
  int partitions = -1;
  int clusters = -1;  // summed over partitions
  int largest_cluster = -1;
  int cluster_solves = -1;
  int exact_solves = -1;
};

std::int64_t ledger_messages(const congest::RoundLedger& ledger) {
  std::int64_t sum = 0;
  for (const auto& e : ledger.entries()) {
    if (e.measured) sum += e.stats.messages_sent;
  }
  return sum;
}

std::int64_t ledger_gather_rounds(const congest::RoundLedger& ledger) {
  std::int64_t sum = 0;
  for (const auto& e : ledger.entries()) {
    if (e.label.find("gather") != std::string::npos) sum += e.stats.rounds;
  }
  return sum;
}

// FNV-1a over the output vector: equal checksums mean identical outputs.
std::uint64_t checksum(const std::vector<std::int64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int64_t v : values) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// A failed self-check of the composed (traced) call.
void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

bool same_stats(const congest::RunStats& a, const congest::RunStats& b) {
  return a.rounds == b.rounds && a.messages_sent == b.messages_sent &&
         a.words_sent == b.words_sent && a.max_edge_load == b.max_edge_load;
}

bool same_ledger(const congest::RoundLedger& a, const congest::RoundLedger& b) {
  const auto& x = a.entries();
  const auto& y = b.entries();
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].label != y[i].label || x[i].measured != y[i].measured ||
        !same_stats(x[i].stats, y[i].stats)) {
      return false;
    }
  }
  return true;
}

// One input of a run, with the reference values its output checks use.
struct Variant {
  Graph g;
  core::FrameworkOptions framework;
  int components = 0;
  int best_cardinality = 0;        // mcm: size of a maximum matching
  std::int64_t greedy_weight = 0;  // mwm: weight of the greedy matching
};

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}

  Variant make_variant(Graph g, int k) const {
    Variant v;
    v.g = std::move(g);
    v.framework.seed = graph::splitmix64(variant_seed(args_, k) ^ 0x5eedf00dULL);
    if (args_.phi > 0) v.framework.decomposition.phi = args_.phi;
    v.components = graph::connected_components(v.g).count;
    if (args_.app == "mcm") {
      v.best_cardinality =
          seq::matching_size(seq::max_cardinality_matching(v.g));
    } else if (args_.app == "mwm") {
      v.greedy_weight =
          seq::matching_weight(v.g, seq::greedy_weight_matching(v.g));
    }
    return v;
  }

  core::MisApproxOptions mis_options(const Variant& v) const {
    core::MisApproxOptions opt;
    opt.framework = v.framework;
    if (args_.node_budget > 0) opt.exact_node_budget = args_.node_budget;
    return opt;
  }

  // The library's application call (untraced).
  Outcome run(const Variant& v) const {
    Outcome o;
    if (args_.app == "mis") {
      core::MisApproxOptions opt = mis_options(v);
      auto r = core::mis_approx(v.g, args_.eps, opt);
      o.output.assign(r.independent_set.begin(), r.independent_set.end());
      o.quality = static_cast<std::int64_t>(r.independent_set.size());
      o.ledger = std::move(r.ledger);
      o.partitions = 1;
      o.clusters = o.cluster_solves = r.num_clusters;
      o.exact_solves = r.clusters_exact;
    } else if (args_.app == "mcm") {
      core::McmApproxOptions opt;
      opt.framework = v.framework;
      auto r = core::mcm_planar_approx(v.g, args_.eps, opt);
      o.output.assign(r.mates.begin(), r.mates.end());
      o.quality = r.matching_size;
      o.ledger = std::move(r.ledger);
      o.partitions = 1;
      o.clusters = r.num_clusters;
    } else {
      core::MwmApproxOptions opt;
      opt.framework = v.framework;
      auto r = core::mwm_approx(v.g, args_.eps, opt);
      o.output.assign(r.mates.begin(), r.mates.end());
      o.quality = r.weight;
      o.ledger = std::move(r.ledger);
      o.partitions = r.phases;
    }
    return o;
  }

  // The same application composed from module calls, with spans.
  Outcome run_traced(const Variant& v, Tracer& tr) {
    tr.begin_call();
    Tracer::Scope root(tr, "solve");
    if (args_.app == "mis") return traced_mis(v, tr);
    if (args_.app == "mcm") return traced_mcm(v, tr);
    return traced_mwm(v, tr);
  }

  // Empty when the output passes every check, else the first failure.
  std::string check(const Variant& v, const Outcome& o) const {
    const int n = v.g.num_vertices();
    if (args_.app == "mis") {
      std::vector<VertexId> set(o.output.begin(), o.output.end());
      for (VertexId v : set) {
        if (v < 0 || v >= n) return "independent set names a non-vertex";
      }
      if (!seq::is_independent_set(v.g, set)) return "set is not independent";
      return {};
    }
    seq::Mates mates(o.output.begin(), o.output.end());
    if (static_cast<int>(mates.size()) != n ||
        !seq::is_valid_matching(v.g, mates)) {
      return "matching is not valid";
    }
    if (args_.app == "mcm" &&
        o.quality < (1.0 - args_.eps) * v.best_cardinality) {
      return "|M| below (1-eps) * maximum matching";
    }
    if (args_.app == "mwm" && o.quality < v.greedy_weight) {
      return "weight below the greedy matching's weight";
    }
    return {};
  }

  // Per-call gather counters collected by the replays.
  struct GatherCounters {
    std::int64_t rounds = 0;
    std::int64_t messages = 0;
    std::int64_t allocs = 0;
    int max_edge_load = 0;
  };
  const GatherCounters& gather_counters() const { return gather_; }

 private:
  // What a replay of partition_and_gather's layer calls keeps to check the
  // partition against: clusters, leaders and the RunStats of each layer.
  struct Replay {
    std::vector<int> cluster_of;
    std::vector<VertexId> leader_of;
    congest::RunStats election, orientation, gather;
  };

  // Replays partition_and_gather's layer calls with the seeds and options it
  // derives (src/core/framework.cpp), inside a "replay" span that the call's
  // wall time excludes. It runs before the partition and frees its large
  // results first, so both see the same heap.
  Replay replay_layers(const Graph& g, double eps,
                       const core::FrameworkOptions& fopt, Tracer& tr) {
    Tracer::Scope scope(tr, "replay");
    Replay out;
    const int n = g.num_vertices();
    const int t = fopt.density_bound > 0
                      ? fopt.density_bound
                      : std::max(1, static_cast<int>(std::ceil(g.edge_density())));
    expander::DecompositionOptions dopt = fopt.decomposition;
    dopt.deterministic = fopt.deterministic;
    dopt.seed = graph::splitmix64(dopt.seed ^ graph::splitmix64(fopt.seed));
    out.cluster_of = tr.span("expander.decompose", [&] {
      return fopt.weighted_volumes && g.is_weighted()
                 ? expander::expander_decompose_weighted(g, eps / t, dopt)
                       .base.cluster_of
                 : expander::expander_decompose(g, eps / t, dopt).cluster_of;
    });

    congest::NetworkOptions net;
    net.num_threads = fopt.num_threads;
    net.sparse_serial_threshold = fopt.sparse_serial_threshold;
    auto election = tr.span("congest.election", [&] {
      return congest::elect_cluster_leaders(g, out.cluster_of, net);
    });
    out.leader_of = std::move(election.leader_of);
    out.election = election.stats;
    const int threshold = std::max(1, graph::degeneracy(g).degeneracy);
    const auto orientation = tr.span("congest.orientation", [&] {
      return congest::orient_cluster_edges(g, out.cluster_of, threshold, net);
    });
    out.orientation = orientation.stats;

    // One registration token per vertex, then one per owned edge.
    std::vector<std::vector<congest::GatherToken>> tokens(n);
    for (VertexId v = 0; v < n; ++v) {
      tokens[v].push_back({v, {v, -1, 0, 0}});
      for (graph::EdgeId e : orientation.owned[v]) {
        const graph::Edge ed = g.edge(e);
        const bool positive =
            !g.is_signed() || g.sign(e) == graph::EdgeSign::kPositive;
        tokens[v].push_back({v, {ed.u, ed.v, g.weight(e), positive ? 1 : -1}});
      }
    }
    congest::GatherOptions gopt;
    gopt.seed = graph::splitmix64(fopt.seed ^ 0x2545F4914F6CDD1DULL);
    gopt.net = net;
    gopt.net.bandwidth_tokens =
        fopt.walk_bandwidth > 0
            ? fopt.walk_bandwidth
            : std::max(1, static_cast<int>(std::ceil(std::log2(std::max(2, n)))));
    const bench::AllocScope allocs;
    const auto gather = tr.span("congest.gather", [&] {
      return congest::random_walk_gather(g, out.cluster_of, out.leader_of,
                                         tokens, gopt);
    });
    gather_.allocs += allocs.delta();
    expect(gather.complete, "replayed gather incomplete");
    out.gather = gather.stats;
    gather_.rounds += gather.stats.rounds;
    gather_.messages += gather.stats.messages_sent;
    gather_.max_edge_load =
        std::max(gather_.max_edge_load, gather.stats.max_edge_load);
    return out;
  }

  // The replayed layer calls, then partition_and_gather itself; the replay
  // must match the partition's clusters, leaders and ledger.
  core::Partition traced_partition(const Graph& g, double eps,
                                   const core::FrameworkOptions& fopt,
                                   Tracer& tr, Outcome& o) {
    const Replay replay = replay_layers(g, eps, fopt, tr);
    core::Partition p = tr.span(
        "core.partition", [&] { return core::partition_and_gather(g, eps, fopt); });
    expect(p.gather_complete, "gather incomplete");
    expect(replay.cluster_of == p.decomposition.cluster_of,
           "replayed decomposition differs from the partition's");
    expect(replay.leader_of == p.leader_of, "replayed leaders differ");
    expect_entry(p.ledger, "leader election", replay.election);
    expect_entry(p.ledger, "edge orientation", replay.orientation);
    expect_entry(p.ledger, "topology gather", replay.gather);
    ++o.partitions;
    o.clusters += static_cast<int>(p.clusters.size());
    for (const auto& c : p.clusters) {
      o.largest_cluster =
          std::max(o.largest_cluster, static_cast<int>(c.members.size()));
    }
    return p;
  }

  static void expect_entry(const congest::RoundLedger& ledger,
                           const std::string& label,
                           const congest::RunStats& replayed) {
    for (const auto& e : ledger.entries()) {
      if (e.label.find(label) == std::string::npos) continue;
      expect(same_stats(e.stats, replayed),
             "replayed " + label + " RunStats differ from the ledger");
      return;
    }
    throw std::runtime_error("no ledger entry for " + label);
  }

  void start_traced(Outcome& o) {
    gather_ = {};
    o.partitions = o.clusters = o.largest_cluster = 0;
    o.cluster_solves = o.exact_solves = 0;
  }

  // core::mis_approx (src/core/mis.cpp), composed.
  Outcome traced_mis(const Variant& v, Tracer& tr) {
    Outcome o;
    start_traced(o);
    const core::MisApproxOptions options = mis_options(v);
    const int d = std::max(1, static_cast<int>(std::ceil(v.g.edge_density())));
    core::FrameworkOptions fopt = v.framework;
    fopt.density_bound = 1;
    core::Partition p = traced_partition(v.g, args_.eps / (2 * d + 1), fopt, tr, o);
    const int n = v.g.num_vertices();
    std::vector<bool> in_set(n, false);
    for (const core::Cluster& cluster : p.clusters) {
      const auto mis = tr.span("seq.solve", [&] {
        return seq::best_effort_mis(cluster.subgraph.graph,
                                    options.exact_node_budget);
      });
      ++o.cluster_solves;
      o.exact_solves += mis.exact;
      for (VertexId local : mis.vertices) {
        in_set[cluster.subgraph.to_parent[local]] = true;
      }
    }
    traced_return(tr, p, [&](VertexId x) { return std::int64_t{in_set[x]}; });
    tr.span("core.app_self", [&] {
      for (graph::EdgeId e = 0; e < v.g.num_edges(); ++e) {
        if (!p.decomposition.is_inter_cluster[e]) continue;
        const graph::Edge ed = v.g.edge(e);
        if (in_set[ed.u] && in_set[ed.v]) in_set[std::max(ed.u, ed.v)] = false;
      }
      p.ledger.add_measured("conflict removal (1 round)", 1);
      for (VertexId x = 0; x < n; ++x) {
        if (in_set[x]) o.output.push_back(x);
      }
    });
    o.quality = static_cast<std::int64_t>(o.output.size());
    o.ledger = std::move(p.ledger);
    return o;
  }

  // core::mcm_planar_approx (src/core/matching.cpp), composed.
  Outcome traced_mcm(const Variant& v, Tracer& tr) {
    Outcome o;
    start_traced(o);
    const core::McmApproxOptions defaults;
    core::StarEliminationResult elimination;
    Graph g_bar;
    tr.span("core.app_self", [&] {
      elimination = core::eliminate_stars(v.g);
      std::vector<bool> keep_edge(v.g.num_edges(), true);
      for (graph::EdgeId e = 0; e < v.g.num_edges(); ++e) {
        const graph::Edge ed = v.g.edge(e);
        keep_edge[e] = !elimination.removed[ed.u] && !elimination.removed[ed.v];
      }
      g_bar = graph::edge_subgraph(v.g, keep_edge);
    });
    core::FrameworkOptions fopt = v.framework;
    fopt.density_bound = 1;
    core::Partition p = traced_partition(
        g_bar, args_.eps * defaults.matching_linearity_constant, fopt, tr, o);
    p.ledger.add_measured("star elimination (token protocol)",
                          elimination.rounds_used);
    seq::Mates mates(v.g.num_vertices(), graph::kInvalidVertex);
    for (const core::Cluster& cluster : p.clusters) {
      const auto local = tr.span("seq.solve", [&] {
        return seq::max_cardinality_matching(cluster.subgraph.graph);
      });
      ++o.cluster_solves;
      ++o.exact_solves;
      for (VertexId i = 0; i < static_cast<VertexId>(local.size()); ++i) {
        if (local[i] != graph::kInvalidVertex) {
          mates[cluster.subgraph.to_parent[i]] =
              cluster.subgraph.to_parent[local[i]];
        }
      }
    }
    traced_return(tr, p, [&](VertexId x) { return std::int64_t{mates[x]}; });
    o.quality = seq::matching_size(mates);
    o.output.assign(mates.begin(), mates.end());
    o.ledger = std::move(p.ledger);
    return o;
  }

  // core::mwm_approx (src/core/mwm.cpp), composed.
  Outcome traced_mwm(const Variant& v, Tracer& tr) {
    Outcome o;
    start_traced(o);
    const core::MwmApproxOptions defaults;
    const int n = v.g.num_vertices();
    const int phases = static_cast<int>(std::ceil(4.0 / args_.eps)) + 2;
    seq::Mates mates(n, graph::kInvalidVertex);
    for (int phase = 0; phase < phases; ++phase) {
      core::FrameworkOptions fopt = v.framework;
      fopt.weighted_volumes = defaults.weighted_decomposition;
      fopt.seed = v.framework.seed + 0x51ED2701ULL * (phase + 1);
      core::Partition p = traced_partition(v.g, args_.eps, fopt, tr, o);
      const auto& cluster_of = p.decomposition.cluster_of;
      for (const core::Cluster& cluster : p.clusters) {
        const auto& sub = cluster.subgraph;
        const int nc = sub.graph.num_vertices();
        // Freeze vertices matched across the boundary; weigh the matching
        // inside the cluster.
        graph::InducedSubgraph avail;
        bool solvable = false;
        std::int64_t inside_weight = 0;
        tr.span("core.app_self", [&] {
          std::vector<VertexId> avail_vertices;
          for (VertexId i = 0; i < nc; ++i) {
            const VertexId parent = sub.to_parent[i];
            const VertexId mate = mates[parent];
            if (mate == graph::kInvalidVertex) {
              avail_vertices.push_back(i);
            } else if (cluster_of[mate] == cluster_of[parent]) {
              avail_vertices.push_back(i);
              if (parent < mate) {
                inside_weight += v.g.weight(v.g.find_edge(parent, mate));
              }
            }
          }
          solvable = avail_vertices.size() >= 2;
          if (solvable) avail = graph::induced_subgraph(sub.graph, avail_vertices);
        });
        if (!solvable) continue;
        const bool exact = avail.graph.num_vertices() <= defaults.exact_cluster_cap;
        const seq::Mates local = tr.span("seq.solve", [&] {
          return exact ? seq::max_weight_matching(avail.graph)
                       : seq::greedy_weight_matching(avail.graph);
        });
        ++o.cluster_solves;
        o.exact_solves += exact;
        tr.span("core.app_self", [&] {
          if (seq::matching_weight(avail.graph, local) < inside_weight) return;
          for (VertexId i = 0; i < nc; ++i) {
            const VertexId parent = sub.to_parent[i];
            const VertexId mate = mates[parent];
            if (mate != graph::kInvalidVertex &&
                cluster_of[mate] == cluster_of[parent]) {
              mates[parent] = graph::kInvalidVertex;
              mates[mate] = graph::kInvalidVertex;
            }
          }
          for (VertexId a = 0; a < avail.graph.num_vertices(); ++a) {
            const VertexId b = local[a];
            if (b == graph::kInvalidVertex || b < a) continue;
            const VertexId pa = sub.to_parent[avail.to_parent[a]];
            const VertexId pb = sub.to_parent[avail.to_parent[b]];
            mates[pa] = pb;
            mates[pb] = pa;
          }
        });
      }
      traced_return(tr, p, [&](VertexId x) { return std::int64_t{mates[x]}; });
      o.ledger.merge(p.ledger);
    }
    o.quality = tr.span("core.app_self",
                        [&] { return seq::matching_weight(v.g, mates); });
    o.output.assign(mates.begin(), mates.end());
    return o;
  }

  template <class WordOf>
  void traced_return(Tracer& tr, core::Partition& p, WordOf word_of) {
    std::vector<std::int64_t> words;
    tr.span("core.app_self", [&] {
      words.resize(p.leader_of.size());
      for (VertexId x = 0; x < static_cast<VertexId>(words.size()); ++x) {
        words[x] = word_of(x);
      }
    });
    tr.span("congest.return", [&] {
      core::return_results(p, words, "result return (reversed walks)");
    });
  }

  const Args& args_;
  GatherCounters gather_;
};

// --- Statistics and output --------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// The calls of one run. A call fails if it throws, its output fails a check,
// or it differs from the first successful call on the same variant (same
// input, so the output and the ledger must repeat exactly).
struct CallLoop {
  explicit CallLoop(int variants) : first(variants) {}
  std::vector<double> solve_s;  // successful calls only
  int attempted = 0;
  int failed = 0;
  std::vector<std::optional<Outcome>> first;  // per variant

  // Records one finished call on variant k; returns false if it failed.
  bool record(int k, Outcome o, std::string error) {
    ++attempted;
    if (error.empty() && first[k]) {
      if (o.output != first[k]->output || o.quality != first[k]->quality) {
        error = "output differs from the variant's first call";
      } else if (!same_ledger(o.ledger, first[k]->ledger)) {
        error = "ledger differs from the variant's first call";
      }
    }
    if (!error.empty()) {
      ++failed;
      std::printf("call %d (variant %d) failed: %s\n", attempted, k,
                  error.c_str());
      return false;
    }
    if (!first[k]) first[k] = std::move(o);
    return true;
  }

  // Mean over the variants of a deterministic per-outcome value.
  template <class F>
  double mean(F value_of) const {
    double sum = 0.0;
    for (const auto& o : first) sum += o ? static_cast<double>(value_of(*o)) : 0.0;
    return sum / static_cast<double>(first.size());
  }
};

// Runs `one_cycle` at least once, then again while another cycle is
// expected to end before `deadline`.
template <class F>
void cycles_until(Clock::time_point deadline, F one_cycle) {
  double cycle_s = 0.0;
  do {
    const auto t0 = Clock::now();
    one_cycle();
    cycle_s = seconds_since(t0);
  } while (std::chrono::duration<double>(deadline - Clock::now()).count() >=
           cycle_s);
}

void run_untraced(CallLoop& loop, const Workload& w,
                  const std::vector<Variant>& variants,
                  Clock::time_point deadline) {
  cycles_until(deadline, [&] {
    for (int k = 0; k < static_cast<int>(variants.size()); ++k) {
      const auto t0 = Clock::now();
      Outcome o;
      std::string error;
      try {
        o = w.run(variants[k]);
        error = w.check(variants[k], o);
      } catch (const std::exception& e) {
        error = std::string("threw: ") + e.what();
      }
      const double elapsed = seconds_since(t0);
      if (loop.record(k, std::move(o), error)) loop.solve_s.push_back(elapsed);
    }
  });
}

std::uint64_t combined_checksum(const CallLoop& loop) {
  std::vector<std::int64_t> per_variant;
  for (const auto& o : loop.first) {
    per_variant.push_back(o ? static_cast<std::int64_t>(checksum(o->output)) : 0);
  }
  return checksum(per_variant);
}

void print_properties(int k, const Variant& v, const Outcome& o) {
  std::printf("variant %d: n=%d m=%d components=%d partitions=%d clusters=%d "
              "largest_cluster=%d exact_solves=%d/%d gather_rounds=%lld "
              "rounds=%lld messages=%lld quality=%lld checksum=%016llx\n",
              k, v.g.num_vertices(), v.g.num_edges(), v.components,
              o.partitions, o.clusters, o.largest_cluster, o.exact_solves,
              o.cluster_solves,
              static_cast<long long>(ledger_gather_rounds(o.ledger)),
              static_cast<long long>(o.ledger.measured_total()),
              static_cast<long long>(ledger_messages(o.ledger)),
              static_cast<long long>(o.quality),
              static_cast<unsigned long long>(checksum(o.output)));
}

// Per-call layer values of the traced call `tr.call()`, from its spans and
// the workload's gather counters.
std::map<std::string, double> layer_values(const Tracer& tr, const Workload& w,
                                           const Outcome& o) {
  std::map<std::string, double> sum;
  double max_seq = 0.0;
  double root = 0.0;
  for (const auto& s : tr.spans()) {
    if (s.call != tr.call()) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent < 0) root = d;
    sum[s.name] += d;
    if (std::string_view(s.name) == "seq.solve") max_seq = std::max(max_seq, d);
  }
  const double wall = root - sum["replay"];
  const double control = sum["congest.election"] + sum["congest.orientation"];
  const double core_self = sum["core.partition"] - sum["expander.decompose"] -
                           control - sum["congest.gather"];
  const double congest = control + sum["congest.gather"] + sum["congest.return"];
  const double attributed = sum["core.partition"] + sum["seq.solve"] +
                            sum["congest.return"] + sum["core.app_self"];
  const auto& gc = w.gather_counters();
  return {
      {"expander.decompose_s", sum["expander.decompose"]},
      {"expander.clusters", static_cast<double>(o.clusters) / o.partitions},
      {"expander.largest_cluster", o.largest_cluster},
      {"congest.control_s", control},
      {"congest.gather_s", sum["congest.gather"]},
      {"congest.gather_rounds", static_cast<double>(gc.rounds)},
      {"congest.gather_messages", static_cast<double>(gc.messages)},
      {"congest.gather_msgs_per_s", gc.messages / sum["congest.gather"]},
      {"congest.gather_ns_per_round",
       sum["congest.gather"] * 1e9 / std::max<std::int64_t>(1, gc.rounds)},
      {"congest.gather_allocs", static_cast<double>(gc.allocs)},
      {"congest.return_s", sum["congest.return"]},
      {"congest.max_edge_load", gc.max_edge_load},
      {"seq.solve_s", sum["seq.solve"]},
      {"seq.max_cluster_s", max_seq},
      {"seq.exact_share",
       o.cluster_solves > 0 ? static_cast<double>(o.exact_solves) / o.cluster_solves
                            : 0.0},
      {"core.partition_s", sum["core.partition"]},
      {"core.self_s", core_self},
      {"core.app_self_s", sum["core.app_self"]},
      {"layer.expander_frac", sum["expander.decompose"] / wall},
      {"layer.congest_frac", congest / wall},
      {"layer.seq_frac", sum["seq.solve"] / wall},
      {"layer.core_frac", (core_self + sum["core.app_self"]) / wall},
      {"trace.solve_s", wall},
      {"trace.unattributed_frac", (wall - attributed) / wall},
  };
}

// Traced cycles until `deadline`: every call's layer values, by metric.
std::map<std::string, std::vector<double>> run_traced(
    CallLoop& loop, Workload& w, const std::vector<Variant>& variants,
    Clock::time_point deadline, const std::string& spans_path) {
  Tracer tr;
  std::map<std::string, std::vector<double>> per_call;
  std::vector<bool> printed(variants.size(), false);
  cycles_until(deadline, [&] {
    for (int k = 0; k < static_cast<int>(variants.size()); ++k) {
      Outcome o;
      std::string error;
      try {
        o = w.run_traced(variants[k], tr);
        error = w.check(variants[k], o);
      } catch (const std::exception& e) {
        error = std::string("traced call threw: ") + e.what();
      }
      if (error.empty() && !loop.first[k]) {
        error = "no untraced reference call to compare with";
      }
      if (error.empty() && !printed[k]) {
        print_properties(k, variants[k], o);
        printed[k] = true;
      }
      const auto values = error.empty() ? layer_values(tr, w, o)
                                        : std::map<std::string, double>{};
      if (!loop.record(k, std::move(o), error)) continue;
      for (const auto& [name, value] : values) per_call[name].push_back(value);
    }
  });
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    tr.write_jsonl(out);
  }
  return per_call;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.trace && !bench::alloc_hooks_installed()) {
    std::fprintf(stderr,
                 "pipeline_bench: --trace 1 needs the pipeline_bench_traced "
                 "binary (allocation hooks)\n");
    return 2;
  }
  std::printf("workload app=%s graph=%s weights=%lld eps=%g phi=%g "
              "node_budget=%lld seed=%llu variants=%d trace=%d\n",
              args.app.c_str(), args.graph.c_str(),
              static_cast<long long>(args.max_weight), args.eps, args.phi,
              static_cast<long long>(args.node_budget),
              static_cast<unsigned long long>(args.seed), args.variants,
              args.trace ? 1 : 0);
  const auto start = Clock::now();

  // Set-up: generating every variant's graph and attributes. Each of 21
  // samples repeats the set-up enough times to last about 20 ms, so short
  // scheduler noise averages out; setup_s is the median over the samples of
  // the time per set-up.
  constexpr int kSetupSamples = 21;
  std::vector<Graph> graphs(args.variants);
  const auto set_up = [&] {
    for (int k = 0; k < args.variants; ++k) graphs[k] = generate(args, k);
  };
  const auto t_first = Clock::now();
  set_up();
  const int per_sample = static_cast<int>(
      std::clamp(0.02 / std::max(seconds_since(t_first), 1e-9), 1.0, 1e4));
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    for (int j = 0; j < per_sample; ++j) set_up();
    setup_s.push_back(seconds_since(t0) / per_sample);
  }
  Workload w(args);
  std::vector<Variant> variants;
  for (int k = 0; k < args.variants; ++k) {
    variants.push_back(w.make_variant(std::move(graphs[k]), k));
  }
  const auto seconds = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  CallLoop loop(args.variants);
  if (!args.trace) {
    run_untraced(loop, w, variants, seconds(args.seconds));
    const double solve = median(loop.solve_s);
    std::printf("setup_s %.6f s (median of %d samples of %d set-ups)\n",
                median(setup_s), kSetupSamples, per_sample);
    std::printf("solve_s %.6f s (median of %zu calls:", solve,
                loop.solve_s.size());
    for (double s : loop.solve_s) std::printf(" %.3f", s);
    std::printf(")\n");
    std::printf("failed_frac %.4f (%d of %d calls)\n",
                static_cast<double>(loop.failed) / loop.attempted, loop.failed,
                loop.attempted);
    for (int k = 0; k < args.variants; ++k) {
      if (loop.first[k]) print_properties(k, variants[k], *loop.first[k]);
    }
    std::printf("checksum %016llx\n",
                static_cast<unsigned long long>(combined_checksum(loop)));
    const int ok = loop.attempted - loop.failed;
    print_result(loop.failed == 0, loop.attempted, loop.failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"solve_s", solve, "s"},
                  {"rounds",
                   loop.mean([](const Outcome& o) { return o.ledger.measured_total(); }),
                   "rounds"},
                  {"messages",
                   loop.mean([](const Outcome& o) { return ledger_messages(o.ledger); }),
                   "messages"},
                  {"quality", loop.mean([](const Outcome& o) { return o.quality; }),
                   "objective"},
                  {"peak_rss_mb", bench::peak_rss_mb(), "MiB"},
                  {"success_frac", static_cast<double>(ok) / loop.attempted,
                   "frac"}});
    return 0;
  }

  // Traced run: untraced reference cycles for half the time, then traced
  // composed cycles for the rest.
  run_untraced(loop, w, variants, seconds(args.seconds / 2));
  const double untraced_solve = median(loop.solve_s);
  auto per_call = run_traced(loop, w, variants, seconds(args.seconds),
                             args.spans_path);
  auto med = [&](const char* name) { return median(per_call[name]); };
  const double traced_solve = med("trace.solve_s");
  double components = 0.0;
  for (const Variant& v : variants) components += v.components;
  std::vector<Metric> metrics = {
      {"graph.generate_s", median(setup_s), "s"},
      {"graph.components", components / args.variants, "count"},
  };
  // Every per-call layer value, as the median over the traced calls.
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"expander.decompose_s", "s"},
           {"expander.clusters", "count"},
           {"expander.largest_cluster", "count"},
           {"congest.control_s", "s"},
           {"congest.gather_s", "s"},
           {"congest.gather_rounds", "rounds"},
           {"congest.gather_messages", "messages"},
           {"congest.gather_msgs_per_s", "1/s"},
           {"congest.gather_ns_per_round", "ns"},
           {"congest.gather_allocs", "count"},
           {"congest.return_s", "s"},
           {"congest.max_edge_load", "count"},
           {"seq.solve_s", "s"},
           {"seq.max_cluster_s", "s"},
           {"seq.exact_share", "frac"},
           {"core.partition_s", "s"},
           {"core.self_s", "s"},
           {"core.app_self_s", "s"},
           {"layer.expander_frac", "frac"},
           {"layer.congest_frac", "frac"},
           {"layer.seq_frac", "frac"},
           {"layer.core_frac", "frac"},
           {"trace.solve_s", "s"}}) {
    metrics.push_back({name, med(name), unit});
  }
  metrics.push_back({"trace.overhead_frac",
                     (traced_solve - untraced_solve) / untraced_solve, "frac"});
  metrics.push_back(
      {"trace.unattributed_frac", med("trace.unattributed_frac"), "frac"});

  std::printf("untraced solve_s %.6f s (median of %zu calls); traced %.6f s "
              "(median of %zu calls)\n",
              untraced_solve, loop.solve_s.size(), traced_solve,
              per_call["trace.solve_s"].size());
  std::printf("checksum %016llx\n",
              static_cast<unsigned long long>(combined_checksum(loop)));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(loop.failed == 0 && !per_call.empty(), loop.attempted,
               loop.failed, metrics);
  return 0;
}
