// ecd_cli — command-line driver for the library.
//
//   ecd_cli gen <family> <n> [seed]          write an edge list to stdout
//   ecd_cli decompose <file> [opts]          (ε, φ) expander decomposition
//   ecd_cli mis <file> [opts]                (1-ε)-approx MaxIS (Thm 1.2)
//   ecd_cli mcm <file> [opts]                planar MCM (Thm 3.2)
//   ecd_cli mwm <file> [opts]                weighted matching (Thm 1.1)
//   ecd_cli correlate <file> [opts]          correlation clustering (Thm 1.3)
//   ecd_cli test-planarity <file> [opts]     property testing (Thm 1.4)
//   ecd_cli ldd <file> [opts]                low-diameter decomp (Thm 1.5)
//   ecd_cli triangles <file>                 distributed triangle census
//   ecd_cli trace --family <f> --n <k>       run the Thm 2.6 pipeline with
//                                            the metrics registry attached;
//                                            print the per-phase table +
//                                            hotspot report, write a trace
//   ecd_cli report --family <f> --n <k>      the same pipeline run and
//                                            per-phase table; write an
//                                            ecd-run-report-v1 JSON snapshot
//   ecd_cli profile --family <f> --n <k>     run the pipeline with the
//                                            wall-clock execution profiler
//                                            attached; print the per-shard
//                                            imbalance/barrier table, write
//                                            ecd-profile-v1 JSON and (with
//                                            --timeline) a per-shard Chrome
//                                            trace
//   ecd_cli sweep --spec <file>              expand a declarative JSON grid
//                                            (family x n x seeds x algorithm
//                                            x threads x faults) and run it
//                                            on one SweepEngine with cached
//                                            topologies/Networks; write the
//                                            ecd-sweep-v1 summary and
//                                            (optionally) per-run JSONL
//                                            reports
//
// options: --eps <x>      proximity/approximation parameter (default 0.2)
//          --seed <k>     RNG seed (default 1)
//          --distributed  fully measured decomposition (no modeled rounds)
//          --dot <out>    write a cluster-colored DOT file (decompose/ldd)
//
// trace and report options:
//                --family <f> --n <k>        generated input (see `gen`)
//                --eps/--seed/--distributed  as above
//                --threads <k>               simulator worker threads
//                                            (default 1; 0 = hardware) — the
//                                            output is byte-identical at
//                                            every value (DESIGN.md §18)
//                --fault-permille <k>        drop k/1000 of gather messages
//                                            (routes through reliable gather)
//                --out <path>                output file (default
//                                            ecd_trace.json / ecd_report.json)
//                --top <k>                   congested edges to print or
//                                            report (default 10)
// trace only:    --format chrome|jsonl       trace format (default chrome)
//                --ring <k>                  flight-recorder mode: bounded
//                                            ring of the last k rounds of
//                                            events, dumped to --out as
//                                            flight JSONL (auto-dumped on an
//                                            aborted run); skips the hotspot
//                                            report and ignores --format
//                --sample r[,v[,t]]          with --ring only: keep the
//                                            events of rounds r | round,
//                                            delivery events for vertices
//                                            v | vertex, messages with
//                                            tag == t (t < 0: all tags);
//                                            defaults 1,1,-1 = everything
//
// profile options: --family/--n/--eps/--seed/--distributed/--threads/
//                  --fault-permille as above, or k/1000 of flood/mis messages
//                  --workload gather|flood|mis
//                                            what to profile (default
//                                            gather = the Thm 2.6 pipeline;
//                                            flood = one wavefront over the
//                                            graph; mis = Luby MIS)
//                  --out <path>              ecd-profile-v1 JSON (default
//                                            ecd_profile.json)
//                  --timeline <path>         per-shard Chrome trace_event
//                                            timeline (omitted = not written)
//                  --ring <k>                per-shard round samples kept for
//                                            the timeline (default 4096)
//                  --sparse-threshold <k>    serial-fallback cutoff: rounds
//                                            with <= k active vertices run
//                                            on the calling thread (default
//                                            256; 0 = always dispatch)
//                  --churn-permille <c>      deterministic topology churn of
//                                            ~c/1000 of the edges (the sweep
//                                            schedule, core::make_churn_plan;
//                                            flood/mis workloads only)
//
// sweep options: --spec <file>               JSON grid spec (axes: families,
//                                            sizes, topo_seeds, run_seeds,
//                                            algorithms, threads,
//                                            fault_permille,
//                                            churn_permille; scalars:
//                                            pingpong_rounds,
//                                            bandwidth_tokens,
//                                            sparse_serial_threshold,
//                                            max_rounds — see
//                                            src/core/sweep.h)
//                --workers <k>               serial cells multiplexed over k
//                                            workers (default 1; 0 = hw)
//                --repeat <k>                run the grid k times on one
//                                            engine; passes after the first
//                                            hit warm caches (default 1)
//                --cold                      fresh Graph/Network per run (the
//                                            reuse baseline)
//                --jsonl <path>              per-run ecd-run-report-v1 lines
//                                            (final pass only)
//                --out <path>                ecd-sweep-v1 summary (default
//                                            ecd_sweep.json)
//                --top <k>                   congested edges per JSONL report
//                                            (default 4)
//                --progress <path|->         stream ecd-sweep-progress-v1
//                                            heartbeat lines (cells done,
//                                            runs/s, per-worker liveness +
//                                            stall flags) to a file, or with
//                                            "-" to stderr
//                --progress-interval-ms <k>  heartbeat period (default 1000)
//                --stall-seconds <k>         flag a worker stalled after k
//                                            seconds without a completed run
//                                            (default 30)
//
// families for `gen`/`trace`: grid, tri, planar, outer, twotree, tree,
// torus, hypercube, expander.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/baselines/luby_mis.h"
#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/correlation.h"
#include "src/core/framework.h"
#include "src/core/ldd.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/core/sweep.h"
#include "src/core/triangles.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/seq/properties.h"

namespace {

using ecd::graph::Graph;

struct Options {
  double eps = 0.2;
  std::uint64_t seed = 1;
  bool distributed = false;
  std::string dot_path;
  std::string input;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ecd_cli <command> [options]  (full option list in the source"
      " header)\n"
      "commands:\n"
      "  gen <family> <n> [seed]            write an edge list to stdout\n"
      "  decompose <file> [opts]            (eps, phi) expander decomposition\n"
      "  mis <file> [opts]                  (1-eps)-approx MaxIS\n"
      "  mcm <file> [opts]                  planar maximum cardinality"
      " matching\n"
      "  mwm <file> [opts]                  maximum weight matching\n"
      "  correlate <file> [opts]            correlation clustering\n"
      "  test-planarity <file> [opts]       planarity property testing\n"
      "  ldd <file> [opts]                  low-diameter decomposition\n"
      "  triangles <file>                   distributed triangle census\n"
      "  trace --family <f> --n <k>         traced pipeline run + hotspot"
      " report\n"
      "        [--threads <k>] [--ring <k> [--sample r[,v[,t]]]]\n"
      "  report --family <f> --n <k>        metrics registry run ->"
      " ecd-run-report-v1\n"
      "  profile --family <f> --n <k>       execution profiler run ->"
      " ecd-profile-v1\n"
      "  sweep --spec <file>                declarative run grid over one"
      " engine\n"
      "        [--workers <k>] [--repeat <k>] [--cold] [--jsonl <path>]\n"
      "        [--out <path>] [--top <k>] [--progress <path|->]\n"
      "        [--progress-interval-ms <k>] [--stall-seconds <k>]\n"
      "families:");
  for (const std::string& f : ecd::graph::family_names()) {
    std::fprintf(stderr, " %s", f.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--eps" && i + 1 < argc) {
      o.eps = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--distributed") {
      o.distributed = true;
    } else if (arg == "--dot" && i + 1 < argc) {
      o.dot_path = argv[++i];
    } else if (o.input.empty() && arg[0] != '-') {
      o.input = arg;
    } else {
      usage();
    }
  }
  if (o.input.empty()) usage();
  return o;
}

Graph load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return ecd::graph::read_edge_list(in);
}

ecd::core::FrameworkOptions framework_options(const Options& o) {
  ecd::core::FrameworkOptions f;
  f.seed = o.seed;
  if (o.distributed) {
    f.decomposition_mode = ecd::core::DecompositionMode::kDistributed;
  }
  return f;
}

void maybe_write_dot(const Options& o, const Graph& g,
                     const std::vector<int>& clusters) {
  if (o.dot_path.empty()) return;
  std::ofstream out(o.dot_path);
  out << ecd::graph::to_dot(g, clusters);
  std::printf("wrote %s\n", o.dot_path.c_str());
}

// graph::make_family, with the usage line on an unknown family.
Graph make_family(const std::string& family, int n, ecd::graph::Rng& rng) {
  const auto& names = ecd::graph::family_names();
  if (std::find(names.begin(), names.end(), family) == names.end()) usage();
  return ecd::graph::make_family(family, n, rng);
}

// Sends each vertex its own id back along its registration token's reversed
// first-arrival path, so the return's rounds and messages join the ledger.
// A gather that left registration tokens undelivered has no paths for them:
// the error is printed and the caller still reports the partition.
void return_ids(ecd::core::Partition& p) {
  std::vector<std::int64_t> ids(p.leader_of.size());
  std::iota(ids.begin(), ids.end(), std::int64_t{0});
  try {
    ecd::core::return_results(p, ids, "result return (reversed walks)");
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s; the ledger has no result return\n", e.what());
  }
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string family = argv[2];
  const int n = std::atoi(argv[3]);
  ecd::graph::Rng rng(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1);
  const Graph g = make_family(family, n, rng);
  ecd::graph::write_edge_list(g, std::cout);
  return 0;
}

// The commands that run a generated input on the simulator.
enum class PipelineCommand { kTrace, kReport, kProfile };

// The flags `trace`, `report` and `profile` share, and each one's own:
// --top is trace's and report's, --format and --sample are trace's, and
// --workload, --timeline, --sparse-threshold and --churn-permille are
// profile's. --ring is the rounds a ring keeps: the flight recorder's for
// trace (0 = no ring), the profiler's for profile.
struct PipelineFlags {
  std::string family = "grid";
  std::string out_path;
  std::string format = "chrome";
  std::string workload = "gather";
  std::string timeline_path;
  int n = 1024;
  int top_k = 10;
  int threads = 1;
  int fault_permille = 0;
  int churn_permille = 0;
  int ring_rounds = 0;
  int sparse_threshold = ecd::congest::NetworkOptions{}.sparse_serial_threshold;
  double eps = 0.2;
  std::uint64_t seed = 1;
  bool distributed = false;
  bool sampled = false;
  ecd::congest::TraceConfig sample;
};

PipelineFlags parse_pipeline_flags(int argc, char** argv,
                                   PipelineCommand command) {
  const bool trace = command == PipelineCommand::kTrace;
  const bool profile = command == PipelineCommand::kProfile;
  PipelineFlags f;
  f.out_path = trace     ? "ecd_trace.json"
               : profile ? "ecd_profile.json"
                         : "ecd_report.json";
  if (profile) f.ring_rounds = 4096;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--family" && has_value) {
      f.family = argv[++i];
    } else if (arg == "--n" && has_value) {
      f.n = std::atoi(argv[++i]);
    } else if (arg == "--eps" && has_value) {
      f.eps = std::atof(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      f.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--distributed") {
      f.distributed = true;
    } else if (arg == "--threads" && has_value) {
      f.threads = std::atoi(argv[++i]);
    } else if (arg == "--fault-permille" && has_value) {
      f.fault_permille = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      f.out_path = argv[++i];
    } else if (!profile && arg == "--top" && has_value) {
      f.top_k = std::atoi(argv[++i]);
    } else if (trace && arg == "--format" && has_value) {
      f.format = argv[++i];
      if (f.format != "chrome" && f.format != "jsonl") usage();
    } else if (trace && arg == "--sample" && has_value) {
      long long r = 1;
      int v = 1, t = -1;
      if (std::sscanf(argv[++i], "%lld,%d,%d", &r, &v, &t) < 1) usage();
      f.sample.round_period = r;
      f.sample.vertex_stride = v;
      f.sample.tag_filter = t;
      f.sampled = true;
    } else if ((trace || profile) && arg == "--ring" && has_value) {
      f.ring_rounds = std::atoi(argv[++i]);
    } else if (profile && arg == "--workload" && has_value) {
      f.workload = argv[++i];
      if (f.workload != "gather" && f.workload != "flood" &&
          f.workload != "mis") {
        usage();
      }
    } else if (profile && arg == "--timeline" && has_value) {
      f.timeline_path = argv[++i];
    } else if (profile && arg == "--sparse-threshold" && has_value) {
      f.sparse_threshold = std::atoi(argv[++i]);
    } else if (profile && arg == "--churn-permille" && has_value) {
      f.churn_permille = std::atoi(argv[++i]);
    } else {
      usage();
    }
  }
  if (f.sampled && f.ring_rounds <= 0) {
    std::fprintf(stderr,
                 "--sample thins the event stream only; use it with --ring "
                 "(the trace file and the hotspot report read every round)\n");
    std::exit(2);
  }
  return f;
}

// The pipeline run's options from the shared flags: seed, threads,
// sparse-round cutoff, event sampling, decomposition mode, and message
// drops (which route the gather through the reliable walks). The caller
// attaches its observer.
ecd::core::FrameworkOptions pipeline_options(const PipelineFlags& f) {
  ecd::core::FrameworkOptions fopt;
  fopt.seed = f.seed;
  fopt.trace_config = f.sample;
  fopt.num_threads = f.threads;
  fopt.sparse_serial_threshold = f.sparse_threshold;
  if (f.distributed) {
    fopt.decomposition_mode = ecd::core::DecompositionMode::kDistributed;
  }
  if (f.fault_permille > 0) {
    fopt.faults.drop_probability = f.fault_permille / 1000.0;
    fopt.faults.seed = f.seed;
  }
  return fopt;
}

ecd::core::Partition run_pipeline(const PipelineFlags& f, const Graph& g,
                                  ecd::congest::MetricsRegistry& metrics,
                                  ecd::congest::TraceSink* sink) {
  ecd::core::FrameworkOptions fopt = pipeline_options(f);
  fopt.metrics = &metrics;
  fopt.trace = sink;
  auto p = ecd::core::partition_and_gather(g, f.eps, fopt);
  // The return runs on the simulator in its own "phase:return", so the
  // registry's top-level phases add up to the ledger's measured total.
  return_ids(p);

  std::printf("family=%s n=%d m=%d eps=%.3f threads=%d clusters=%d "
              "gather_complete=%d\n",
              f.family.c_str(), g.num_vertices(), g.num_edges(), f.eps,
              f.threads, p.decomposition.num_clusters,
              p.gather_complete ? 1 : 0);
  std::printf("%-22s %10s %12s %12s %14s\n", "phase", "rounds", "messages",
              "words", "max-edge-load");
  for (const auto& ph : metrics.phases()) {
    if (ph.depth != 0) continue;
    std::printf("%-22s %10lld %12lld %12lld %14d\n", ph.name.c_str(),
                static_cast<long long>(ph.stats.rounds),
                static_cast<long long>(ph.stats.messages_sent),
                static_cast<long long>(ph.stats.words_sent),
                ph.stats.max_edge_load);
  }
  const auto& totals = metrics.totals();
  std::printf("%-22s %10lld %12lld %12lld %14d\n", "total (simulated)",
              static_cast<long long>(totals.rounds),
              static_cast<long long>(totals.messages_sent),
              static_cast<long long>(totals.words_sent),
              totals.max_edge_load);
  std::printf("critical path: %lld rounds (longest single run %lld)\n",
              static_cast<long long>(metrics.critical_path_total()),
              static_cast<long long>(metrics.critical_path_longest_run()));
  if (f.fault_permille > 0) {
    std::printf("faults: dropped=%lld retransmissions=%lld epochs=%lld\n",
                static_cast<long long>(totals.messages_dropped),
                static_cast<long long>(
                    metrics.counter("gather.retransmissions")->value()),
                static_cast<long long>(
                    metrics.counter("gather.epochs")->value()));
  }
  std::printf("\nround ledger:\n%s\n", p.ledger.to_string().c_str());
  return p;
}

int cmd_trace(int argc, char** argv) {
  const PipelineFlags f =
      parse_pipeline_flags(argc, argv, PipelineCommand::kTrace);
  ecd::graph::Rng rng(f.seed);
  const Graph g = make_family(f.family, f.n, rng);
  std::ofstream out(f.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", f.out_path.c_str());
    return 1;
  }
  ecd::congest::MetricsRegistry metrics;

  if (f.ring_rounds > 0) {
    // Flight-recorder mode: the event stream, in a bounded ring of the last
    // --ring rounds, is the trace file. The ring auto-dumps on an abnormal
    // run end, so a failing run still ships its post-mortem.
    ecd::congest::FlightRecorder::Options ropt;
    ropt.keep_rounds = f.ring_rounds;
    ecd::congest::FlightRecorder recorder(ropt);
    recorder.set_auto_dump(&out);
    try {
      run_pipeline(f, g, metrics, &recorder);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run aborted: %s (flight dump in %s)\n", e.what(),
                   f.out_path.c_str());
      return 1;
    }
    recorder.dump_jsonl(out);
    std::printf("wrote %s (flight format, %lld events retained, %lld"
                " dropped, last round %lld)\n",
                f.out_path.c_str(),
                static_cast<long long>(recorder.events_retained()),
                static_cast<long long>(recorder.events_dropped()),
                static_cast<long long>(recorder.last_round()));
    return 0;
  }

  run_pipeline(f, g, metrics, nullptr);
  std::printf("%s", ecd::congest::hotspot_report(metrics, f.top_k).c_str());
  if (f.format == "jsonl") {
    ecd::congest::export_jsonl(metrics, out);
  } else {
    ecd::congest::export_chrome_trace(metrics, out);
  }
  std::printf("wrote %s (%s format)\n", f.out_path.c_str(), f.format.c_str());
  return 0;
}

int cmd_report(int argc, char** argv) {
  const PipelineFlags f =
      parse_pipeline_flags(argc, argv, PipelineCommand::kReport);
  ecd::graph::Rng rng(f.seed);
  const Graph g = make_family(f.family, f.n, rng);
  std::ofstream out(f.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", f.out_path.c_str());
    return 1;
  }
  ecd::congest::MetricsRegistry metrics;
  const auto p = run_pipeline(f, g, metrics, nullptr);

  ecd::congest::RunReportContext ctx;
  ctx.title = "partition_and_gather (" + f.family + ")";
  ctx.info = {{"family", f.family},
              {"n", std::to_string(g.num_vertices())},
              {"m", std::to_string(g.num_edges())},
              {"eps", std::to_string(f.eps)},
              {"seed", std::to_string(f.seed)},
              {"threads", std::to_string(f.threads)},
              {"fault_permille", std::to_string(f.fault_permille)},
              {"clusters", std::to_string(p.decomposition.num_clusters)}};
  ctx.top_k_edges = f.top_k;
  ecd::congest::write_run_report(out, metrics, ctx);
  std::printf("wrote %s (ecd-run-report-v1)\n", f.out_path.c_str());
  return 0;
}

int cmd_profile(int argc, char** argv) {
  const PipelineFlags f =
      parse_pipeline_flags(argc, argv, PipelineCommand::kProfile);
  if (f.churn_permille > 0 && f.workload == "gather") {
    // The gather pipeline drives its own Network sequence through the
    // framework; churn there is an experiment, not a profiler knob.
    std::fprintf(stderr, "--churn-permille requires --workload flood or mis\n");
    return 2;
  }
  ecd::graph::Rng rng(f.seed);
  const Graph g = make_family(f.family, f.n, rng);

  ecd::congest::ExecutionProfiler::Options popt;
  popt.ring_capacity = f.ring_rounds;
  ecd::congest::ExecutionProfiler profiler(popt);
  std::string title;
  if (f.workload == "gather") {
    ecd::core::FrameworkOptions fopt = pipeline_options(f);
    fopt.profiler = &profiler;
    auto p = ecd::core::partition_and_gather(g, f.eps, fopt);
    return_ids(p);
    std::printf("family=%s n=%d m=%d eps=%.3f threads=%d clusters=%d\n",
                f.family.c_str(), g.num_vertices(), g.num_edges(), f.eps,
                f.threads, p.decomposition.num_clusters);
    title = "partition_and_gather (" + f.family + ")";
  } else {
    ecd::congest::NetworkOptions nopt;
    nopt.num_threads = f.threads;
    nopt.sparse_serial_threshold = f.sparse_threshold;
    nopt.profiler = &profiler;
    if (f.churn_permille > 0) {
      // The sweep's schedule only deletes and re-inserts edges of `g`, so
      // every port stays the one the workload was built on.
      nopt.faults.churn =
          ecd::core::make_churn_plan(g, f.seed, f.churn_permille);
    }
    if (f.fault_permille > 0) {
      nopt.faults.seed = f.seed;
      nopt.faults.drop_probability = f.fault_permille / 1000.0;
    }
    if (f.workload == "flood") {
      // One wavefront from vertex 0 over the whole graph as one cluster
      // (the per-round-fixed-cost workload of EXPERIMENTS.md E16).
      const int n = g.num_vertices();
      const auto r = ecd::congest::broadcast_from_leaders(
          g, std::vector<int>(n, 0), std::vector<ecd::graph::VertexId>(n, 0),
          std::vector<std::int64_t>(n, 1), nopt);
      std::printf("family=%s n=%d m=%d threads=%d rounds=%lld\n",
                  f.family.c_str(), n, g.num_edges(), f.threads,
                  static_cast<long long>(r.stats.rounds));
      title = "flood (" + f.family + ")";
    } else {
      const auto r = ecd::baselines::luby_mis(g, f.seed, nopt);
      std::printf("family=%s n=%d m=%d threads=%d mis=%zu\n",
                  f.family.c_str(), g.num_vertices(), g.num_edges(), f.threads,
                  r.independent_set.size());
      title = "luby_mis (" + f.family + ")";
    }
  }

  const auto summary = profiler.summary();
  std::printf("%s", ecd::congest::format_profile_table(summary).c_str());

  std::ofstream out(f.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", f.out_path.c_str());
    return 1;
  }
  ecd::congest::ProfileReportContext ctx;
  ctx.title = title;
  ctx.info = {{"workload", f.workload},
              {"family", f.family},
              {"n", std::to_string(g.num_vertices())},
              {"m", std::to_string(g.num_edges())},
              {"eps", std::to_string(f.eps)},
              {"seed", std::to_string(f.seed)},
              {"threads", std::to_string(f.threads)},
              {"fault_permille", std::to_string(f.fault_permille)},
              {"churn_permille", std::to_string(f.churn_permille)}};
  ecd::congest::write_profile_report(out, profiler, ctx);
  std::printf("wrote %s (ecd-profile-v1)\n", f.out_path.c_str());
  if (!f.timeline_path.empty()) {
    std::ofstream tl(f.timeline_path);
    if (!tl) {
      std::fprintf(stderr, "cannot write %s\n", f.timeline_path.c_str());
      return 1;
    }
    profiler.write_chrome_trace(tl);
    std::printf("wrote %s (chrome trace, one tid per shard)\n",
                f.timeline_path.c_str());
  }
  return 0;
}

int cmd_decompose(const Options& o) {
  const Graph g = load(o.input);
  const auto p = ecd::core::partition_and_gather(g, o.eps, framework_options(o));
  std::printf("n=%d m=%d clusters=%d inter-cluster=%d (budget %.0f) phi=%.5f\n",
              g.num_vertices(), g.num_edges(), p.decomposition.num_clusters,
              p.decomposition.inter_cluster_edges,
              p.eps_effective * g.num_edges(), p.decomposition.phi);
  std::printf("%s", p.ledger.to_string().c_str());
  maybe_write_dot(o, g, p.decomposition.cluster_of);
  return 0;
}

int cmd_mis(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::MisApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mis_approx(g, o.eps, opt);
  std::printf("independent set: %zu vertices (%d clusters, %d exact, "
              "%d conflicts removed)\n",
              r.independent_set.size(), r.num_clusters, r.clusters_exact,
              r.conflicts_removed);
  const double ratio =
      r.upper_bound > 0
          ? static_cast<double>(r.independent_set.size()) / r.upper_bound
          : 1.0;
  std::printf("upper bound: %d (certified ratio %.4f)\n", r.upper_bound,
              ratio);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_mcm(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::McmApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mcm_planar_approx(g, o.eps, opt);
  std::printf("matching size: %d (%d vertices pruned by star elimination)\n",
              r.matching_size, r.removed_vertices);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_mwm(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::MwmApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mwm_approx(g, o.eps, opt);
  std::printf("matching weight: %lld (%d phases)\n",
              static_cast<long long>(r.weight), r.phases);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_correlate(const Options& o) {
  Graph g = load(o.input);
  if (!g.is_signed()) {
    // Unsigned inputs: treat every edge as positive (documented default).
    std::fprintf(stderr, "note: input unsigned; all edges treated positive\n");
  }
  ecd::core::CorrelationApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::correlation_approx(g, o.eps, opt);
  std::printf("agreement score: %lld / %d edges\n",
              static_cast<long long>(r.score), g.num_edges());
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_test_planarity(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::PropertyTestOptions opt;
  opt.framework = framework_options(o);
  const auto r =
      ecd::core::property_test(g, ecd::seq::planar_property(), o.eps, opt);
  std::printf("%s (%d clusters fail planarity, %d fail degree condition)\n",
              r.accept ? "ACCEPT" : "REJECT", r.clusters_failing_property,
              r.clusters_failing_degree_condition);
  std::printf("%s", r.ledger.to_string().c_str());
  return r.accept ? 0 : 3;
}

int cmd_ldd(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::LddApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::ldd_approx(g, o.eps, opt);
  std::printf("clusters=%d cut=%d (%.1f%% of edges) max-diameter=%d "
              "(target O(1/eps)=%.0f)\n",
              r.num_clusters, r.cut_edges,
              g.num_edges() ? 100.0 * r.cut_edges / g.num_edges() : 0.0,
              r.max_diameter, 1.0 / o.eps);
  std::printf("%s", r.ledger.to_string().c_str());
  maybe_write_dot(o, g, r.cluster_of);
  return 0;
}

int cmd_triangles(const Options& o) {
  const Graph g = load(o.input);
  const auto r = ecd::core::count_triangles_distributed(g);
  std::printf("triangles: %lld (out-degree bound %d)\n%s",
              static_cast<long long>(r.triangles), r.out_degree_bound,
              r.ledger.to_string().c_str());
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  std::string spec_path, jsonl_path, progress_path, out_path = "ecd_sweep.json";
  int workers = 1, top_k = 4, repeat = 1;
  int progress_interval_ms = 1000, stall_seconds = 30;
  bool cold = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (arg == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (arg == "--progress" && i + 1 < argc) {
      progress_path = argv[++i];
    } else if (arg == "--progress-interval-ms" && i + 1 < argc) {
      progress_interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--stall-seconds" && i + 1 < argc) {
      stall_seconds = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      top_k = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--cold") {
      cold = true;
    } else {
      usage();
    }
  }
  if (spec_path.empty() || repeat < 1) usage();
  std::ifstream spec_in(spec_path);
  if (!spec_in) {
    std::fprintf(stderr, "cannot open %s\n", spec_path.c_str());
    return 1;
  }
  std::ostringstream spec_text;
  spec_text << spec_in.rdbuf();
  try {
    const ecd::core::SweepSpec spec =
        ecd::core::parse_sweep_spec(spec_text.str());
    ecd::core::SweepEngine engine;
    ecd::core::SweepOptions opt;
    opt.workers = workers;
    opt.reuse = !cold;
    opt.report_top_edges = top_k;
    opt.progress_interval_ms = progress_interval_ms;
    opt.stall_seconds = stall_seconds;
    std::ofstream jsonl_out;
    if (!jsonl_path.empty()) {
      jsonl_out.open(jsonl_path);
      if (!jsonl_out) {
        std::fprintf(stderr, "cannot open %s\n", jsonl_path.c_str());
        return 1;
      }
    }
    // Progress heartbeats go to a file or, with "-", to stderr (where they
    // interleave with the pass summaries a human is already watching).
    std::ofstream progress_file;
    if (!progress_path.empty()) {
      if (progress_path == "-") {
        opt.progress = &std::cerr;
      } else {
        progress_file.open(progress_path);
        if (!progress_file) {
          std::fprintf(stderr, "cannot open %s\n", progress_path.c_str());
          return 1;
        }
        opt.progress = &progress_file;
      }
    }
    const ecd::core::SweepResult* result = nullptr;
    for (int pass = 0; pass < repeat; ++pass) {
      // Only the final pass streams JSONL — earlier passes exist to show
      // the warm-cache throughput, and duplicated report lines would make
      // the run ids ambiguous.
      ecd::core::SweepOptions pass_opt = opt;
      if (pass + 1 != repeat || jsonl_path.empty()) pass_opt.jsonl = nullptr;
      else pass_opt.jsonl = &jsonl_out;
      const ecd::core::SweepResult& r = engine.run(spec, pass_opt);
      std::printf(
          "pass %d: %zu runs in %.3f ms  (%.1f runs/s, graphs built %lld, "
          "networks built %lld, cache hits %lld)\n",
          pass + 1, r.records.size(), r.wall_ns / 1e6, r.runs_per_sec(),
          static_cast<long long>(r.graphs_built),
          static_cast<long long>(r.networks_built),
          static_cast<long long>(r.cache_hits));
      result = &r;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"schema\":\"ecd-sweep-v1\",\"cells\":" << result->records.size()
        << ",\"workers\":" << workers << ",\"repeat\":" << repeat
        << ",\"cold\":" << (cold ? "true" : "false")
        << ",\"aggregate\":" << result->aggregate_json()
        << ",\"wall\":" << result->wall_json() << "}\n";
    std::printf("aggregate: %s\n", result->aggregate_json().c_str());
    if (!jsonl_path.empty()) std::printf("wrote %s\n", jsonl_path.c_str());
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "trace") return cmd_trace(argc, argv);
  if (cmd == "report") return cmd_report(argc, argv);
  if (cmd == "profile") return cmd_profile(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (argc < 3) usage();
  const Options o = parse(argc, argv, 2);
  if (cmd == "decompose") return cmd_decompose(o);
  if (cmd == "mis") return cmd_mis(o);
  if (cmd == "mcm") return cmd_mcm(o);
  if (cmd == "mwm") return cmd_mwm(o);
  if (cmd == "correlate") return cmd_correlate(o);
  if (cmd == "test-planarity") return cmd_test_planarity(o);
  if (cmd == "ldd") return cmd_ldd(o);
  if (cmd == "triangles") return cmd_triangles(o);
  usage();
}
