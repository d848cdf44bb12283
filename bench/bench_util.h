// Shared helpers for the experiment harness (see DESIGN.md §5 and
// EXPERIMENTS.md). Every bench binary regenerates one experiment table:
// google-benchmark rows are parameterized by (family, n, eps, ...) and the
// measured quantities are exported as user counters.
#pragma once

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/congest/metrics.h"
#include "src/congest/profiler.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace ecd::bench {

enum class Family : int {
  kGrid = 0,
  kRandomPlanar = 1,
  kTriangulation = 2,
  kOuterplanar = 3,
  kTwoTree = 4,
  kTree = 5,
  kHypercube = 6,
  kRegularExpander = 7,
};

// Each family's row label and its graph::make_family name.
struct FamilyNames {
  const char* label;
  const char* generator;
};
inline constexpr std::array<FamilyNames, 8> kFamilyNames = {{
    {"grid", "grid"},
    {"random_planar", "planar"},
    {"triangulation", "tri"},
    {"outerplanar", "outer"},
    {"two_tree", "twotree"},
    {"tree", "tree"},
    {"hypercube", "hypercube"},
    {"regular_expander", "expander"},
}};

inline const char* family_name(Family f) {
  return kFamilyNames.at(static_cast<std::size_t>(f)).label;
}

// Generates a member of the family with ~n vertices.
inline graph::Graph make_graph(Family f, int n, graph::Rng& rng) {
  const char* name = kFamilyNames.at(static_cast<std::size_t>(f)).generator;
  return graph::make_family(name, n, rng);
}

// eps encoded as an integer benchmark arg (per-mille).
inline double eps_from_arg(std::int64_t permille) {
  return static_cast<double>(permille) / 1000.0;
}

// Registers registry-derived congestion counters on a benchmark row: peak
// per-edge per-round load, the p99 of the per-round peak load (a log-bucket
// bound), total words, and per-top-level-phase word volumes (counter
// `words[phase]`). Attach a MetricsRegistry to the run under test (outside
// the timed loop — observing is not free) and hand it here.
inline void register_trace_counters(benchmark::State& state,
                                    const congest::MetricsRegistry& metrics) {
  const congest::RunStats& totals = metrics.totals();
  state.counters["trace_peak_edge_load"] =
      static_cast<double>(totals.max_edge_load);
  state.counters["trace_p99_edge_load"] = static_cast<double>(
      metrics.round_edge_load_histogram().percentile(99));
  state.counters["trace_words"] = static_cast<double>(totals.words_sent);
  state.counters["trace_violations"] =
      static_cast<double>(metrics.violations().size());
  for (const auto& phase : metrics.phases()) {
    if (phase.depth != 0) continue;
    std::string name = phase.name;
    if (name.rfind("phase:", 0) == 0) name = name.substr(6);
    state.counters["words[" + name + "]"] =
        static_cast<double>(phase.stats.words_sent);
  }
}

// --- Peak memory ------------------------------------------------------------

// Peak resident set size of this process in MiB, from getrusage. Process-
// wide and monotonic — a row measured after a bigger row inherits its peak —
// so it is an informational counter and an upper-bound sanity check for the
// multi-million-vertex rows, never a regression gate. Returns 0 where
// getrusage is unavailable.
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

// Registers the current peak RSS on a benchmark row (see peak_rss_mb).
inline void register_rss_counter(benchmark::State& state) {
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

// --- Allocation accounting ------------------------------------------------
//
// Heap traffic per simulated round is a first-class bench output: the
// message substrate promises ~0 allocations/round in steady state
// (DESIGN.md "Simulator performance"), and a regression here silently eats
// the round-rate. A bench binary opts in by defining
// `ECD_BENCH_COUNT_ALLOCS 1` *before* including this header; that emits
// counting replacements of the global operator new/delete. The replacements
// must live in exactly one translation unit per binary — each bench target
// is a single .cpp, so defining the macro in that file is safe.
//
// The hooked TU also flips a runtime flag at static-initialization time, and
// `register_alloc_counter` keys off that flag — not the macro — so a binary
// that compiled the hooks in always reports the counter, and one that did
// not never shows a misleading hard zero. (The old compile-time gate meant
// a helper TU built without the macro silently dropped the counter even
// though the hooks were live in the binary.)

inline std::atomic<std::int64_t>& allocation_counter() {
  static std::atomic<std::int64_t> count{0};
  return count;
}

// True iff the counting operator new/delete replacements are linked into
// this binary (set during static initialization of the hooked TU).
inline std::atomic<bool>& alloc_hooks_flag() {
  static std::atomic<bool> installed{false};
  return installed;
}

inline bool alloc_hooks_installed() {
  return alloc_hooks_flag().load(std::memory_order_relaxed);
}

inline std::int64_t allocation_count() {
  return allocation_counter().load(std::memory_order_relaxed);
}

// Measures heap allocations performed while the scope is alive.
class AllocScope {
 public:
  AllocScope() : start_(allocation_count()) {}
  std::int64_t delta() const { return allocation_count() - start_; }

 private:
  std::int64_t start_;
};

// Reports `allocs / rounds` as counter `allocs_per_round` (only when the
// binary linked the counting hooks in; otherwise every value would read
// as an impossible 0). Runtime-gated so the decision is per-binary, not
// per-TU.
inline void register_alloc_counter(benchmark::State& state,
                                   std::int64_t allocs, std::int64_t rounds) {
  if (!alloc_hooks_installed()) return;
  state.counters["allocs_per_round"] =
      rounds > 0 ? static_cast<double>(allocs) / static_cast<double>(rounds)
                 : 0.0;
}

// --- Execution profiling (--ecd_profile) ------------------------------------
//
// Every ECD_BENCH_MAIN binary also accepts --ecd_profile: benchmarks that
// support it attach an ExecutionProfiler to the run under test and export
// barrier-wait fraction, load imbalance and achievable speedup alongside
// their throughput counters (so ecd-bench-v1 snapshots — and the
// bench_compare delta table — show *why* a thread count wins or loses, not
// just how fast it went). Off by default: the profiler costs a few clock
// reads per shard per round, and the committed baselines are unprofiled.

inline std::atomic<bool>& profile_flag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

inline bool profile_requested() {
  return profile_flag().load(std::memory_order_relaxed);
}

// Registers the profiler-derived counters on a benchmark row. Call after
// the timed loop with the profiler that was attached to the Network under
// test (no-op counters are still honest: a serial run reports barrier 0).
inline void register_profile_counters(
    benchmark::State& state, const congest::ExecutionProfiler& profiler) {
  const congest::ExecutionProfiler::Summary s = profiler.summary();
  state.counters["profile_barrier_wait_fraction"] = s.barrier_wait_fraction;
  state.counters["profile_load_imbalance"] = s.load_imbalance;
  state.counters["profile_achievable_speedup"] = s.achievable_speedup;
}

// --- Bench telemetry (JSON snapshots + regression gate) ---------------------
//
// Every bench binary built with ECD_BENCH_MAIN(suite) accepts
//   --ecd_json            write BENCH_<suite>.json to the working directory
//   --ecd_json=<path>     write to <path>
// or, when no flag is given, honours the ECD_BENCH_JSON environment
// variable ("1" = default file name, anything else = output *directory*).
// The snapshot ("ecd-bench-v1") carries one row per executed benchmark with
// its finalized user counters — rates are already per-second by the time
// the reporter sees them — and feeds tools/bench_compare, the CI gate that
// fails on throughput or allocation regressions against bench/baseline.json.

struct BenchJsonRow {
  std::string name;
  std::int64_t iterations = 0;
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  std::map<std::string, double> counters;  // sorted => deterministic JSON
};

namespace detail {

inline void write_json_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

inline void write_json_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace detail

// Console output as usual, plus a row collected per finished benchmark for
// the JSON snapshot. Aggregate rows (mean/median/stddev of --repetitions)
// and errored rows are excluded: the gate compares raw per-run rows.
class JsonBenchReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      BenchJsonRow row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<std::int64_t>(run.iterations);
      if (run.iterations > 0) {
        row.real_time_ns =
            run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations);
        row.cpu_time_ns =
            run.cpu_accumulated_time * 1e9 / static_cast<double>(run.iterations);
      }
      for (const auto& [name, counter] : run.counters) {
        row.counters[name] = static_cast<double>(counter.value);
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::vector<BenchJsonRow>& rows() const { return rows_; }

  void write_json(std::ostream& os, std::string_view suite) const {
    os << "{\"schema\":\"ecd-bench-v1\",\"suite\":\"";
    detail::write_json_escaped(os, suite);
    os << "\",\"rows\":[";
    bool first = true;
    for (const BenchJsonRow& row : rows_) {
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"";
      detail::write_json_escaped(os, row.name);
      os << "\",\"iterations\":" << row.iterations << ",\"real_time_ns\":";
      detail::write_json_double(os, row.real_time_ns);
      os << ",\"cpu_time_ns\":";
      detail::write_json_double(os, row.cpu_time_ns);
      os << ",\"counters\":{";
      bool cfirst = true;
      for (const auto& [name, value] : row.counters) {
        if (!cfirst) os << ',';
        cfirst = false;
        os << '"';
        detail::write_json_escaped(os, name);
        os << "\":";
        detail::write_json_double(os, value);
      }
      os << "}}";
    }
    os << "]}\n";
  }

 private:
  std::vector<BenchJsonRow> rows_;
};

// Drop-in replacement for BENCHMARK_MAIN's body: strips the --ecd_json flag
// (benchmark::Initialize rejects unknown flags), runs the suite through a
// JsonBenchReporter, and writes the snapshot when requested.
inline int bench_main(std::string_view suite, int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--ecd_json") {
      json_path = "BENCH_" + std::string(suite) + ".json";
    } else if (arg.rfind("--ecd_json=", 0) == 0) {
      json_path = std::string(arg.substr(std::string_view("--ecd_json=").size()));
    } else if (arg == "--ecd_profile") {
      profile_flag().store(true, std::memory_order_relaxed);
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);  // argv contract: argv[argc] == nullptr
  if (json_path.empty()) {
    if (const char* env = std::getenv("ECD_BENCH_JSON"); env && *env) {
      const std::string_view value = env;
      json_path = value == "1"
                      ? "BENCH_" + std::string(suite) + ".json"
                      : std::string(value) + "/BENCH_" + std::string(suite) +
                            ".json";
    }
  }

  int bench_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  JsonBenchReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "ecd_bench: cannot write %s\n", json_path.c_str());
      return 1;
    }
    reporter.write_json(out, suite);
    std::fprintf(stderr, "ecd_bench: wrote %s (%zu rows)\n", json_path.c_str(),
                 reporter.rows().size());
  }
  return 0;
}

}  // namespace ecd::bench

// Replaces BENCHMARK_MAIN() in every bench binary; `suite` names the
// BENCH_<suite>.json snapshot.
#define ECD_BENCH_MAIN(suite)                              \
  int main(int argc, char** argv) {                        \
    return ecd::bench::bench_main(suite, argc, argv);      \
  }

#if defined(ECD_BENCH_COUNT_ALLOCS) && ECD_BENCH_COUNT_ALLOCS
// Counting replacements for the global allocation functions. Deliberately
// non-inline (replacement functions may not be inline); the macro guard
// keeps them out of binaries that did not opt in. Alignment-extended
// overloads are left at their defaults — the simulator performs no
// over-aligned allocations, and missing a hypothetical one only
// undercounts.
namespace {
// Flips the runtime flag register_alloc_counter keys off (see above).
[[maybe_unused]] const bool ecd_bench_alloc_hooks_registered = [] {
  ecd::bench::alloc_hooks_flag().store(true, std::memory_order_relaxed);
  return true;
}();
}  // namespace
void* operator new(std::size_t size) {
  ecd::bench::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ecd::bench::allocation_counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // ECD_BENCH_COUNT_ALLOCS
