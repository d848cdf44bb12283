// E5 — Theorem 1.2: (1-ε)-approximate MaxIS on minor-free networks,
// against the Luby maximal-IS baseline (which only guarantees 1/Δ).
//
// Counters:
//   ours        |I| from the framework
//   exact       optimum (branch & bound; -1 if the budget ran out)
//   ratio       ours / exact (>= 1 - eps expected)
//   luby        Luby maximal IS size
//   luby_ratio  luby / exact
//   measured_rounds / modeled_rounds  the two ledger columns
//
// BM_MisExact is the gated leader-solve row (DESIGN.md §20): the exact
// branch and bound alone on the perfbench mis-tri cluster shape, a
// 500-vertex triangulation, run to its full node budget.
//   nodes_per_sec   search nodes per wall-clock second (budget / time)
//   allocs_per_run  heap allocations per search: set-up only, so constant
#define ECD_BENCH_COUNT_ALLOCS 1

#include "bench/bench_util.h"
#include "src/baselines/luby_mis.h"
#include "src/core/mis.h"
#include "src/seq/mis.h"

namespace {

using namespace ecd;

void BM_Mis(benchmark::State& state) {
  const auto family = static_cast<bench::Family>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const double eps = bench::eps_from_arg(state.range(2));
  graph::Rng rng(55 + n);
  const graph::Graph g = bench::make_graph(family, n, rng);

  core::MisApproxResult r;
  for (auto _ : state) {
    r = core::mis_approx(g, eps);
  }
  // Optimum: closed-form for grids (checkerboard, alpha = ceil(n/2));
  // bounded branch-and-bound otherwise (-1 when the budget runs out).
  std::optional<std::size_t> exact;
  if (family == bench::Family::kGrid) {
    exact = static_cast<std::size_t>((g.num_vertices() + 1) / 2);
  } else if (const auto found = seq::max_independent_set_exact(g, 8'000'000)) {
    exact = found->size();
  }
  const auto luby = baselines::luby_mis(g, 3);

  state.SetLabel(bench::family_name(family));
  state.counters["n"] = g.num_vertices();
  state.counters["eps"] = eps;
  state.counters["ours"] = static_cast<double>(r.independent_set.size());
  state.counters["exact"] = exact ? static_cast<double>(*exact) : -1.0;
  state.counters["ratio"] =
      exact ? static_cast<double>(r.independent_set.size()) / *exact : -1.0;
  state.counters["luby"] = static_cast<double>(luby.independent_set.size());
  state.counters["luby_ratio"] =
      exact ? static_cast<double>(luby.independent_set.size()) / *exact : -1.0;
  state.counters["measured_rounds"] =
      static_cast<double>(r.ledger.measured_total());
  state.counters["modeled_rounds"] =
      static_cast<double>(r.ledger.modeled_total());
}

void MisArgs(benchmark::internal::Benchmark* b) {
  for (auto family : {bench::Family::kGrid, bench::Family::kRandomPlanar,
                      bench::Family::kOuterplanar, bench::Family::kTwoTree}) {
    for (int n : {144, 400}) {
      for (int eps_pm : {100, 200, 400}) {
        b->Args({static_cast<int>(family), n, eps_pm});
      }
    }
  }
}

BENCHMARK(BM_Mis)->Apply(MisArgs)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MisExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t budget = state.range(1);
  graph::Rng rng(1);
  const graph::Graph g = graph::random_maximal_planar(n, rng);

  std::int64_t searches = 0;
  std::int64_t allocs = 0;
  for (auto _ : state) {
    const bench::AllocScope scope;
    const auto found = seq::max_independent_set_exact(g, budget);
    allocs += scope.delta();
    ++searches;
    // A finished search would time fewer nodes than the budget it reports.
    if (found.has_value()) {
      state.SkipWithError("search finished within its node budget");
      return;
    }
    benchmark::DoNotOptimize(found);
  }
  state.counters["n"] = n;
  state.counters["budget"] = static_cast<double>(budget);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(searches * budget), benchmark::Counter::kIsRate);
  if (bench::alloc_hooks_installed()) {
    state.counters["allocs_per_run"] =
        static_cast<double>(allocs) / static_cast<double>(searches);
  }
}

BENCHMARK(BM_MisExact)
    ->ArgNames({"n", "budget"})
    ->Args({500, 400'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

ECD_BENCH_MAIN("mis");
