// E1 + E11 — the (ε, φ) expander-decomposition contract (Thms 2.1/2.6).
//
// Rows: family x n x eps. Counters:
//   inter_frac   measured inter-cluster edge fraction (must be <= eps)
//   budget_eps   the eps the run was charged against
//   clusters     number of clusters
//   phi_target   φ used by the construction
//   phi_cert_min weakest certified cluster conductance (>= contract check)
//   modeled_rounds  Thm 2.1 round formula for this (n, eps)
//
// Series 2 (hypercube, E11): at constant eps the achievable φ degrades as
// Θ(1/log n) [ALE+18]; watch phi_cert_min fall with dimension.
//
// BM_DecomposeWeighted and BM_DecomposeUnweighted are the gated
// decomposition rows (DESIGN.md §21), one per host driver: the weighted
// decomposition of one perfbench mwm-multicluster phase, a 48x48 grid with
// weights in [1, 1000] at eps 0.2 and phi 0.1, and the unweighted
// decomposition of the same grid without weights.
//   decompositions_per_sec  decompositions per wall-clock second
//   clusters                clusters of the last decomposition
#include "bench/bench_util.h"
#include "src/congest/round_ledger.h"
#include "src/expander/decomposition.h"
#include "src/expander/weighted.h"

namespace {

using namespace ecd;

void BM_Decomposition(benchmark::State& state) {
  const auto family = static_cast<bench::Family>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const double eps = bench::eps_from_arg(state.range(2));
  graph::Rng rng(12345 + n);
  const graph::Graph g = bench::make_graph(family, n, rng);

  expander::ExpanderDecomposition d;
  for (auto _ : state) {
    d = expander::expander_decompose(g, eps, {.seed = 9});
  }
  state.SetLabel(bench::family_name(family));
  state.counters["n"] = g.num_vertices();
  state.counters["m"] = g.num_edges();
  state.counters["inter_frac"] =
      g.num_edges() ? static_cast<double>(d.inter_cluster_edges) / g.num_edges()
                    : 0.0;
  state.counters["budget_eps"] = eps;
  state.counters["clusters"] = d.num_clusters;
  state.counters["phi_target"] = d.phi;
  double cert = 1.0;
  for (double c : d.cluster_phi_certified) cert = std::min(cert, c);
  state.counters["phi_cert_min"] = cert;
  state.counters["modeled_rounds"] = static_cast<double>(
      congest::modeled_decomposition_rounds(g.num_vertices(), eps, false));
}

void DecompositionArgs(benchmark::internal::Benchmark* b) {
  for (auto family :
       {bench::Family::kGrid, bench::Family::kTriangulation,
        bench::Family::kRandomPlanar, bench::Family::kOuterplanar,
        bench::Family::kTree}) {
    for (int n : {256, 1024, 4096}) {
      for (int eps_pm : {50, 100, 200, 400}) {
        b->Args({static_cast<int>(family), n, eps_pm});
      }
    }
  }
  // E11: hypercube tightness series.
  for (int n : {64, 256, 1024, 4096}) {
    b->Args({static_cast<int>(bench::Family::kHypercube), n, 300});
  }
}

BENCHMARK(BM_Decomposition)->Apply(DecompositionArgs)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void decompose_grid(benchmark::State& state, bool weighted) {
  const int side = static_cast<int>(state.range(0));
  graph::Rng rng(1);
  const graph::Graph base = graph::grid(side, side);
  const graph::Graph g =
      weighted ? base.with_weights(graph::random_weights(base, 1000, rng))
               : base;
  expander::DecompositionOptions opt;
  opt.phi = 0.1;

  std::int64_t decompositions = 0;
  int clusters = 0;
  for (auto _ : state) {
    const auto d = weighted
                       ? expander::expander_decompose_weighted(g, 0.2, opt).base
                       : expander::expander_decompose(g, 0.2, opt);
    benchmark::DoNotOptimize(d);
    clusters = d.num_clusters;
    ++decompositions;
  }
  state.counters["n"] = g.num_vertices();
  state.counters["clusters"] = clusters;
  state.counters["decompositions_per_sec"] = benchmark::Counter(
      static_cast<double>(decompositions), benchmark::Counter::kIsRate);
}

void BM_DecomposeWeighted(benchmark::State& state) {
  decompose_grid(state, /*weighted=*/true);
}
void BM_DecomposeUnweighted(benchmark::State& state) {
  decompose_grid(state, /*weighted=*/false);
}

BENCHMARK(BM_DecomposeWeighted)
    ->ArgNames({"side"})
    ->Arg(48)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecomposeUnweighted)
    ->ArgNames({"side"})
    ->Arg(48)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

ECD_BENCH_MAIN("decomposition");
