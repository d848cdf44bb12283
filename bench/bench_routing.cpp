// E3 + E12 — Lemma 2.4 random-walk gathering, measured against its
// O(φ^{-4} log³ n) prediction, and the LOCAL-model gather for contrast.
//
// Counters:
//   gather_rounds    measured CONGEST rounds for the walk gather
//   predicted        φ^{-4} log³ n (the lemma's bound, unit constant)
//   used_over_pred   gather_rounds / predicted (<< 1 expected: the bound
//                    has slack)
//   local_rounds     rounds of the LOCAL-model flood gather (≈ diameter)
//   local_max_words  largest single LOCAL message in words — the gap
//   congest_words    total words the CONGEST gather moved
//   trace_*          congestion counters from an untimed traced re-run
//                    (peak/p99 edge load, words per phase)
//   allocs_per_round heap allocations per simulated round across one whole
//                    partition_and_gather pipeline (host-side decomposition
//                    work included — contrast with bench_network, whose
//                    audit isolates the substrate and reads ~0)
#define ECD_BENCH_COUNT_ALLOCS 1

#include <cmath>

#include "bench/bench_util.h"
#include "src/baselines/local_gather.h"
#include "src/congest/primitives.h"
#include "src/core/framework.h"

namespace {

using namespace ecd;

void BM_Routing(benchmark::State& state) {
  const auto family = static_cast<bench::Family>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  graph::Rng rng(31 + n);
  const graph::Graph g = bench::make_graph(family, n, rng);

  core::Partition p;
  for (auto _ : state) {
    p = core::partition_and_gather(g, 0.3, {});
  }
  std::int64_t gather_rounds = 0, gather_words = 0;
  for (const auto& e : p.ledger.entries()) {
    if (e.measured && e.label.starts_with("topology gather")) {
      gather_rounds = e.stats.rounds;
    }
  }
  (void)gather_words;
  const double phi = p.decomposition.phi;
  const double logn = std::log2(std::max(2, g.num_vertices()));
  const double predicted = logn * logn * logn / (phi * phi * phi * phi);

  const auto local = baselines::local_model_gather(
      g, p.decomposition.cluster_of, p.leader_of);

  state.SetLabel(bench::family_name(family));
  state.counters["n"] = g.num_vertices();
  state.counters["clusters"] = p.decomposition.num_clusters;
  state.counters["gather_rounds"] = static_cast<double>(gather_rounds);
  state.counters["predicted"] = predicted;
  state.counters["used_over_pred"] = gather_rounds / predicted;
  state.counters["local_rounds"] = static_cast<double>(local.stats.rounds);
  state.counters["local_max_words"] =
      static_cast<double>(local.max_message_words);

  // Untimed observed re-run: congestion counters for this row (the timed
  // loop above attaches no registry, so its cost never enters timing).
  ecd::congest::MetricsRegistry metrics;
  core::FrameworkOptions observed;
  observed.metrics = &metrics;
  core::partition_and_gather(g, 0.3, observed);
  bench::register_trace_counters(state, metrics);

  // Allocation audit over one full pipeline run.
  std::int64_t allocs = 0;
  std::int64_t alloc_rounds = 0;
  {
    bench::AllocScope scope;
    const auto audit = core::partition_and_gather(g, 0.3, {});
    allocs = scope.delta();
    for (const auto& e : audit.ledger.entries()) {
      if (e.measured) alloc_rounds += e.stats.rounds;
    }
  }
  bench::register_alloc_counter(state, allocs, alloc_rounds);
}

void RoutingArgs(benchmark::internal::Benchmark* b) {
  for (auto family : {bench::Family::kGrid, bench::Family::kTriangulation,
                      bench::Family::kRandomPlanar}) {
    for (int n : {256, 1024, 2048}) {
      b->Args({static_cast<int>(family), n});
    }
  }
}

BENCHMARK(BM_Routing)->Apply(RoutingArgs)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

ECD_BENCH_MAIN("routing");
