#include "src/core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "src/congest/profiler.h"
#include "src/congest/thread_pool.h"
#include "src/graph/generators.h"
#include "src/graph/splitmix.h"
#include "tools/json_min.h"

namespace ecd::core {

using congest::Context;
using congest::Message;
using congest::MetricsRegistry;
using congest::Network;
using congest::NetworkOptions;
using congest::RunStats;
using congest::ThreadPool;
using congest::VertexAlgorithm;
using graph::Graph;
using graph::VertexId;

namespace {

constexpr std::int64_t kMaxCells = 10'000'000;

// --- Workloads --------------------------------------------------------------

// A sweep workload is a VertexAlgorithm with two extras: reset(run_seed)
// rewinds it to its pre-run state (so one algorithm vector serves every run
// on a cached Network, allocation-free), and result_word() is the vertex's
// contribution to the run's result checksum (summed by the engine). Both
// engines — warm and cold — call reset() before every run, so construction
// leaves no meaningful state.
class SweepAlgo : public VertexAlgorithm {
 public:
  virtual void reset(std::uint64_t run_seed) = 0;
  virtual std::int64_t result_word() const = 0;
};

// One wavefront from vertex 0 (the bench_network flood shape): result is 1
// per vertex the wave reached. Under faults a dropped forward can strand a
// subtree, so the reached count genuinely depends on the fault schedule.
class FloodSweep final : public SweepAlgo {
 public:
  explicit FloodSweep(VertexId v) : source_(v == 0) {}

  void reset(std::uint64_t run_seed) override {
    value_ = source_ ? static_cast<std::int64_t>(run_seed & 0x3fffffff) + 1 : -1;
    started_ = false;
    sent_ = false;
  }

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) {
      if (value_ != -1) forward(ctx);
      return;
    }
    if (value_ != -1) return;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      if (!ctx.inbox(p).empty()) {
        value_ = ctx.inbox(p)[0].words[0];
        forward(ctx);
        return;
      }
    }
  }
  bool finished() const override { return started_ && !sent_; }
  std::int64_t result_word() const override { return value_ == -1 ? 0 : 1; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{value_}});
  }
  bool source_;
  std::int64_t value_ = -1;
  bool started_ = false;
  bool sent_ = false;
};

// Full-duplex saturation for a fixed round count; result is the vertex's
// inbox checksum (faults visibly perturb it).
class PingPongSweep final : public SweepAlgo {
 public:
  explicit PingPongSweep(int rounds) : rounds_(rounds) {}

  void reset(std::uint64_t run_seed) override {
    sink_ = static_cast<std::int64_t>(run_seed & 0xff);
    done_ = false;
  }

  void round(Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) sink_ += m.words[0];
    }
    if (ctx.round() < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{static_cast<std::int64_t>(ctx.id()), sink_ & 1}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }
  std::int64_t result_word() const override { return sink_; }

 private:
  int rounds_;
  std::int64_t sink_ = 0;
  bool done_ = false;
};

// Luby MIS, the src/baselines protocol made resettable: even step draws and
// exchanges priorities, odd step joins on a strict local minimum and
// announces with a -1 tag. Result is 1 per MIS member. Per-vertex streams
// derive from (run_seed, vertex) through splitmix64, so reseeding is one
// mt19937_64::seed call — no allocation on the warm path.
class LubySweep final : public SweepAlgo {
 public:
  explicit LubySweep(VertexId v) : v_(v) {}

  void reset(std::uint64_t run_seed) override {
    rng_.seed(graph::splitmix64(
        run_seed ^ (0xD1B54A32D192ED03ULL *
                    (static_cast<std::uint64_t>(v_) + 2))));
    in_mis_ = false;
    done_ = false;
    step_ = 0;
    priority_ = 0;
  }

  void round(Context& ctx) override {
    if (done_) return;
    const int step = step_++;
    if (step % 2 == 0) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == -1) {
            done_ = true;
            return;
          }
        }
      }
      priority_ = static_cast<std::int64_t>(rng_() >> 1);
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{priority_, ctx.id()}});
      }
      return;
    }
    bool wins = true;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        if (m.words[0] == -1) continue;  // stale announcement
        if (std::pair(m.words[0], m.words[1]) <
            std::pair(priority_, static_cast<std::int64_t>(ctx.id()))) {
          wins = false;
        }
      }
    }
    if (wins) {
      in_mis_ = true;
      done_ = true;
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{-1, ctx.id()}});
      }
    }
  }
  bool finished() const override { return done_; }
  std::int64_t result_word() const override { return in_mis_ ? 1 : 0; }

 private:
  VertexId v_;
  std::mt19937_64 rng_;
  std::int64_t priority_ = 0;
  int step_ = 0;
  bool in_mis_ = false;
  bool done_ = false;
};

// --- Topology families ------------------------------------------------------

// The cell's topology, drawn from its own seed.
Graph cell_graph(const SweepCell& cell) {
  graph::Rng rng(cell.topo_seed);
  return graph::make_family(cell.family, cell.n, rng);
}

bool known_algorithm(const std::string& algorithm) {
  return algorithm == "flood" || algorithm == "pingpong" || algorithm == "mis";
}

// --- Run building blocks ----------------------------------------------------

NetworkOptions make_net_options(const SweepSpec& spec, const SweepCell& cell,
                                const Graph& g, MetricsRegistry* metrics,
                                ThreadPool* shared_pool) {
  NetworkOptions o;
  o.bandwidth_tokens = spec.bandwidth_tokens;
  o.max_rounds = spec.max_rounds;
  o.num_threads = cell.threads;
  o.sparse_serial_threshold = spec.sparse_serial_threshold;
  o.metrics = metrics;
  o.shared_pool = shared_pool;
  if (cell.fault_permille > 0) {
    // The bench_network mixed plan: drop + duplicate + bounded delay. The
    // seed is per run (set_fault_seed / run_seed), not part of the shape.
    o.faults.seed = cell.run_seed;
    o.faults.drop_probability = cell.fault_permille / 1000.0;
    o.faults.duplicate_probability = cell.fault_permille / 2000.0;
    o.faults.delay_probability = cell.fault_permille / 1000.0;
    o.faults.max_delay_rounds = 2;
  }
  if (cell.churn_permille > 0) {
    // Churn is part of the Network's *shape* (it widens the port CSR for
    // the plan's inserts), so the schedule must not vary with run_seed —
    // it derives from (topo_seed, churn_permille) only, and run_prepared's
    // set_fault_seed swap leaves it untouched.
    o.faults.churn = make_churn_plan(g, cell.topo_seed, cell.churn_permille);
  }
  return o;
}

void make_algos(const SweepSpec& spec, const SweepCell& cell, const Graph& g,
                std::vector<std::unique_ptr<VertexAlgorithm>>& algos,
                std::vector<SweepAlgo*>& typed) {
  const int n = g.num_vertices();
  algos.reserve(n);
  typed.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    std::unique_ptr<SweepAlgo> a;
    if (cell.algorithm == "flood") {
      a = std::make_unique<FloodSweep>(v);
    } else if (cell.algorithm == "pingpong") {
      a = std::make_unique<PingPongSweep>(spec.pingpong_rounds);
    } else {
      a = std::make_unique<LubySweep>(v);
    }
    typed.push_back(a.get());
    algos.push_back(std::move(a));
  }
}

// Executes one run on prepared state: reset every vertex, swap the fault
// seed in, run, fold the result. The warm path's whole per-run cost.
SweepRunRecord run_prepared(Network& net, const SweepCell& cell,
                            std::vector<std::unique_ptr<VertexAlgorithm>>& algos,
                            const std::vector<SweepAlgo*>& typed,
                            MetricsRegistry* metrics) {
  for (SweepAlgo* a : typed) a->reset(cell.run_seed);
  if (cell.fault_permille > 0) net.set_fault_seed(cell.run_seed);
  if (metrics) metrics->reset();
  SweepRunRecord rec;
  rec.cell = cell;
  rec.stats = net.run(algos);
  for (const SweepAlgo* a : typed) rec.result_word += a->result_word();
  return rec;
}

// The per-run ecd-run-report-v1 line. Every field is a pure function of
// (spec, cell, the deterministic run outcome) except the report's "wall"
// section, so warm lines match fresh lines byte-for-byte outside it.
void append_report_line(std::ostream& os, const SweepCell& cell, int n, int m,
                        const MetricsRegistry& metrics, std::int64_t result,
                        int top_edges) {
  congest::RunReportContext ctx;
  ctx.title = "sweep " + cell.algorithm + " on " + cell.family;
  ctx.top_k_edges = top_edges;
  ctx.info = {
      {"run", std::to_string(cell.index)},
      {"family", cell.family},
      {"n", std::to_string(n)},
      {"m", std::to_string(m)},
      {"topo_seed", std::to_string(cell.topo_seed)},
      {"run_seed", std::to_string(cell.run_seed)},
      {"algorithm", cell.algorithm},
      {"threads", std::to_string(cell.threads)},
      {"fault_permille", std::to_string(cell.fault_permille)},
      {"churn_permille", std::to_string(cell.churn_permille)},
      {"result", std::to_string(result)},
  };
  congest::write_run_report(os, metrics, ctx);
}

// Fresh-construction run of one cell on an already built graph (shared by
// run_cell_fresh, reference_report_line and the engine's cold mode).
SweepRunRecord run_fresh_on(const Graph& g, const SweepSpec& spec,
                            const SweepCell& cell, MetricsRegistry* metrics) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<SweepAlgo*> typed;
  make_algos(spec, cell, g, algos, typed);
  Network net(g, make_net_options(spec, cell, g, metrics, nullptr));
  return run_prepared(net, cell, algos, typed, metrics);
}

// --- JSON helpers -----------------------------------------------------------

std::int64_t json_int(const jsonmin::Value& v, const std::string& key) {
  if (!v.is_number()) {
    throw std::invalid_argument("sweep spec: '" + key + "' must be a number");
  }
  const double d = v.number;
  const std::int64_t i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw std::invalid_argument("sweep spec: '" + key + "' must be integral");
  }
  return i;
}

std::vector<int> json_int_list(const jsonmin::Value& v, const std::string& key) {
  if (!v.is_array()) {
    throw std::invalid_argument("sweep spec: '" + key + "' must be an array");
  }
  std::vector<int> out;
  out.reserve(v.items.size());
  for (const jsonmin::Value& item : v.items) {
    out.push_back(static_cast<int>(json_int(item, key)));
  }
  return out;
}

std::vector<std::uint64_t> json_u64_list(const jsonmin::Value& v,
                                         const std::string& key) {
  if (!v.is_array()) {
    throw std::invalid_argument("sweep spec: '" + key + "' must be an array");
  }
  std::vector<std::uint64_t> out;
  out.reserve(v.items.size());
  for (const jsonmin::Value& item : v.items) {
    const std::int64_t i = json_int(item, key);
    if (i < 0) {
      throw std::invalid_argument("sweep spec: '" + key +
                                  "' entries must be non-negative");
    }
    out.push_back(static_cast<std::uint64_t>(i));
  }
  return out;
}

std::vector<std::string> json_string_list(const jsonmin::Value& v,
                                          const std::string& key) {
  if (!v.is_array()) {
    throw std::invalid_argument("sweep spec: '" + key + "' must be an array");
  }
  std::vector<std::string> out;
  out.reserve(v.items.size());
  for (const jsonmin::Value& item : v.items) {
    if (!item.is_string()) {
      throw std::invalid_argument("sweep spec: '" + key +
                                  "' entries must be strings");
    }
    out.push_back(item.string);
  }
  return out;
}

// Exact order statistic of a sorted sample: index floor(p * (N-1) / 100).
std::int64_t quantile_sorted(const std::vector<std::int64_t>& v, int p) {
  return v[(static_cast<std::size_t>(p) * (v.size() - 1)) / 100];
}

void write_quantiles(std::ostream& os, const char* name,
                     std::vector<std::int64_t>& v) {
  std::sort(v.begin(), v.end());
  os << '"' << name << "\":{\"min\":" << v.front()
     << ",\"p50\":" << quantile_sorted(v, 50)
     << ",\"p90\":" << quantile_sorted(v, 90)
     << ",\"p99\":" << quantile_sorted(v, 99) << ",\"max\":" << v.back()
     << '}';
}

}  // namespace

// --- Churn schedule ---------------------------------------------------------

std::vector<congest::ChurnEvent> make_churn_plan(const Graph& g,
                                                 std::uint64_t topo_seed,
                                                 int churn_permille) {
  std::vector<congest::ChurnEvent> plan;
  if (churn_permille <= 0 || g.num_edges() == 0) return plan;
  const std::int64_t m = g.num_edges();
  const std::int64_t k =
      std::max<std::int64_t>(1, m * churn_permille / 1000);
  plan.reserve(static_cast<std::size_t>(2 * k));
  const auto es = g.edges();
  // Each item picks an existing edge through splitmix64 (duplicates are
  // harmless: deletes of dead ports and inserts of live ones are counted
  // no-ops). The stream keys off (topo_seed, churn_permille, i) only.
  const std::uint64_t stream = graph::splitmix64(
      topo_seed ^ (0xC2B2AE3D27D4EB4FULL *
                   static_cast<std::uint64_t>(churn_permille)));
  for (std::int64_t i = 0; i < k; ++i) {
    const std::uint64_t h =
        graph::splitmix64(stream ^ (static_cast<std::uint64_t>(i) + 1));
    const graph::Edge e =
        es[static_cast<std::size_t>(h % static_cast<std::uint64_t>(m))];
    const std::int64_t r = 1 + (i % 8);
    if (i % 8 == 7) {
      // Every 8th item exercises node churn: one endpoint leaves, then
      // rejoins three rounds later (its edges stay down — kNodeJoin does
      // not restore links; see fault.h).
      plan.push_back({congest::ChurnKind::kNodeLeave, r, e.u,
                      graph::kInvalidVertex});
      plan.push_back({congest::ChurnKind::kNodeJoin, r + 3, e.u,
                      graph::kInvalidVertex});
    } else {
      plan.push_back({congest::ChurnKind::kEdgeDelete, r, e.u, e.v});
      plan.push_back({congest::ChurnKind::kEdgeInsert, r + 4, e.u, e.v});
    }
  }
  // Sorted by round so list order == fire order: host-side replays
  // (expander::apply_churn_to_graph walks the list in order) see exactly
  // the interleaving the simulator applies.
  std::stable_sort(plan.begin(), plan.end(),
                   [](const congest::ChurnEvent& a,
                      const congest::ChurnEvent& b) { return a.round < b.round; });
  return plan;
}

// --- Spec -------------------------------------------------------------------

void SweepSpec::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("sweep spec: ") + what);
  };
  require(!families.empty(), "'families' must not be empty");
  require(!sizes.empty(), "'sizes' must not be empty");
  require(!topo_seeds.empty(), "'topo_seeds' must not be empty");
  require(!run_seeds.empty(), "'run_seeds' must not be empty");
  require(!algorithms.empty(), "'algorithms' must not be empty");
  require(!threads.empty(), "'threads' must not be empty");
  require(!fault_permille.empty(), "'fault_permille' must not be empty");
  require(!churn_permille.empty(), "'churn_permille' must not be empty");
  for (const std::string& f : families) {
    const auto& names = graph::family_names();
    if (std::find(names.begin(), names.end(), f) == names.end()) {
      throw std::invalid_argument("sweep spec: unknown family '" + f + "'");
    }
  }
  for (const std::string& a : algorithms) {
    if (!known_algorithm(a)) {
      throw std::invalid_argument("sweep spec: unknown algorithm '" + a + "'");
    }
  }
  for (const int n : sizes) {
    require(n >= 2 && n <= 5'000'000, "'sizes' entries must be in [2, 5e6]");
  }
  for (const int t : threads) {
    require(t >= 0 && t <= 256, "'threads' entries must be in [0, 256]");
  }
  for (const int f : fault_permille) {
    require(f >= 0 && f <= 400, "'fault_permille' entries must be in [0, 400]");
  }
  for (const int c : churn_permille) {
    require(c >= 0 && c <= 400, "'churn_permille' entries must be in [0, 400]");
  }
  require(pingpong_rounds >= 1, "'pingpong_rounds' must be >= 1");
  require(bandwidth_tokens >= 1, "'bandwidth_tokens' must be >= 1");
  require(sparse_serial_threshold >= 0,
          "'sparse_serial_threshold' must be >= 0");
  require(max_rounds >= 1, "'max_rounds' must be >= 1");
  require(num_cells() <= kMaxCells, "grid exceeds 10^7 cells");
}

std::int64_t SweepSpec::num_cells() const {
  std::int64_t cells = 1;
  for (const std::size_t axis :
       {families.size(), sizes.size(), topo_seeds.size(), algorithms.size(),
        threads.size(), fault_permille.size(), churn_permille.size(),
        run_seeds.size()}) {
    cells *= static_cast<std::int64_t>(axis);
    if (cells > kMaxCells) return kMaxCells + 1;  // saturate, no overflow
  }
  return cells;
}

SweepSpec parse_sweep_spec(std::string_view json) {
  const jsonmin::Value doc = jsonmin::parse(json);
  if (!doc.is_object()) {
    throw std::invalid_argument("sweep spec: top level must be an object");
  }
  SweepSpec spec;
  for (const auto& [key, value] : doc.members) {
    if (key == "families") {
      spec.families = json_string_list(value, key);
    } else if (key == "sizes") {
      spec.sizes = json_int_list(value, key);
    } else if (key == "topo_seeds") {
      spec.topo_seeds = json_u64_list(value, key);
    } else if (key == "run_seeds") {
      spec.run_seeds = json_u64_list(value, key);
    } else if (key == "algorithms") {
      spec.algorithms = json_string_list(value, key);
    } else if (key == "threads") {
      spec.threads = json_int_list(value, key);
    } else if (key == "fault_permille") {
      spec.fault_permille = json_int_list(value, key);
    } else if (key == "churn_permille") {
      spec.churn_permille = json_int_list(value, key);
    } else if (key == "pingpong_rounds") {
      spec.pingpong_rounds = static_cast<int>(json_int(value, key));
    } else if (key == "bandwidth_tokens") {
      spec.bandwidth_tokens = static_cast<int>(json_int(value, key));
    } else if (key == "sparse_serial_threshold") {
      spec.sparse_serial_threshold = static_cast<int>(json_int(value, key));
    } else if (key == "max_rounds") {
      spec.max_rounds = json_int(value, key);
    } else {
      throw std::invalid_argument("sweep spec: unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

namespace {

// Expansion into a caller-owned buffer: clear() + push_back keeps the
// buffer's capacity, and every SweepCell string is a family/algorithm name
// short enough for SSO — so re-expanding an already-seen grid allocates
// nothing (the engine's warm-path contract).
void expand_sweep_into(const SweepSpec& spec, std::vector<SweepCell>& cells) {
  cells.clear();
  cells.reserve(static_cast<std::size_t>(spec.num_cells()));
  std::int64_t index = 0;
  for (const std::string& family : spec.families) {
    for (const int n : spec.sizes) {
      for (const std::uint64_t topo_seed : spec.topo_seeds) {
        for (const std::string& algorithm : spec.algorithms) {
          for (const int threads : spec.threads) {
            for (const int fault : spec.fault_permille) {
              for (const int churn : spec.churn_permille) {
                for (const std::uint64_t run_seed : spec.run_seeds) {
                  SweepCell c;
                  c.index = index++;
                  c.family = family;
                  c.n = n;
                  c.topo_seed = topo_seed;
                  c.run_seed = run_seed;
                  c.algorithm = algorithm;
                  c.threads = threads;
                  c.fault_permille = fault;
                  c.churn_permille = churn;
                  cells.push_back(std::move(c));
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<SweepCell> expand_sweep(const SweepSpec& spec) {
  spec.validate();
  std::vector<SweepCell> cells;
  expand_sweep_into(spec, cells);
  return cells;
}

// --- Results ----------------------------------------------------------------

double SweepResult::runs_per_sec() const {
  if (wall_ns <= 0 || records.empty()) return 0.0;
  return static_cast<double>(records.size()) /
         (static_cast<double>(wall_ns) * 1e-9);
}

std::string SweepResult::aggregate_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"ecd-sweep-aggregate-v1\",\"runs\":" << records.size();
  RunStats totals;
  std::uint64_t checksum = 0x9E3779B97F4A7C15ULL;
  std::vector<std::int64_t> rounds, messages, congestion, dropped;
  rounds.reserve(records.size());
  messages.reserve(records.size());
  congestion.reserve(records.size());
  dropped.reserve(records.size());
  // Fixed reduction order — cell index — regardless of which worker
  // finished which run when: the aggregate is the determinism witness CI
  // hashes across worker counts.
  for (const SweepRunRecord& rec : records) {
    totals += rec.stats;
    rounds.push_back(rec.stats.rounds);
    messages.push_back(rec.stats.messages_sent);
    congestion.push_back(rec.stats.max_edge_load);
    dropped.push_back(rec.stats.messages_dropped);
    checksum = graph::splitmix64(
        checksum ^ static_cast<std::uint64_t>(rec.result_word));
    checksum =
        graph::splitmix64(checksum ^ static_cast<std::uint64_t>(rec.stats.rounds));
    checksum = graph::splitmix64(
        checksum ^ static_cast<std::uint64_t>(rec.stats.messages_sent));
  }
  os << ",\"totals\":{\"rounds\":" << totals.rounds
     << ",\"messages\":" << totals.messages_sent
     << ",\"words\":" << totals.words_sent
     << ",\"max_edge_load\":" << totals.max_edge_load
     << ",\"dropped\":" << totals.messages_dropped
     << ",\"duplicated\":" << totals.messages_duplicated
     << ",\"delayed\":" << totals.messages_delayed
     << ",\"crashed\":" << totals.vertices_crashed
     << ",\"churn_events\":" << totals.churn_events
     << ",\"purged\":" << totals.messages_purged << "},\"quantiles\":{";
  if (!records.empty()) {
    write_quantiles(os, "rounds", rounds);
    os << ',';
    write_quantiles(os, "messages", messages);
    os << ',';
    write_quantiles(os, "congestion", congestion);
    os << ',';
    write_quantiles(os, "dropped", dropped);
  }
  os << "},\"checksum\":"
     << static_cast<std::int64_t>(checksum & 0x7FFFFFFFFFFFFFFFULL) << '}';
  return os.str();
}

std::string SweepResult::wall_json() const {
  std::ostringstream os;
  char rps[32];
  std::snprintf(rps, sizeof rps, "%.3f", runs_per_sec());
  os << "{\"schema\":\"ecd-sweep-wall-v1\",\"duration_ns\":" << wall_ns
     << ",\"runs_per_sec\":" << rps << ",\"graphs_built\":" << graphs_built
     << ",\"networks_built\":" << networks_built
     << ",\"cache_hits\":" << cache_hits << ",\"run_duration_ns\":{";
  if (!records.empty()) {
    std::vector<std::int64_t> durations;
    durations.reserve(records.size());
    for (const SweepRunRecord& rec : records) {
      durations.push_back(rec.stats.duration_ns);
    }
    std::sort(durations.begin(), durations.end());
    os << "\"min\":" << durations.front()
       << ",\"p50\":" << quantile_sorted(durations, 50)
       << ",\"p90\":" << quantile_sorted(durations, 90)
       << ",\"max\":" << durations.back();
  }
  os << "}}";
  return os.str();
}

// --- Engine -----------------------------------------------------------------

struct SweepEngine::Impl {
  using TopoKey = std::tuple<std::string, int, std::uint64_t>;
  // Everything that shapes a Network or its algorithm vector. Two runs with
  // the same key are interchangeable up to (run_seed-driven) algorithm and
  // fault state, which run_prepared resets per run.
  using NetKey = std::tuple<std::string, int, std::uint64_t,  // topology
                            std::string, int, int, int,  // algo/threads/fault/churn
                            int, int, int, std::int64_t,  // spec constants
                            bool>;                          // reporting

  struct Entry {
    const Graph* graph = nullptr;
    std::unique_ptr<MetricsRegistry> metrics;  // only when reporting
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    std::vector<SweepAlgo*> typed;
  };

  struct Group {
    Entry* entry = nullptr;  // null in cold mode
    std::int64_t begin = 0;  // cell index range [begin, end)
    std::int64_t end = 0;
  };

  // Declaration order is destruction-order-critical: Networks reference
  // Graphs (topo_cache) and may dispatch on pools, so net_cache (declared
  // last) must die first; members destruct in reverse declaration order.
  std::map<int, std::unique_ptr<ThreadPool>> pools;
  std::map<TopoKey, std::unique_ptr<Graph>> topo_cache;
  std::map<NetKey, std::unique_ptr<Entry>> net_cache;

  // Reused across executions so a warm run() allocates nothing: cells and
  // groups keep their capacity, records are overwritten in place.
  std::vector<SweepCell> cells;
  std::vector<Group> groups;
  std::vector<std::size_t> serial_groups;    // indices into groups
  std::vector<std::size_t> parallel_groups;  // threads != 1, run on caller
  SweepResult result;
  std::mutex jsonl_mu;

  // --- Progress telemetry (ecd-sweep-progress-v1) -------------------------
  // One cache-line-aligned heartbeat slot per worker, written only by that
  // worker (the metrics-accumulator pattern); the monitor thread reads them
  // relaxed — heartbeats are measurements, not synchronization.
  struct alignas(64) WorkerBeat {
    std::atomic<std::int64_t> runs{0};
    std::atomic<std::int64_t> last_ns{0};  // 0 = no run finished yet
  };
  std::unique_ptr<WorkerBeat[]> beats;
  int num_beats = 0;
  std::atomic<std::int64_t> cells_done{0};
  bool progress_active = false;
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  bool progress_stop = false;

  void progress_run_done(int worker) {
    if (!progress_active) return;
    cells_done.fetch_add(1, std::memory_order_relaxed);
    WorkerBeat& b = beats[worker >= 0 && worker < num_beats ? worker : 0];
    b.runs.fetch_add(1, std::memory_order_relaxed);
    b.last_ns.store(congest::ExecutionProfiler::now_ns(),
                    std::memory_order_relaxed);
  }

  void emit_progress(std::ostream& os, std::int64_t total, std::int64_t t0,
                     int stall_seconds, bool done) {
    const std::int64_t now = congest::ExecutionProfiler::now_ns();
    const std::int64_t elapsed_ms = (now - t0) / 1'000'000;
    const std::int64_t finished = cells_done.load(std::memory_order_relaxed);
    char rps[32];
    std::snprintf(rps, sizeof(rps), "%.1f",
                  elapsed_ms > 0 ? static_cast<double>(finished) * 1000.0 /
                                       static_cast<double>(elapsed_ms)
                                 : 0.0);
    std::ostringstream line;
    line << "{\"schema\":\"ecd-sweep-progress-v1\",\"cells_done\":" << finished
         << ",\"cells_total\":" << total << ",\"elapsed_ms\":" << elapsed_ms
         << ",\"runs_per_sec\":" << rps << ",\"workers\":[";
    for (int i = 0; i < num_beats; ++i) {
      const std::int64_t last = beats[i].last_ns.load(std::memory_order_relaxed);
      const std::int64_t idle_ms = (now - (last > 0 ? last : t0)) / 1'000'000;
      const bool stalled =
          !done && finished < total &&
          idle_ms > static_cast<std::int64_t>(stall_seconds) * 1000;
      line << (i > 0 ? "," : "") << "{\"id\":" << i << ",\"runs\":"
           << beats[i].runs.load(std::memory_order_relaxed)
           << ",\"idle_ms\":" << idle_ms
           << ",\"stalled\":" << (stalled ? "true" : "false") << "}";
    }
    line << "],\"done\":" << (done ? "true" : "false") << "}\n";
    os << line.str() << std::flush;
  }

  ThreadPool& pool_for(int num_threads) {
    std::unique_ptr<ThreadPool>& slot = pools[num_threads];
    if (!slot) slot = std::make_unique<ThreadPool>(num_threads);
    return *slot;
  }

  // Cache resolution runs on the caller thread only (before any dispatch),
  // so the maps need no locking; workers touch disjoint cached entries.
  Entry& entry_for(const SweepSpec& spec, const SweepCell& cell,
                   bool reporting) {
    TopoKey tk{cell.family, cell.n, cell.topo_seed};
    std::unique_ptr<Graph>& gslot = topo_cache[tk];
    if (!gslot) {
      gslot = std::make_unique<Graph>(
          cell_graph(cell));
      ++result.graphs_built;
    }
    NetKey nk{cell.family,          cell.n,
              cell.topo_seed,       cell.algorithm,
              cell.threads,         cell.fault_permille,
              cell.churn_permille,  spec.pingpong_rounds,
              spec.bandwidth_tokens, spec.sparse_serial_threshold,
              spec.max_rounds,      reporting};
    std::unique_ptr<Entry>& eslot = net_cache[nk];
    if (!eslot) {
      eslot = std::make_unique<Entry>();
      eslot->graph = gslot.get();
      if (reporting) eslot->metrics = std::make_unique<MetricsRegistry>();
      ThreadPool* shared =
          cell.threads > 1 ? &pool_for(cell.threads) : nullptr;
      eslot->net = std::make_unique<Network>(
          *gslot,
          make_net_options(spec, cell, *gslot, eslot->metrics.get(), shared));
      make_algos(spec, cell, *gslot, eslot->algos, eslot->typed);
      ++result.networks_built;
    }
    return *eslot;
  }

  void emit_report(const SweepOptions& options, const SweepCell& cell, int n,
                   int m, const MetricsRegistry& metrics,
                   std::int64_t result_word) {
    std::ostringstream line;
    append_report_line(line, cell, n, m, metrics, result_word,
                       options.report_top_edges);
    const std::string text = line.str();
    std::lock_guard<std::mutex> lock(jsonl_mu);
    *options.jsonl << text;
  }

  // Warm group: every run reuses the entry's Network and algorithm vector
  // through reset_for_run()/reset(run_seed). Exactly one worker executes a
  // group, so each cached Network has a single writer.
  void run_group_warm(const Group& g, const SweepOptions& options,
                      int worker) {
    for (std::int64_t i = g.begin; i < g.end; ++i) {
      const SweepCell& cell = cells[static_cast<std::size_t>(i)];
      result.records[static_cast<std::size_t>(i)] = run_prepared(
          *g.entry->net, cell, g.entry->algos, g.entry->typed,
          g.entry->metrics.get());
      if (options.jsonl) {
        emit_report(options, cell, g.entry->graph->num_vertices(),
                    g.entry->graph->num_edges(), *g.entry->metrics,
                    result.records[static_cast<std::size_t>(i)].result_word);
      }
      progress_run_done(worker);
    }
  }

  // Cold group: fresh Graph + Network + algorithms per run — the
  // construction cost the caches exist to remove.
  void run_group_cold(const SweepSpec& spec, const Group& g,
                      const SweepOptions& options, int worker) {
    for (std::int64_t i = g.begin; i < g.end; ++i) {
      const SweepCell& cell = cells[static_cast<std::size_t>(i)];
      MetricsRegistry metrics;
      const Graph graph =
          cell_graph(cell);
      result.records[static_cast<std::size_t>(i)] = run_fresh_on(
          graph, spec, cell, options.jsonl ? &metrics : nullptr);
      // graphs_built/networks_built are accounted on the caller thread
      // (trivially num_cells in cold mode) — workers must not touch them.
      if (options.jsonl) {
        emit_report(options, cell, graph.num_vertices(), graph.num_edges(),
                    metrics,
                    result.records[static_cast<std::size_t>(i)].result_word);
      }
      progress_run_done(worker);
    }
  }
};

SweepEngine::SweepEngine() : impl_(std::make_unique<Impl>()) {}
SweepEngine::~SweepEngine() = default;

void SweepEngine::clear_cache() {
  impl_->net_cache.clear();
  impl_->topo_cache.clear();
  impl_->pools.clear();
}

const SweepResult& SweepEngine::run(const SweepSpec& spec,
                                    const SweepOptions& options) {
  spec.validate();
  Impl& im = *impl_;
  const std::int64_t t0 = congest::ExecutionProfiler::now_ns();

  // Expansion (fixed order, run_seed fastest) directly yields the groups:
  // cells sharing a cached Network are contiguous runs of |run_seeds|.
  expand_sweep_into(spec, im.cells);
  const std::size_t num_cells = im.cells.size();
  im.result.records.clear();
  im.result.records.resize(num_cells);
  im.result.graphs_built = 0;
  im.result.networks_built = 0;
  im.result.cache_hits = 0;
  im.result.wall_ns = 0;

  const std::size_t group_size = spec.run_seeds.size();
  im.groups.clear();
  im.serial_groups.clear();
  im.parallel_groups.clear();
  for (std::size_t begin = 0; begin < num_cells; begin += group_size) {
    const SweepCell& head = im.cells[begin];
    Impl::Group g;
    g.begin = static_cast<std::int64_t>(begin);
    g.end = static_cast<std::int64_t>(begin + group_size);
    if (options.reuse) {
      g.entry = &im.entry_for(spec, head, options.jsonl != nullptr);
    }
    // Two-level scheduling: serial cells are multiplexed whole-run-per-
    // worker; cells with intra-run sharding (threads != 1, including the
    // auto value 0) keep the caller and parallelize inside the run.
    (head.threads == 1 ? im.serial_groups : im.parallel_groups)
        .push_back(im.groups.size());
    im.groups.push_back(g);
  }

  const int workers = ThreadPool::resolve(options.workers);

  // Progress monitor: heartbeat slots are reset per execution, then a
  // detached-from-the-work thread samples them every interval until the
  // grid drains. The guard joins the monitor even if a run throws (so the
  // std::thread never destructs joinable); the final "done":true line only
  // goes out on the normal path, after every group has finished.
  im.progress_active = options.progress != nullptr;
  struct MonitorGuard {
    Impl* im = nullptr;
    std::thread t;
    void stop() {
      if (!t.joinable()) return;
      {
        std::lock_guard<std::mutex> lock(im->progress_mu);
        im->progress_stop = true;
      }
      im->progress_cv.notify_all();
      t.join();
    }
    ~MonitorGuard() { stop(); }
  } monitor;
  if (im.progress_active) {
    const int nb = std::max(1, workers);
    if (nb != im.num_beats) {
      im.beats = std::make_unique<Impl::WorkerBeat[]>(
          static_cast<std::size_t>(nb));
      im.num_beats = nb;
    }
    for (int i = 0; i < im.num_beats; ++i) {
      im.beats[i].runs.store(0, std::memory_order_relaxed);
      im.beats[i].last_ns.store(0, std::memory_order_relaxed);
    }
    im.cells_done.store(0, std::memory_order_relaxed);
    im.progress_stop = false;
    monitor.im = &im;
    const std::int64_t total = static_cast<std::int64_t>(num_cells);
    monitor.t = std::thread([&im, &options, total, t0] {
      const auto interval = std::chrono::milliseconds(
          std::max(1, options.progress_interval_ms));
      std::unique_lock<std::mutex> lock(im.progress_mu);
      while (!im.progress_cv.wait_for(lock, interval,
                                      [&im] { return im.progress_stop; })) {
        im.emit_progress(*options.progress, total, t0, options.stall_seconds,
                         false);
      }
    });
  }

  const auto run_group = [&](const Impl::Group& g, int worker) {
    if (options.reuse) {
      im.run_group_warm(g, options, worker);
    } else {
      im.run_group_cold(spec, g, options, worker);
    }
  };
  if (workers > 1 && im.serial_groups.size() > 1) {
    // Run-level parallelism: workers pop whole groups off a shared cursor.
    // Group granularity keeps one writer per cached Network and lets a
    // group's runs stay warm in the worker's cache.
    std::atomic<std::size_t> next{0};
    im.pool_for(workers).run([&](int w) {
      for (;;) {
        const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
        if (j >= im.serial_groups.size()) return;
        run_group(im.groups[im.serial_groups[j]], w);
      }
    });
  } else {
    for (const std::size_t j : im.serial_groups) run_group(im.groups[j], 0);
  }
  // Parallel cells run one at a time on the caller: their parallelism is
  // the existing intra-run sharded loop, dispatched on the engine's pool
  // for that thread count (NetworkOptions::shared_pool). Heartbeats land
  // on worker 0 (the caller's slot).
  for (const std::size_t j : im.parallel_groups) run_group(im.groups[j], 0);

  if (im.progress_active) {
    monitor.stop();
    im.emit_progress(*options.progress, static_cast<std::int64_t>(num_cells),
                     t0, options.stall_seconds, true);
    im.progress_active = false;
  }

  if (!options.reuse) {
    im.result.graphs_built = static_cast<std::int64_t>(num_cells);
    im.result.networks_built = static_cast<std::int64_t>(num_cells);
  }
  im.result.cache_hits =
      static_cast<std::int64_t>(num_cells) - im.result.networks_built;
  im.result.wall_ns = congest::ExecutionProfiler::now_ns() - t0;
  return im.result;
}

SweepRunRecord SweepEngine::run_cell_fresh(const SweepSpec& spec,
                                           const SweepCell& cell,
                                           MetricsRegistry* metrics) {
  const Graph g = cell_graph(cell);
  return run_fresh_on(g, spec, cell, metrics);
}

std::string SweepEngine::reference_report_line(const SweepSpec& spec,
                                               const SweepCell& cell,
                                               int top_edges) {
  const Graph g = cell_graph(cell);
  MetricsRegistry metrics;
  const SweepRunRecord rec = run_fresh_on(g, spec, cell, &metrics);
  std::ostringstream os;
  append_report_line(os, cell, g.num_vertices(), g.num_edges(), metrics,
                     rec.result_word, top_edges);
  return os.str();
}

}  // namespace ecd::core
