#include "src/seq/mis.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

namespace ecd::seq {

using graph::Graph;
using graph::VertexId;

namespace {

// Branch-and-bound state over a shrinking "alive" vertex set (DESIGN.md §20).
// Every removed vertex goes on one undo trail; a frame notes the trail's size
// and restores LIFO down to it. All storage is sized here, so a search node
// allocates nothing.
class MisSearch {
 public:
  MisSearch(const Graph& g, std::int64_t node_budget)
      : g_(g), n_(g.num_vertices()), budget_(node_budget),
        alive_((static_cast<std::size_t>(n_) + 63) / 64),
        low_(alive_.size()), degree_(n_), alive_count_(n_) {
    for (VertexId v = 0; v < n_; ++v) {
      degree_[v] = g.degree(v);
      set(alive_, v);
      if (degree_[v] <= 1) set(low_, v);
    }
    trail_.reserve(n_);
    current_.reserve(n_);
    best_.reserve(n_);
  }

  std::optional<std::vector<VertexId>> run() {
    recurse();
    if (!ok_) return std::nullopt;
    return std::move(best_);
  }

 private:
  using Bits = std::vector<std::uint64_t>;

  static bool test(const Bits& b, VertexId v) {
    return (b[v >> 6] >> (v & 63)) & 1;
  }
  static void set(Bits& b, VertexId v) {
    b[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  static void clear(Bits& b, VertexId v) {
    b[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  // First set bit of `b` at or after `from`, or n_ if there is none.
  VertexId next_set(const Bits& b, VertexId from) const {
    if (from >= n_) return n_;
    std::size_t w = static_cast<std::size_t>(from) >> 6;
    std::uint64_t word = b[w] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w == b.size()) return n_;
      word = b[w];
    }
    return static_cast<VertexId>(w * 64 + std::countr_zero(word));
  }

  void remove_vertex(VertexId v) {
    clear(alive_, v);
    clear(low_, v);
    --alive_count_;
    trail_.push_back(v);
    for (VertexId u : g_.neighbors(v)) {
      if (test(alive_, u) && --degree_[u] == 1) set(low_, u);
    }
  }

  // A dead vertex's degree stays frozen at its value on removal, which is
  // again its residual degree once every later removal is undone.
  void restore(std::size_t mark) {
    while (trail_.size() > mark) {
      const VertexId v = trail_.back();
      trail_.pop_back();
      set(alive_, v);
      ++alive_count_;
      if (degree_[v] <= 1) set(low_, v);
      for (VertexId u : g_.neighbors(v)) {
        if (test(alive_, u) && ++degree_[u] == 2) clear(low_, u);
      }
    }
  }

  void take_vertex(VertexId v) {
    current_.push_back(v);
    remove_vertex(v);
    for (VertexId u : g_.neighbors(v)) {
      if (test(alive_, u)) remove_vertex(u);
    }
  }

  // Degree-0 and degree-1 vertices can always be taken. Takes them in the
  // order of repeated 0..n-1 passes: resume after the last take, and start
  // over from 0 only after a pass that took something.
  void reduce() {
    bool took = false;
    for (VertexId from = 0;;) {
      const VertexId v = next_set(low_, from);
      if (v == n_) {
        if (!took) return;
        took = false;
        from = 0;
        continue;
      }
      take_vertex(v);
      took = true;
      from = v + 1;
    }
  }

  // Maximum residual degree, lowest id on ties.
  VertexId max_degree_vertex() const {
    VertexId pivot = graph::kInvalidVertex;
    int pivot_deg = -1;
    for (std::size_t w = 0; w < alive_.size(); ++w) {
      for (std::uint64_t bits = alive_[w]; bits != 0; bits &= bits - 1) {
        const auto v = static_cast<VertexId>(w * 64 + std::countr_zero(bits));
        if (degree_[v] > pivot_deg) {
          pivot_deg = degree_[v];
          pivot = v;
        }
      }
    }
    return pivot;
  }

  void recurse() {
    if (!ok_) return;
    if (--budget_ < 0) {
      ok_ = false;
      return;
    }
    // Trivial upper bound: everything still alive joins the set.
    if (current_.size() + alive_count_ <= best_.size()) return;

    const std::size_t mark = trail_.size();
    const std::size_t taken_marker = current_.size();
    reduce();
    if (alive_count_ == 0) {
      if (current_.size() > best_.size()) best_ = current_;
    } else if (current_.size() + alive_count_ > best_.size()) {
      // Branch on the pivot: take it, then drop it.
      const VertexId pivot = max_degree_vertex();
      const std::size_t branch_mark = trail_.size();
      take_vertex(pivot);
      recurse();
      restore(branch_mark);
      current_.pop_back();
      remove_vertex(pivot);
      recurse();
      restore(branch_mark);
    } else if (current_.size() > best_.size()) {
      best_ = current_;
    }
    restore(mark);
    current_.resize(taken_marker);
  }

  const Graph& g_;
  const int n_;
  std::int64_t budget_;
  Bits alive_;
  // The reduction candidates: exactly the alive vertices with degree_ <= 1,
  // kept so by every removal and restore.
  Bits low_;
  std::vector<int> degree_;
  std::size_t alive_count_;
  std::vector<VertexId> trail_;  // removed vertices, in removal order
  std::vector<VertexId> current_;
  std::vector<VertexId> best_;
  bool ok_ = true;
};

}  // namespace

std::optional<std::vector<VertexId>> max_independent_set_exact(
    const Graph& g, std::int64_t node_budget) {
  return MisSearch(g, node_budget).run();
}

std::vector<VertexId> greedy_mis_min_degree(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<bool> alive(n, true);
  std::vector<int> degree(n);  // alive neighbours of each alive vertex
  // A lazy min-heap of (degree, id): a vertex is pushed again whenever its
  // degree drops, and a popped entry that is dead or out of date is
  // skipped. So each pick is the alive vertex of least degree, the lowest
  // id on ties, and the greedy costs O((n + m) log n).
  using Entry = std::pair<int, VertexId>;
  std::vector<Entry> entries(n);
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    entries[v] = {degree[v], v};
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>(), std::move(entries));
  const auto kill = [&](VertexId v) {
    alive[v] = false;
    for (VertexId u : g.neighbors(v)) {
      if (alive[u]) heap.push({--degree[u], u});
    }
  };
  std::vector<VertexId> result;
  while (!heap.empty()) {
    const auto [d, pick] = heap.top();
    heap.pop();
    if (!alive[pick] || d != degree[pick]) continue;
    result.push_back(pick);
    kill(pick);
    for (VertexId u : g.neighbors(pick)) {
      if (alive[u]) kill(u);
    }
  }
  return result;
}

std::vector<VertexId> mis_local_search(const Graph& g,
                                       std::vector<VertexId> initial,
                                       int max_iterations) {
  const int n = g.num_vertices();
  std::vector<bool> in_set(n, false);
  for (VertexId v : initial) in_set[v] = true;
  // (1,2)-swap: remove one vertex, insert two of its non-adjacent
  // ex-neighbors whose only conflict was the removed vertex.
  std::vector<int> conflicts(n, 0);
  auto recount = [&] {
    for (VertexId v = 0; v < n; ++v) {
      conflicts[v] = 0;
      for (VertexId u : g.neighbors(v)) {
        if (in_set[u]) ++conflicts[v];
      }
    }
  };
  recount();
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool improved = false;
    // First, insert any free vertex.
    for (VertexId v = 0; v < n; ++v) {
      if (!in_set[v] && conflicts[v] == 0) {
        in_set[v] = true;
        for (VertexId u : g.neighbors(v)) ++conflicts[u];
        improved = true;
      }
    }
    for (VertexId v = 0; v < n && !improved; ++v) {
      if (!in_set[v]) continue;
      std::vector<VertexId> candidates;
      for (VertexId u : g.neighbors(v)) {
        if (!in_set[u] && conflicts[u] == 1) candidates.push_back(u);
      }
      for (std::size_t i = 0; i < candidates.size() && !improved; ++i) {
        for (std::size_t j = i + 1; j < candidates.size() && !improved; ++j) {
          if (!g.has_edge(candidates[i], candidates[j])) {
            in_set[v] = false;
            in_set[candidates[i]] = true;
            in_set[candidates[j]] = true;
            recount();
            improved = true;
          }
        }
      }
    }
    if (!improved) break;
  }
  std::vector<VertexId> result;
  for (VertexId v = 0; v < n; ++v) {
    if (in_set[v]) result.push_back(v);
  }
  return result;
}

namespace {

// Greedy clique partition (DESIGN.md §20): vertices by increasing degree,
// lowest id on ties; each uncovered vertex opens a clique that takes every
// uncovered neighbor adjacent to all of its members so far. An independent
// set holds at most one vertex per clique, so the count bounds α(g).
// O(n log n + m).
int clique_partition_bound(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    return g.degree(a) < g.degree(b);
  });
  std::vector<bool> covered(n, false);
  // hits[u]: members of the open clique adjacent to u. g is simple, so u is
  // adjacent to all of them exactly when hits[u] equals the clique's size.
  std::vector<int> hits(n, 0);
  std::vector<VertexId> clique;
  const auto join = [&](VertexId v) {
    covered[v] = true;
    clique.push_back(v);
    for (VertexId x : g.neighbors(v)) ++hits[x];
  };
  int cliques = 0;
  for (VertexId v : order) {
    if (covered[v]) continue;
    ++cliques;
    clique.clear();
    join(v);
    for (VertexId u : g.neighbors(v)) {
      if (!covered[u] && hits[u] == static_cast<int>(clique.size())) join(u);
    }
    for (VertexId w : clique) {
      for (VertexId x : g.neighbors(w)) hits[x] = 0;
    }
  }
  return cliques;
}

}  // namespace

MisResult best_effort_mis(const Graph& g, std::int64_t node_budget) {
  std::vector<VertexId> greedy = mis_local_search(g, greedy_mis_min_degree(g));
  const int bound = clique_partition_bound(g);
  if (static_cast<int>(greedy.size()) >= bound) {
    return {std::move(greedy), true, bound};
  }
  if (auto exact = max_independent_set_exact(g, node_budget)) {
    const int size = static_cast<int>(exact->size());
    return {std::move(*exact), true, size};
  }
  return {std::move(greedy), false, bound};
}

bool is_independent_set(const Graph& g,
                        const std::vector<VertexId>& vertices) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId v : vertices) {
    if (v < 0 || v >= g.num_vertices() || in_set[v]) return false;
    in_set[v] = true;
  }
  for (const graph::Edge& e : g.edges()) {
    if (in_set[e.u] && in_set[e.v]) return false;
  }
  return true;
}

}  // namespace ecd::seq
