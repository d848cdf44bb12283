#include "tests/oracles/minor.h"

#include <vector>

#include "src/graph/generators.h"

namespace ecd::seq {

using graph::Graph;
using graph::VertexId;

namespace {

class MinorSearch {
 public:
  MinorSearch(const Graph& g, const Graph& h, std::int64_t budget)
      : g_(g), h_(h), budget_(budget), owner_(g.num_vertices(), -1) {
    sets_.resize(h_.num_vertices());
  }

  std::optional<bool> run() {
    if (h_.num_vertices() > g_.num_vertices() ||
        h_.num_edges() > g_.num_edges()) {
      return false;
    }
    const bool found = place(0);
    if (exhausted_) return std::nullopt;
    return found;
  }

 private:
  // Opens a branch set for H-vertex i. Symmetry breaking: the root is the
  // minimum G-vertex of the set, so growth only adds vertices above it.
  bool place(int i) {
    if (exhausted_) return false;
    if (i == h_.num_vertices()) return true;
    const int unassigned =
        g_.num_vertices() - assigned_count_;
    if (unassigned < h_.num_vertices() - i) return false;
    for (VertexId root = 0; root < g_.num_vertices(); ++root) {
      if (owner_[root] != -1) continue;
      owner_[root] = i;
      ++assigned_count_;
      sets_[i] = {root};
      if (extend(i, root)) return true;
      owner_[root] = -1;
      --assigned_count_;
      sets_[i].clear();
    }
    return false;
  }

  bool adjacency_satisfied(int i) const {
    for (VertexId j : h_.neighbors(i)) {
      if (j >= i) continue;  // handled when the later endpoint is placed
      bool touched = false;
      for (VertexId v : sets_[i]) {
        for (VertexId u : g_.neighbors(v)) {
          if (owner_[u] == j) {
            touched = true;
            break;
          }
        }
        if (touched) break;
      }
      if (!touched) return false;
    }
    return true;
  }

  // Either closes branch set i (if its H-adjacencies to earlier sets hold)
  // or grows it by an unassigned neighbor above the root.
  bool extend(int i, VertexId root) {
    if (--budget_ < 0) {
      exhausted_ = true;
      return false;
    }
    if (adjacency_satisfied(i) && place(i + 1)) return true;
    if (exhausted_) return false;
    // Candidate growth vertices: neighbors of the current set, each tried
    // once (flagged via `tried` to avoid duplicates within this level).
    std::vector<VertexId> candidates;
    std::vector<bool> seen(g_.num_vertices(), false);
    for (VertexId v : sets_[i]) {
      for (VertexId u : g_.neighbors(v)) {
        if (u > root && owner_[u] == -1 && !seen[u]) {
          seen[u] = true;
          candidates.push_back(u);
        }
      }
    }
    for (VertexId u : candidates) {
      owner_[u] = i;
      ++assigned_count_;
      sets_[i].push_back(u);
      if (extend(i, root)) return true;
      owner_[u] = -1;
      --assigned_count_;
      sets_[i].pop_back();
      if (exhausted_) return false;
    }
    return false;
  }

  const Graph& g_;
  const Graph& h_;
  std::int64_t budget_;
  bool exhausted_ = false;
  int assigned_count_ = 0;
  std::vector<int> owner_;
  std::vector<std::vector<VertexId>> sets_;
};

}  // namespace

std::optional<bool> has_minor(const Graph& g, const Graph& h,
                              const MinorOptions& options) {
  return MinorSearch(g, h, options.node_budget).run();
}

std::optional<bool> is_planar_by_minors(const Graph& g,
                                        const MinorOptions& options) {
  const auto k5 = has_minor(g, graph::complete(5), options);
  if (!k5.has_value()) return std::nullopt;
  if (*k5) return false;
  const auto k33 = has_minor(g, graph::complete_bipartite(3, 3), options);
  if (!k33.has_value()) return std::nullopt;
  return !*k33;
}

std::optional<bool> is_outerplanar_by_minors(const Graph& g,
                                             const MinorOptions& options) {
  const auto k4 = has_minor(g, graph::complete(4), options);
  if (!k4.has_value()) return std::nullopt;
  if (*k4) return false;
  const auto k23 = has_minor(g, graph::complete_bipartite(2, 3), options);
  if (!k23.has_value()) return std::nullopt;
  return !*k23;
}

}  // namespace ecd::seq
