#include "src/seq/mwm.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace ecd::seq {

using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;
using graph::Weight;

namespace {

// Primal-dual weighted blossom algorithm, O(n^3).
//
// Internally 1-indexed; indices in (n, 2n] denote contracted blossoms and
// index 0 is a sentinel. `S` labels: 0 = outer (even), 1 = inner (odd),
// -1 = free. Dual feasibility: for every edge, lab[u] + lab[v] >= 2*w, with
// equality ("tight") required for matched edges; blossom duals stay >= 0.
class WeightedBlossom {
 public:
  explicit WeightedBlossom(int n) : n_(n), n_x_(n) {
    const int cap = 2 * n_ + 1;
    g_.assign(cap, std::vector<Arc>(cap));
    lab_.assign(cap, 0);
    match_.assign(cap, 0);
    slack_.assign(cap, 0);
    st_.assign(cap, 0);
    pa_.assign(cap, 0);
    s_.assign(cap, -1);
    vis_.assign(cap, 0);
    flower_.assign(cap, {});
    flower_from_.assign(cap, std::vector<int>(n_ + 1, 0));
    for (int u = 1; u <= n_; ++u) {
      for (int v = 1; v <= n_; ++v) g_[u][v] = Arc{u, v, 0};
    }
  }

  void add_edge(int u, int v, std::int64_t w) {
    g_[u][v].w = g_[v][u].w = w;
  }

  // Returns the 1-indexed mate array (0 = unmatched).
  std::vector<int> solve() {
    std::fill(match_.begin(), match_.end(), 0);
    n_x_ = n_;
    std::int64_t w_max = 0;
    for (int u = 1; u <= n_; ++u) {
      st_[u] = u;
      flower_[u].clear();
      for (int v = 1; v <= n_; ++v) {
        flower_from_[u][v] = (u == v ? u : 0);
        w_max = std::max(w_max, g_[u][v].w);
      }
    }
    for (int u = 1; u <= n_; ++u) lab_[u] = w_max;
    while (grow()) {
    }
    return {match_.begin(), match_.begin() + n_ + 1};
  }

 private:
  struct Arc {
    int u = 0, v = 0;
    std::int64_t w = 0;
  };

  static constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;

  std::int64_t delta(const Arc& e) const {
    return lab_[e.u] + lab_[e.v] - g_[e.u][e.v].w * 2;
  }

  void update_slack(int u, int x) {
    if (!slack_[x] || delta(g_[u][x]) < delta(g_[slack_[x]][x])) slack_[x] = u;
  }

  void set_slack(int x) {
    slack_[x] = 0;
    for (int u = 1; u <= n_; ++u) {
      if (g_[u][x].w > 0 && st_[u] != x && s_[st_[u]] == 0) update_slack(u, x);
    }
  }

  void q_push(int x) {
    if (x <= n_) {
      q_.push_back(x);
    } else {
      for (int y : flower_[x]) q_push(y);
    }
  }

  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (int y : flower_[x]) set_st(y, b);
    }
  }

  // Position of sub-blossom xr inside b's cycle, normalized to be even by
  // reversing the cycle direction when necessary.
  int get_pr(int b, int xr) {
    auto& f = flower_[b];
    const int pr =
        static_cast<int>(std::find(f.begin(), f.end(), xr) - f.begin());
    if (pr % 2 == 1) {
      std::reverse(f.begin() + 1, f.end());
      return static_cast<int>(f.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    match_[u] = g_[u][v].v;
    if (u > n_) {
      const Arc e = g_[u][v];
      const int xr = flower_from_[u][e.u];
      const int pr = get_pr(u, xr);
      for (int i = 0; i < pr; ++i) {
        set_match(flower_[u][i], flower_[u][i ^ 1]);
      }
      set_match(xr, v);
      std::rotate(flower_[u].begin(), flower_[u].begin() + pr,
                  flower_[u].end());
    }
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (!xnv) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    for (++timer_; u || v; std::swap(u, v)) {
      if (u == 0) continue;
      if (vis_[u] == timer_) return u;
      vis_[u] = timer_;
      u = st_[match_[u]];
      if (u) u = st_[pa_[u]];
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b]) ++b;
    if (b > n_x_) ++n_x_;
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    flower_[b].clear();
    flower_[b].push_back(lca);
    for (int x = u, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      q_push(y);
    }
    std::reverse(flower_[b].begin() + 1, flower_[b].end());
    for (int x = v, y; x != lca; x = st_[pa_[y]]) {
      flower_[b].push_back(x);
      flower_[b].push_back(y = st_[match_[x]]);
      q_push(y);
    }
    set_st(b, b);
    for (int x = 1; x <= n_x_; ++x) g_[b][x].w = g_[x][b].w = 0;
    for (int x = 1; x <= n_; ++x) flower_from_[b][x] = 0;
    for (const int xs : flower_[b]) {
      for (int x = 1; x <= n_x_; ++x) {
        if (g_[b][x].w == 0 || delta(g_[xs][x]) < delta(g_[b][x])) {
          g_[b][x] = g_[xs][x];
          g_[x][b] = g_[x][xs];
        }
      }
      for (int x = 1; x <= n_; ++x) {
        if (flower_from_[xs][x]) flower_from_[b][x] = xs;
      }
    }
    set_slack(b);
  }

  void expand_blossom(int b) {  // requires s_[b] == 1 and lab_[b] == 0
    for (const int xs : flower_[b]) set_st(xs, xs);
    const int xr = flower_from_[b][g_[b][pa_[b]].u];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = flower_[b][i];
      const int xns = flower_[b][i + 1];
      pa_[xs] = g_[xns][xs].u;
      s_[xs] = 1;
      s_[xns] = 0;
      slack_[xs] = 0;
      set_slack(xns);
      q_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (int i = pr + 1; i < static_cast<int>(flower_[b].size()); ++i) {
      const int xs = flower_[b][i];
      s_[xs] = -1;
      set_slack(xs);
    }
    st_[b] = 0;
  }

  // Processes a newly tight edge; returns true if an augmentation happened.
  bool on_found_edge(const Arc& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      const int nu = st_[match_[v]];
      slack_[v] = slack_[nu] = 0;
      s_[nu] = 0;
      q_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (!lca) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  // One phase: grow alternating trees / adjust duals until an augmenting
  // path is found (true) or the duals certify optimality (false).
  bool grow() {
    std::fill(s_.begin(), s_.begin() + n_x_ + 1, -1);
    std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
    q_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && !match_[x]) {
        pa_[x] = 0;
        s_[x] = 0;
        q_push(x);
      }
    }
    if (q_.empty()) return false;
    for (;;) {
      while (!q_.empty()) {
        const int v = q_.front();
        q_.pop_front();
        if (s_[st_[v]] == 1) continue;
        for (int u = 1; u <= n_; ++u) {
          if (g_[v][u].w > 0 && st_[u] != st_[v]) {
            if (delta(g_[v][u]) == 0) {
              if (on_found_edge(g_[v][u])) return true;
            } else {
              update_slack(v, st_[u]);
            }
          }
        }
      }
      // Dual adjustment.
      std::int64_t d = kInf;
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x]) {
          if (s_[x] == -1) {
            d = std::min(d, delta(g_[slack_[x]][x]));
          } else if (s_[x] == 0) {
            d = std::min(d, delta(g_[slack_[x]][x]) / 2);
          }
        }
      }
      for (int u = 1; u <= n_; ++u) {
        if (s_[st_[u]] == 0) {
          if (lab_[u] <= d) return false;  // dual hits 0: matching is optimal
          lab_[u] -= d;
        } else if (s_[st_[u]] == 1) {
          lab_[u] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] >= 0) {
          lab_[b] += (s_[b] == 0 ? 2 * d : -2 * d);
        }
      }
      q_.clear();
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] && st_[slack_[x]] != x &&
            delta(g_[slack_[x]][x]) == 0) {
          if (on_found_edge(g_[slack_[x]][x])) return true;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
  }

  int n_;
  int n_x_;  // number of live node slots (vertices + blossoms)
  std::vector<std::vector<Arc>> g_;
  std::vector<std::int64_t> lab_;
  std::vector<int> match_, slack_, st_, pa_, s_, vis_;
  std::vector<std::vector<int>> flower_;
  std::vector<std::vector<int>> flower_from_;
  std::deque<int> q_;
  int timer_ = 0;
};

}  // namespace

Mates max_weight_matching(const Graph& g) {
  const int n = g.num_vertices();
  Mates mates(n, kInvalidVertex);
  if (n == 0 || g.num_edges() == 0) return mates;
  WeightedBlossom solver(n);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    solver.add_edge(ed.u + 1, ed.v + 1, g.weight(e));
  }
  const std::vector<int> match = solver.solve();
  for (VertexId v = 0; v < n; ++v) {
    if (match[v + 1] != 0) mates[v] = match[v + 1] - 1;
  }
  return mates;
}

Mates greedy_weight_matching(const Graph& g) {
  std::vector<graph::EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&g](graph::EdgeId a, graph::EdgeId b) {
                     return g.weight(a) > g.weight(b);
                   });
  Mates mate(g.num_vertices(), kInvalidVertex);
  for (graph::EdgeId e : order) {
    const graph::Edge ed = g.edge(e);
    if (mate[ed.u] == kInvalidVertex && mate[ed.v] == kInvalidVertex) {
      mate[ed.u] = ed.v;
      mate[ed.v] = ed.u;
    }
  }
  return mate;
}

std::int64_t matching_weight(const Graph& g, const Mates& mates) {
  std::int64_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (mates[v] != kInvalidVertex && v < mates[v]) {
      const graph::EdgeId e = g.find_edge(v, mates[v]);
      if (e == graph::kInvalidEdge) {
        throw std::logic_error("mate is not an edge");
      }
      total += g.weight(e);
    }
  }
  return total;
}

}  // namespace ecd::seq
