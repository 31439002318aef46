#include "core/complement_decomposition.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

namespace mbb {

namespace {

ParetoPoint Unit(const ComplementVertex& v) {
  return v.side == Side::kLeft ? ParetoPoint{1, 0} : ParetoPoint{0, 1};
}

ParetoPoint Add(ParetoPoint p, ParetoPoint q) {
  return {p.first + q.first, p.second + q.second};
}

/// Pareto frontier of independent-set sizes of a path (consecutive
/// vertices adjacent). Empty span yields {(0,0)}.
std::vector<ParetoPoint> PathFrontier(
    std::span<const ComplementVertex> path) {
  std::vector<ParetoPoint> incl;  // path[i] chosen
  std::vector<ParetoPoint> excl;  // path[i] not chosen
  excl.push_back({0, 0});
  if (path.empty()) return excl;
  incl.push_back(Unit(path[0]));
  for (std::size_t i = 1; i < path.size(); ++i) {
    std::vector<ParetoPoint> next_incl;
    next_incl.reserve(excl.size());
    for (const ParetoPoint& p : excl) {
      next_incl.push_back(Add(p, Unit(path[i])));
    }
    std::vector<ParetoPoint> next_excl = incl;
    next_excl.insert(next_excl.end(), excl.begin(), excl.end());
    incl = ParetoFilter(std::move(next_incl));
    excl = ParetoFilter(std::move(next_excl));
  }
  incl.insert(incl.end(), excl.begin(), excl.end());
  return ParetoFilter(std::move(incl));
}

/// Independent set of a path with at least (a, b) per-side sizes, via the
/// same DP with parent tracking. Empty result = infeasible (note an empty
/// path with (0,0) target returns an empty *set*, which is feasible; the
/// caller distinguishes by checking feasibility of the target first).
struct TracePoint {
  std::uint32_t a;
  std::uint32_t b;
  std::int32_t parent;    // index into the previous level's state vector
  bool parent_included;   // which state the parent lived in
};

std::vector<ComplementVertex> PathRealize(
    std::span<const ComplementVertex> path, std::uint32_t a,
    std::uint32_t b) {
  if (path.empty()) return {};
  // levels[i][0] = excl states, levels[i][1] = incl states.
  std::vector<std::array<std::vector<TracePoint>, 2>> levels(path.size());
  levels[0][0].push_back({0, 0, -1, false});
  const ParetoPoint u0 = Unit(path[0]);
  levels[0][1].push_back({u0.first, u0.second, -1, false});

  const auto pareto_push = [](std::vector<TracePoint>& vec, TracePoint tp) {
    for (const TracePoint& q : vec) {
      if (q.a >= tp.a && q.b >= tp.b) return;  // dominated
    }
    std::erase_if(vec, [&tp](const TracePoint& q) {
      return tp.a >= q.a && tp.b >= q.b;
    });
    vec.push_back(tp);
  };

  for (std::size_t i = 1; i < path.size(); ++i) {
    const ParetoPoint ui = Unit(path[i]);
    for (std::size_t j = 0; j < levels[i - 1][0].size(); ++j) {
      const TracePoint& p = levels[i - 1][0][j];
      pareto_push(levels[i][1], {p.a + ui.first, p.b + ui.second,
                                 static_cast<std::int32_t>(j), false});
      pareto_push(levels[i][0], {p.a, p.b, static_cast<std::int32_t>(j),
                                 false});
    }
    for (std::size_t j = 0; j < levels[i - 1][1].size(); ++j) {
      const TracePoint& p = levels[i - 1][1][j];
      pareto_push(levels[i][0], {p.a, p.b, static_cast<std::int32_t>(j),
                                 true});
    }
  }

  // Find a final state meeting the target.
  int state = -1;
  std::int32_t index = -1;
  for (int s = 0; s < 2 && state < 0; ++s) {
    const auto& vec = levels[path.size() - 1][s];
    for (std::size_t j = 0; j < vec.size(); ++j) {
      if (vec[j].a >= a && vec[j].b >= b) {
        state = s;
        index = static_cast<std::int32_t>(j);
        break;
      }
    }
  }
  if (state < 0) return {};

  std::vector<ComplementVertex> chosen;
  for (std::size_t i = path.size(); i-- > 0;) {
    const TracePoint& tp = levels[i][state][index];
    if (state == 1) chosen.push_back(path[i]);
    state = tp.parent_included ? 1 : 0;
    index = tp.parent;
  }
  std::reverse(chosen.begin(), chosen.end());
  return chosen;
}

bool FrontierReaches(const std::vector<ParetoPoint>& frontier,
                     std::uint32_t a, std::uint32_t b) {
  return std::any_of(frontier.begin(), frontier.end(),
                     [a, b](const ParetoPoint& p) {
                       return p.first >= a && p.second >= b;
                     });
}

}  // namespace

std::vector<ParetoPoint> ParetoFilter(std::vector<ParetoPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& p, const ParetoPoint& q) {
              if (p.first != q.first) return p.first < q.first;
              return p.second > q.second;
            });
  // Keep only the best b per a; the reverse scan below then eliminates
  // cross-a dominance.
  points.erase(std::unique(points.begin(), points.end(),
                           [](const ParetoPoint& p, const ParetoPoint& q) {
                             return p.first == q.first;
                           }),
               points.end());
  std::vector<ParetoPoint> out;
  // Scan from the largest `a` down: keep points with strictly growing `b`.
  std::uint32_t best_b = 0;
  bool first = true;
  for (auto it = points.rbegin(); it != points.rend(); ++it) {
    if (first || it->second > best_b) {
      out.push_back(*it);
      best_b = it->second;
      first = false;
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

ComplementDecomposition DecomposeComplement(const DenseSubgraph& g,
                                            BitSpan ca, BitSpan cb) {
  ComplementDecomposition out;
  const std::vector<std::uint32_t> left = ca.ToVector();
  const std::vector<std::uint32_t> right = cb.ToVector();

  // Complement adjacency, capped at 2 per vertex under Lemma 3. Combined
  // indexing: left vertex i -> i, right vertex j -> left.size() + j (indices
  // into `left`/`right`, not raw local ids).
  const std::size_t n = left.size() + right.size();
  std::vector<std::array<std::int32_t, 2>> adj(n, {-1, -1});
  std::vector<std::uint8_t> deg(n, 0);

  std::vector<std::int32_t> right_index(g.num_right(), -1);
  for (std::size_t j = 0; j < right.size(); ++j) {
    right_index[right[j]] = static_cast<std::int32_t>(j);
  }

  // One difference row for the whole scan (a local 1-row arena), filled
  // by the fused and-not kernel — no per-vertex allocation.
  BitMatrix scratch(1, cb.size());
  BitRow missing = scratch.Row(0);
  for (std::size_t i = 0; i < left.size(); ++i) {
    missing.AssignAndNot(cb, g.LeftRow(left[i]));
    const std::size_t miss_count = missing.Count();
    if (miss_count == 0) {
      out.full_left.push_back(left[i]);
      continue;
    }
    if (miss_count > 2) return out;  // lemma3_satisfied stays false
    missing.ForEach([&](std::size_t r_local) {
      const std::size_t u = i;
      const std::size_t v = left.size() +
                            static_cast<std::size_t>(right_index[r_local]);
      adj[u][deg[u]++] = static_cast<std::int32_t>(v);
      if (deg[v] >= 2) {
        // The right vertex misses more than 2 left candidates; detected
        // here rather than via a separate pass.
        deg[v] = 3;
        return;
      }
      adj[v][deg[v]++] = static_cast<std::int32_t>(u);
    });
  }
  // Right-side full vertices (complement-isolated) and degree validation.
  for (std::size_t j = 0; j < right.size(); ++j) {
    const std::size_t v = left.size() + j;
    if (deg[v] > 2) return out;  // lemma3_satisfied stays false
    if (deg[v] == 0) out.full_right.push_back(right[j]);
  }

  const auto to_vertex = [&](std::size_t idx) -> ComplementVertex {
    if (idx < left.size()) {
      return {Side::kLeft, static_cast<VertexId>(left[idx])};
    }
    return {Side::kRight, static_cast<VertexId>(right[idx - left.size()])};
  };

  // Walk paths from endpoints (degree 1), then remaining cycles (degree 2).
  std::vector<bool> visited(n, false);
  const auto walk = [&](std::size_t start, bool is_cycle) {
    ComplementComponent comp;
    comp.is_cycle = is_cycle;
    std::int32_t prev = -1;
    std::int32_t cur = static_cast<std::int32_t>(start);
    while (cur >= 0 && !visited[static_cast<std::size_t>(cur)]) {
      visited[static_cast<std::size_t>(cur)] = true;
      comp.vertices.push_back(to_vertex(static_cast<std::size_t>(cur)));
      std::int32_t next = -1;
      for (const std::int32_t nb : adj[static_cast<std::size_t>(cur)]) {
        if (nb >= 0 && nb != prev &&
            !visited[static_cast<std::size_t>(nb)]) {
          next = nb;
          break;
        }
      }
      prev = cur;
      cur = next;
    }
    out.components.push_back(std::move(comp));
  };

  for (std::size_t v = 0; v < n; ++v) {
    if (!visited[v] && deg[v] == 1) walk(v, /*is_cycle=*/false);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!visited[v] && deg[v] == 2) walk(v, /*is_cycle=*/true);
  }

  out.lemma3_satisfied = true;
  return out;
}

std::vector<ParetoPoint> ComponentFrontier(const ComplementComponent& comp) {
  const std::span<const ComplementVertex> all(comp.vertices);
  if (!comp.is_cycle) {
    return PathFrontier(all);
  }
  // Cycle: split on whether vertices[0] is chosen.
  const std::size_t m = comp.vertices.size();
  // Case 1: vertices[0] not chosen -> free path over [1, m).
  std::vector<ParetoPoint> result = PathFrontier(all.subspan(1));
  // Case 2: vertices[0] chosen -> neighbours 1 and m-1 excluded, free path
  // over [2, m-1).
  const std::vector<ParetoPoint> inner =
      PathFrontier(m >= 4 ? all.subspan(2, m - 3)
                          : std::span<const ComplementVertex>{});
  const ParetoPoint u0 = Unit(comp.vertices[0]);
  for (const ParetoPoint& p : inner) {
    result.push_back(Add(p, u0));
  }
  return ParetoFilter(std::move(result));
}

std::vector<ComplementVertex> RealizeInstance(const ComplementComponent& comp,
                                              std::uint32_t a,
                                              std::uint32_t b) {
  const std::span<const ComplementVertex> all(comp.vertices);
  if (!comp.is_cycle) {
    if (a == 0 && b == 0) return {};
    return PathRealize(all, a, b);
  }
  const std::size_t m = comp.vertices.size();
  // Case 1: vertices[0] not chosen.
  if (FrontierReaches(PathFrontier(all.subspan(1)), a, b)) {
    if (a == 0 && b == 0) return {};
    return PathRealize(all.subspan(1), a, b);
  }
  // Case 2: vertices[0] chosen.
  const ParetoPoint u0 = Unit(comp.vertices[0]);
  const std::uint32_t need_a = a > u0.first ? a - u0.first : 0;
  const std::uint32_t need_b = b > u0.second ? b - u0.second : 0;
  const std::span<const ComplementVertex> inner =
      m >= 4 ? all.subspan(2, m - 3) : std::span<const ComplementVertex>{};
  if (!FrontierReaches(PathFrontier(inner), need_a, need_b)) {
    return {};  // target infeasible for this component
  }
  std::vector<ComplementVertex> chosen =
      (need_a == 0 && need_b == 0) ? std::vector<ComplementVertex>{}
                                   : PathRealize(inner, need_a, need_b);
  chosen.push_back(comp.vertices[0]);
  return chosen;
}

}  // namespace mbb
