#include "baselines/ext_bbclq.h"

#include <algorithm>
#include <numeric>

namespace mbb {

namespace {

/// Largest `h` such that at least `h` values in `values` are `>= h`.
std::uint32_t HIndex(std::vector<std::uint32_t>& values) {
  std::sort(values.begin(), values.end(), std::greater<>());
  std::uint32_t h = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= i + 1) {
      h = static_cast<std::uint32_t>(i + 1);
    } else {
      break;
    }
  }
  return h;
}

class ExtBbclqSearcher {
 public:
  ExtBbclqSearcher(const BipartiteGraph& g, const ExtBbclqBounds& bounds,
                   const SearchLimits& limits, std::uint32_t initial_best)
      : g_(g), bounds_(bounds), limits_(limits), best_size_(initial_best) {}

  MbbResult Run(std::vector<std::uint32_t> candidates) {
    Rec(std::move(candidates), 0);
    MbbResult out;
    out.best = std::move(best_);
    out.best.MakeBalanced();
    out.stats = stats_;
    out.exact = !stats_.timed_out;
    return out;
  }

 private:
  // `candidates` holds the undecided global indices in non-increasing
  // degree order; the front vertex is decided next. The exclusion branch is
  // a tail loop. Returns true when a limit fired.
  bool Rec(std::vector<std::uint32_t> candidates, std::uint32_t depth) {
    while (true) {
      ++stats_.recursions;
      stats_.depth_sum += depth;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth);
      if (LimitFired()) return true;

      // Simple size bound over the remaining candidates per side.
      std::uint32_t remaining_left = 0;
      for (const std::uint32_t w : candidates) {
        remaining_left += g_.SideOf(w) == Side::kLeft ? 1 : 0;
      }
      const std::uint32_t remaining_right =
          static_cast<std::uint32_t>(candidates.size()) - remaining_left;
      const std::uint32_t potential = std::min(
          static_cast<std::uint32_t>(a_.size()) + remaining_left,
          static_cast<std::uint32_t>(b_.size()) + remaining_right);
      if (potential <= best_size_) {
        ++stats_.bound_prunes;
        return false;
      }

      if (candidates.empty()) {
        ++stats_.leaves;
        RecordCurrent();
        return false;
      }

      const std::uint32_t v = candidates.front();

      // Tight upper bound pruning: including v cannot beat the incumbent,
      // so only the exclusion branch survives.
      if (bounds_.tight[v] <= best_size_) {
        candidates.erase(candidates.begin());
        ++stats_.reduction_removed;
        ++depth;
        continue;
      }

      // Inclusion branch: v joins its side; opposite-side candidates must
      // be adjacent to v.
      {
        const Side v_side = g_.SideOf(v);
        const VertexId v_local = g_.LocalId(v);
        std::vector<std::uint32_t> next_candidates;
        next_candidates.reserve(candidates.size());
        for (std::size_t i = 1; i < candidates.size(); ++i) {
          const std::uint32_t w = candidates[i];
          if (g_.SideOf(w) == v_side) {
            next_candidates.push_back(w);
            continue;
          }
          const VertexId w_local = g_.LocalId(w);
          const bool edge = v_side == Side::kLeft
                                ? g_.HasEdge(v_local, w_local)
                                : g_.HasEdge(w_local, v_local);
          if (edge) next_candidates.push_back(w);
        }
        auto& mine = v_side == Side::kLeft ? a_ : b_;
        mine.push_back(v_local);
        if (Rec(std::move(next_candidates), depth + 1)) return true;
        mine.pop_back();
      }

      // Exclusion branch: drop v, stay in this frame.
      candidates.erase(candidates.begin());
      ++depth;
    }
  }

  void RecordCurrent() {
    const std::uint32_t size =
        static_cast<std::uint32_t>(std::min(a_.size(), b_.size()));
    if (size > best_size_) {
      best_size_ = size;
      best_.left = a_;
      best_.right = b_;
    }
  }

  bool LimitFired() {
    return stats_.RecordStop(limits_.CheckStop(stats_.recursions));
  }

  const BipartiteGraph& g_;
  const ExtBbclqBounds& bounds_;
  const SearchLimits& limits_;
  std::uint32_t best_size_;
  std::vector<VertexId> a_;
  std::vector<VertexId> b_;
  Biclique best_;
  SearchStats stats_;
};

}  // namespace

ExtBbclqBounds ComputeExtBbclqBounds(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  ExtBbclqBounds bounds;
  bounds.ub.assign(n, 0);
  bounds.tight.assign(n, 0);

  // ub: h-index of common-neighbour counts with same-side vertices
  // (including the vertex itself, whose count is its degree).
  std::vector<std::uint32_t> common(n, 0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t v = 0; v < n; ++v) {
    const Side side = g.SideOf(v);
    const VertexId local = g.LocalId(v);
    touched.clear();
    for (const VertexId mid : g.Neighbors(side, local)) {
      for (const VertexId w_local : g.Neighbors(Opposite(side), mid)) {
        const std::uint32_t w = g.GlobalIndex(side, w_local);
        if (common[w] == 0) touched.push_back(w);
        ++common[w];
      }
    }
    std::vector<std::uint32_t> counts;
    counts.reserve(touched.size());
    for (const std::uint32_t w : touched) {
      counts.push_back(common[w]);  // w == v contributes deg(v) itself
      common[w] = 0;
    }
    bounds.ub[v] = HIndex(counts);
  }

  // tight: h-index of the neighbours' ub values.
  for (std::uint32_t v = 0; v < n; ++v) {
    const Side side = g.SideOf(v);
    const VertexId local = g.LocalId(v);
    std::vector<std::uint32_t> values;
    values.reserve(g.Degree(side, local));
    for (const VertexId w_local : g.Neighbors(side, local)) {
      values.push_back(bounds.ub[g.GlobalIndex(Opposite(side), w_local)]);
    }
    bounds.tight[v] = HIndex(values);
  }
  return bounds;
}

MbbResult ExtBbclqSolve(const BipartiteGraph& g, const SearchLimits& limits,
                        std::uint32_t initial_best) {
  const ExtBbclqBounds bounds = ComputeExtBbclqBounds(g);

  // Non-increasing global degree order.
  std::vector<std::uint32_t> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&g](std::uint32_t x, std::uint32_t y) {
                     return g.Degree(g.SideOf(x), g.LocalId(x)) >
                            g.Degree(g.SideOf(y), g.LocalId(y));
                   });

  ExtBbclqSearcher searcher(g, bounds, limits, initial_best);
  return searcher.Run(std::move(order));
}

}  // namespace mbb
