#include "baselines/imbea.h"

#include <algorithm>
#include <numeric>

namespace mbb {

namespace {

class ImbeaSearcher {
 public:
  ImbeaSearcher(const BipartiteGraph& g, const SearchLimits& limits,
                std::uint32_t initial_best)
      : g_(g), limits_(limits), best_size_(initial_best) {}

  MbbResult Run() {
    std::vector<VertexId> a(g_.num_left());
    std::iota(a.begin(), a.end(), 0);
    std::vector<VertexId> cr(g_.num_right());
    std::iota(cr.begin(), cr.end(), 0);
    // Highest-degree candidates first: large bicliques early improve the
    // incumbent and hence the pruning.
    std::stable_sort(cr.begin(), cr.end(), [this](VertexId x, VertexId y) {
      return g_.Degree(Side::kRight, x) > g_.Degree(Side::kRight, y);
    });
    Rec(std::move(a), std::move(cr), 0);

    MbbResult out;
    out.best = std::move(best_);
    out.best.MakeBalanced();
    out.stats = stats_;
    out.exact = !stats_.timed_out;
    return out;
  }

 private:
  // `a` = common neighbourhood of b_ (sorted); `cr` = undecided right
  // candidates. Exclusion runs as a tail loop. Returns true on abort.
  bool Rec(std::vector<VertexId> a, std::vector<VertexId> cr,
           std::uint32_t depth) {
    while (true) {
      ++stats_.recursions;
      stats_.depth_sum += depth;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth);
      if (LimitFired()) return true;

      const std::uint32_t potential = std::min(
          static_cast<std::uint32_t>(a.size()),
          static_cast<std::uint32_t>(b_.size() + cr.size()));
      if (potential <= best_size_) {
        ++stats_.bound_prunes;
        return false;
      }
      if (cr.empty()) {
        ++stats_.leaves;
        return false;  // interior nodes already recorded their bicliques
      }

      // Candidate filtering: v needs |N(v) ∩ A| > best to ever matter.
      // Pick the overlap-maximizing candidate (the iMBEA expansion rule).
      std::size_t pick = cr.size();
      std::size_t pick_overlap = 0;
      {
        std::size_t write = 0;
        for (std::size_t i = 0; i < cr.size(); ++i) {
          const std::size_t overlap = Overlap(a, cr[i]);
          if (overlap <= best_size_) {
            // If v were ever included, the final A would shrink inside
            // N(v) ∩ A, so no improving biclique can contain v.
            ++stats_.reduction_removed;
            continue;
          }
          if (pick == cr.size() || overlap > pick_overlap) {
            pick = write;
            pick_overlap = overlap;
          }
          cr[write++] = cr[i];
        }
        cr.resize(write);
      }
      if (cr.empty()) continue;  // re-check bound, then leaf

      const VertexId v = cr[pick];
      cr.erase(cr.begin() + static_cast<std::ptrdiff_t>(pick));

      // Inclusion branch.
      {
        std::vector<VertexId> next_a = Intersect(a, v);
        b_.push_back(v);
        const std::uint32_t size = std::min(
            static_cast<std::uint32_t>(next_a.size()),
            static_cast<std::uint32_t>(b_.size()));
        if (size > best_size_) {
          best_size_ = size;
          best_.left = next_a;
          best_.right = b_;
        }
        if (Rec(std::move(next_a), cr, depth + 1)) return true;
        b_.pop_back();
      }

      // Exclusion branch: v already removed; loop.
      ++depth;
    }
  }

  std::size_t Overlap(const std::vector<VertexId>& a, VertexId v) const {
    const std::span<const VertexId> nbrs = g_.Neighbors(Side::kRight, v);
    // Merge count over two sorted sequences.
    std::size_t count = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < nbrs.size()) {
      if (a[i] < nbrs[j]) {
        ++i;
      } else if (a[i] > nbrs[j]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    return count;
  }

  std::vector<VertexId> Intersect(const std::vector<VertexId>& a,
                                  VertexId v) const {
    const std::span<const VertexId> nbrs = g_.Neighbors(Side::kRight, v);
    std::vector<VertexId> out;
    out.reserve(std::min(a.size(), nbrs.size()));
    std::set_intersection(a.begin(), a.end(), nbrs.begin(), nbrs.end(),
                          std::back_inserter(out));
    return out;
  }

  bool LimitFired() {
    return stats_.RecordStop(limits_.CheckStop(stats_.recursions));
  }

  const BipartiteGraph& g_;
  const SearchLimits& limits_;
  std::uint32_t best_size_;
  std::vector<VertexId> b_;
  Biclique best_;
  SearchStats stats_;
};

}  // namespace

MbbResult ImbeaSolve(const BipartiteGraph& g, const SearchLimits& limits,
                     std::uint32_t initial_best) {
  ImbeaSearcher searcher(g, limits, initial_best);
  return searcher.Run();
}

}  // namespace mbb
