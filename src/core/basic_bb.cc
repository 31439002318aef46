#include "core/basic_bb.h"

#include <algorithm>

#include "engine/search_context.h"

namespace mbb {

namespace {

/// Recursive state for Algorithm 1. The recursion works on "role" pairs:
/// (`a`, `ca`) is the pair being expanded, (`b`, `cb`) the other one; the
/// roles swap at every inclusion so sides are enlarged in turn. `a_is_left`
/// records which physical side the `a` role currently denotes.
class BasicBbSearcher {
 public:
  BasicBbSearcher(const DenseSubgraph& g, const SearchLimits& limits,
                  std::uint32_t initial_best, SearchContext& context)
      : g_(g), limits_(limits), best_size_(initial_best), ctx_(context) {}

  MbbResult Run(std::vector<VertexId> a, std::vector<VertexId> b,
                SearchContext::BranchFrame& root, bool a_is_left) {
    a_ = std::move(a);
    b_ = std::move(b);
    Rec(root.ca, root.cb, static_cast<std::uint32_t>(root.ca.Count()),
        static_cast<std::uint32_t>(root.cb.Count()), a_is_left, /*depth=*/0,
        /*level=*/0);
    MbbResult out;
    out.best = std::move(best_);
    out.best.MakeBalanced();
    out.stats = stats_;
    out.exact = !stats_.timed_out;
    return out;
  }

 private:
  // Returns true when the search must abort (limit fired). `ca`/`cb`
  // alias the pooled frame for `level` and `ca_count`/`cb_count` carry
  // their popcounts (maintained incrementally — the bounding step never
  // re-counts). The exclusion branch (line 8) is the tail loop, so only
  // inclusions recurse — and they build the child's candidate sets in the
  // next pooled frame with one fused intersect-and-count sweep.
  bool Rec(BitRow& ca, BitRow& cb, std::uint32_t ca_count,
           std::uint32_t cb_count, bool a_is_left, std::uint32_t depth,
           std::size_t level) {
    while (true) {
      ++stats_.recursions;
      stats_.depth_sum += depth;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth);
      if (LimitFired()) return true;

      // Bounding (line 1).
      const std::uint32_t ub = static_cast<std::uint32_t>(
          std::min(a_.size() + ca_count, b_.size() + cb_count));
      if (ub <= best_size_) {
        ++stats_.bound_prunes;
        return false;
      }

      // Maximality check (lines 2-5): the expanded role has no candidates
      // left. By the alternation invariant |b_| >= |a_|, so min(...) ==
      // |a_|.
      if (ca_count == 0) {
        ++stats_.leaves;
        const std::uint32_t size = static_cast<std::uint32_t>(
            std::min(a_.size(), b_.size()));
        if (size > best_size_) {
          best_size_ = size;
          best_ = MakeBiclique(a_is_left);
        }
        return false;
      }
      const int u = ca.FindFirst();

      // Branch 1 (line 7): include u, swap roles. The swapped candidate
      // sets are built in the child's pooled frame; the intersection with
      // N(u) and its popcount happen in one fused sweep.
      {
        SearchContext::BranchFrame& child = ctx_.Frame(level + 1);
        const std::uint32_t child_ca_count =
            static_cast<std::uint32_t>(child.ca.AssignAndCount(
                cb, g_.Row(a_is_left ? Side::kLeft : Side::kRight,
                           static_cast<VertexId>(u))));
        child.cb.CopyFrom(ca);
        child.cb.Reset(static_cast<std::size_t>(u));
        a_.push_back(static_cast<VertexId>(u));
        std::swap(a_, b_);
        if (Rec(child.ca, child.cb, child_ca_count, ca_count - 1, !a_is_left,
                depth + 1, level + 1)) {
          return true;
        }
        std::swap(a_, b_);
        a_.pop_back();
      }

      // Branch 2 (line 8): exclude u, keep roles — continue in this frame.
      ca.Reset(static_cast<std::size_t>(u));
      --ca_count;
      ++depth;
    }
  }

  Biclique MakeBiclique(bool a_is_left) const {
    Biclique out;
    out.left = a_is_left ? a_ : b_;
    out.right = a_is_left ? b_ : a_;
    return out;
  }

  bool LimitFired() {
    return stats_.RecordStop(limits_.CheckStop(stats_.recursions));
  }

  const DenseSubgraph& g_;
  const SearchLimits& limits_;
  std::uint32_t best_size_;
  SearchContext& ctx_;
  std::vector<VertexId> a_;
  std::vector<VertexId> b_;
  Biclique best_;
  SearchStats stats_;
};

}  // namespace

MbbResult BasicBbSolve(const DenseSubgraph& g, const SearchLimits& limits,
                       std::uint32_t initial_best, SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  ctx.PrepareFrames(std::max(g.num_left(), g.num_right()));
  BasicBbSearcher searcher(g, limits, initial_best, ctx);
  SearchContext::BranchFrame& root = ctx.Frame(0);
  root.ca.Resize(g.num_left());
  root.ca.SetAll();
  root.cb.Resize(g.num_right());
  root.cb.SetAll();
  return searcher.Run({}, {}, root, /*a_is_left=*/true);
}

MbbResult BasicBbSolveAnchored(const DenseSubgraph& g, VertexId anchor,
                               const SearchLimits& limits,
                               std::uint32_t initial_best,
                               SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  ctx.PrepareFrames(std::max(g.num_left(), g.num_right()));
  BasicBbSearcher searcher(g, limits, initial_best, ctx);
  // State after "including" the anchor: the roles have swapped, so the
  // expanding a-role is now the right side with candidates N(anchor), and
  // the b-role is the left side holding the anchor.
  SearchContext::BranchFrame& root = ctx.Frame(0);
  root.ca.CopyFrom(g.LeftRow(anchor));
  root.cb.Resize(g.num_left());
  root.cb.SetAll();
  root.cb.Reset(anchor);
  return searcher.Run({}, {anchor}, root, /*a_is_left=*/false);
}

}  // namespace mbb
