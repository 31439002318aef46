#include "core/size_constrained.h"

#include <algorithm>
#include <cassert>

#include "core/complement_decomposition.h"
#include "engine/search_context.h"

namespace mbb {

namespace {

/// Branch and bound for the (a, b) target. State mirrors denseMBB's:
/// (A, B) chosen, (CA, CB) candidates with the biclique invariant, kept in
/// the pooled `SearchContext` frames (one per exclusion depth).
class SizeConstrainedSearcher {
 public:
  SizeConstrainedSearcher(const DenseSubgraph& g, std::uint32_t a,
                          std::uint32_t b, const SearchLimits& limits,
                          SearchContext& context)
      : g_(g), target_a_(a), target_b_(b), limits_(limits), ctx_(context) {}

  std::optional<Biclique> Run() {
    ctx_.PrepareFrames(std::max(g_.num_left(), g_.num_right()));
    SearchContext::BranchFrame& root = ctx_.Frame(0);
    root.ca.Resize(g_.num_left());
    root.ca.SetAll();
    root.cb.Resize(g_.num_right());
    root.cb.SetAll();
    found_ = false;
    Rec(root.ca, root.cb, /*level=*/0);
    if (!found_) return std::nullopt;
    return witness_;
  }

  /// The first limit that fired, or kNone when the search ran to the end.
  StopCause stop_cause() const { return stop_cause_; }

 private:
  // Returns true when the search should stop (found or limit). `ca`/`cb`
  // alias the pooled frame for `level`; the exclusion branch copies them
  // into the next level's frame, the inclusion branch narrows them in place.
  bool Rec(BitRow& ca, BitRow& cb, std::size_t level) {
    while (true) {
      ++recursions_;
      const StopCause cause = limits_.CheckStop(recursions_);
      if (cause != StopCause::kNone) {
        stop_cause_ = cause;
        return true;
      }

      std::uint32_t ca_count = static_cast<std::uint32_t>(ca.Count());
      std::uint32_t cb_count = static_cast<std::uint32_t>(cb.Count());

      // Reductions: candidates that cannot carry the per-side target. Each
      // pass also picks the branch vertex among the candidates it keeps:
      // the most missing cross neighbours, left before right, ascending
      // id, the first candidate or a strictly larger count wins. The pass
      // that changes nothing leaves ca and cb final, so its pick stands.
      Side branch_side = Side::kLeft;
      VertexId branch_vertex = 0;
      bool any = false;
      while (true) {
        if (a_.size() + ca_count < target_a_ ||
            b_.size() + cb_count < target_b_) {
          return false;  // infeasible here
        }
        if (a_.size() >= target_a_ && b_.size() >= target_b_) {
          RecordWitness();
          return true;
        }
        branch_side = Side::kLeft;
        std::uint32_t max_missing = 0;
        any = false;
        bool changed = false;
        for (int u = ca.FindFirst(); u >= 0; u = ca.FindNext(u)) {
          const std::uint32_t du = static_cast<std::uint32_t>(
              g_.LeftRow(static_cast<VertexId>(u)).CountAnd(cb));
          if (du == cb_count) {
            a_.push_back(static_cast<VertexId>(u));
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            changed = true;
          } else if (b_.size() + du < target_b_) {
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            changed = true;
          } else if (!any || cb_count - du > max_missing) {
            any = true;
            max_missing = cb_count - du;
            branch_vertex = static_cast<VertexId>(u);
          }
        }
        for (int v = cb.FindFirst(); v >= 0; v = cb.FindNext(v)) {
          const std::uint32_t dv = static_cast<std::uint32_t>(
              g_.RightRow(static_cast<VertexId>(v)).CountAnd(ca));
          if (dv == ca_count) {
            b_.push_back(static_cast<VertexId>(v));
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            changed = true;
          } else if (a_.size() + dv < target_a_) {
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            changed = true;
          } else if (!any || ca_count - dv > max_missing) {
            any = true;
            max_missing = ca_count - dv;
            branch_side = Side::kRight;
            branch_vertex = static_cast<VertexId>(v);
          }
        }
        if (!changed) break;
      }

      // If A already satisfies its target, all remaining effort goes to B:
      // B ∪ CB is feasible iff |B| + |CB| >= target_b (every CB vertex is
      // adjacent to all of A by the invariant).
      if (a_.size() >= target_a_) {
        if (b_.size() + cb_count >= target_b_) {
          cb.ForEach([this](std::size_t v) {
            b_.push_back(static_cast<VertexId>(v));
          });
          RecordWitness();
          return true;
        }
        return false;
      }
      if (b_.size() >= target_b_ && a_.size() + ca_count >= target_a_) {
        ca.ForEach([this](std::size_t u) {
          a_.push_back(static_cast<VertexId>(u));
        });
        RecordWitness();
        return true;
      }

      // Branch on the max-missing candidate, exclusion first.
      if (!any) return false;

      const std::size_t a_mark = a_.size();
      const std::size_t b_mark = b_.size();
      {
        SearchContext::BranchFrame& next = ctx_.Frame(level + 1);
        next.ca.CopyFrom(ca);
        next.cb.CopyFrom(cb);
        (branch_side == Side::kLeft ? next.ca : next.cb).Reset(branch_vertex);
        if (Rec(next.ca, next.cb, level + 1)) return true;
        a_.resize(a_mark);
        b_.resize(b_mark);
      }
      if (branch_side == Side::kLeft) {
        a_.push_back(branch_vertex);
        ca.Reset(branch_vertex);
        cb &= g_.LeftRow(branch_vertex);
      } else {
        b_.push_back(branch_vertex);
        cb.Reset(branch_vertex);
        ca &= g_.RightRow(branch_vertex);
      }
    }
  }

  void RecordWitness() {
    found_ = true;
    witness_.left = a_;
    witness_.right = b_;
  }

  const DenseSubgraph& g_;
  std::uint32_t target_a_;
  std::uint32_t target_b_;
  const SearchLimits& limits_;
  SearchContext& ctx_;
  std::vector<VertexId> a_;
  std::vector<VertexId> b_;
  Biclique witness_;
  bool found_ = false;
  StopCause stop_cause_ = StopCause::kNone;
  std::uint64_t recursions_ = 0;
};

}  // namespace

std::optional<Biclique> FindSizeConstrainedBiclique(
    const DenseSubgraph& g, std::uint32_t a, std::uint32_t b,
    const SearchLimits& limits, StopCause* stop_cause,
    SearchContext* context) {
  if (a > g.num_left() || b > g.num_right()) {
    if (stop_cause != nullptr) *stop_cause = StopCause::kNone;
    return std::nullopt;
  }
  SearchContext transient;
  SizeConstrainedSearcher searcher(g, a, b, limits,
                                   context != nullptr ? *context : transient);
  std::optional<Biclique> result = searcher.Run();
  if (stop_cause != nullptr) *stop_cause = searcher.stop_cause();
  if (searcher.stop_cause() != StopCause::kNone) return std::nullopt;
  return result;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> MaximalBicliqueInstances(
    const DenseSubgraph& g) {
  assert(g.num_left() <= 64 && g.num_right() <= 64);
  std::vector<ParetoPoint> achievable;
  for (std::uint32_t a = 0; a <= g.num_left(); ++a) {
    // For each a, find the largest feasible b by downward scan.
    for (std::uint32_t b = g.num_right() + 1; b-- > 0;) {
      if (FindSizeConstrainedBiclique(g, a, b).has_value()) {
        achievable.push_back({a, b});
        break;
      }
      if (b == 0) break;
    }
  }
  return ParetoFilter(std::move(achievable));
}

}  // namespace mbb
