#include "baselines/brute_force.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "graph/bit_matrix.h"

namespace mbb {

namespace {

/// Plain include/exclude recursion over the small side, no pruning beyond
/// the empty-common cut — deliberately structured differently from the
/// library's branch-and-bound searchers so it can serve as an independent
/// oracle in tests. `rows` holds one adjacency row per small-side vertex;
/// `common_` row `d` holds the common neighbourhood of the first `d`
/// chosen vertices (row 0 is the whole large side).
class BruteEnumerator {
 public:
  explicit BruteEnumerator(const BitMatrix& rows)
      : rows_(rows), common_(rows.rows() + 1, rows.bits_per_row()) {}

  void Run() {
    common_.Row(0).SetAll();
    std::vector<VertexId> chosen;
    Dfs(0, chosen);
  }

  std::uint32_t best_size() const { return best_size_; }
  const std::vector<VertexId>& best_small() const { return best_small_; }
  const std::vector<VertexId>& best_large() const { return best_large_; }

 private:
  void Dfs(std::uint32_t level, std::vector<VertexId>& chosen) {
    if (level == rows_.rows()) return;
    // Exclude rows_[level].
    Dfs(level + 1, chosen);
    // Include rows_[level].
    BitRow next = common_.Row(chosen.size() + 1);
    next.AssignAnd(common_.Row(chosen.size()), rows_.Row(level));
    if (next.None()) return;  // no further inclusion can help
    chosen.push_back(static_cast<VertexId>(level));
    const std::uint32_t size = std::min(
        static_cast<std::uint32_t>(chosen.size()),
        static_cast<std::uint32_t>(next.Count()));
    if (size > best_size_) {
      best_size_ = size;
      best_small_ = chosen;
      best_large_ = next.ToVector();
    }
    Dfs(level + 1, chosen);
    chosen.pop_back();
  }

  const BitMatrix& rows_;
  BitMatrix common_;
  std::uint32_t best_size_ = 0;
  std::vector<VertexId> best_small_;
  std::vector<VertexId> best_large_;
};

}  // namespace

Biclique BruteForceMbb(const BipartiteGraph& g) {
  const bool left_small = g.num_left() <= g.num_right();
  const std::uint32_t small_n = left_small ? g.num_left() : g.num_right();
  const std::uint32_t large_n = left_small ? g.num_right() : g.num_left();
  assert(small_n <= 24 && "brute force is limited to tiny graphs");
  if (small_n == 0 || large_n == 0 || g.num_edges() == 0) return {};

  const Side small_side = left_small ? Side::kLeft : Side::kRight;
  BitMatrix rows(small_n, large_n);
  for (VertexId v = 0; v < small_n; ++v) {
    BitRow row = rows.Row(v);
    for (const VertexId w : g.Neighbors(small_side, v)) row.Set(w);
  }

  BruteEnumerator enumerator(rows);
  enumerator.Run();
  Biclique out;
  if (enumerator.best_size() == 0) return out;
  std::vector<VertexId> small_set = enumerator.best_small();
  std::vector<VertexId> large_set = enumerator.best_large();
  if (left_small) {
    out.left = std::move(small_set);
    out.right = std::move(large_set);
  } else {
    out.left = std::move(large_set);
    out.right = std::move(small_set);
  }
  out.MakeBalanced();
  return out;
}

std::uint32_t BruteForceMbbSize(const BipartiteGraph& g) {
  return BruteForceMbb(g).BalancedSize();
}

}  // namespace mbb
