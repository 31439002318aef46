#include "core/dense_mbb.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dynamic_mbb.h"
#include "core/size_constrained.h"
#include "engine/faults.h"
#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/bit_matrix.h"

namespace mbb {

namespace {

/// Snapshot of a forked branch — a node of the deterministic task tree, or
/// a pending inclusion branch donated to an idle worker: the fixed sides,
/// deep copies of the candidate sets (a forked subtree cannot alias its
/// spawner's pooled frames), and the spawner's incumbent at fork time.
/// `path` identifies the subtree's position in the task tree: the
/// spawner's path plus this fork's per-spawner ordinal (empty for the
/// root); `spawner` is the worker that forked it.
///
/// The copies live in one 2-row arena per task, `sets`, which `ca`/`cb`
/// view. Moving a task keeps the views valid (the arena's words do not
/// move); copying would not, so the task is move-only.
struct SubtreeTask {
  SubtreeTask() = default;
  SubtreeTask(SubtreeTask&&) = default;
  SubtreeTask& operator=(SubtreeTask&&) = default;

  /// Allocates `sets` for candidate sides of up to `max_bits` bits and
  /// points `ca`/`cb` at its rows, empty until the caller fills them.
  void AllocateSets(std::size_t max_bits) {
    sets = BitMatrix(2, max_bits);
    ca = sets.EmptyRow(0);
    cb = sets.EmptyRow(1);
  }

  std::vector<VertexId> a;
  std::vector<VertexId> b;
  BitMatrix sets;
  BitRow ca;
  BitRow cb;
  std::uint32_t ca_count = 0;
  std::uint32_t cb_count = 0;
  std::uint32_t depth = 0;
  std::uint32_t bound_snapshot = 0;
  std::vector<std::uint32_t> path;
  std::size_t spawner = 0;
};

class ParallelDenseDriver;

/// "Earlier in sequential depth-first order" for task paths. A spawner's
/// inline work runs before any of its forks (prefix first), and because the
/// sequential recursion explores exclusion before inclusion, the fork made
/// deepest on the spine — the *highest* ordinal — is reached first when
/// unwinding. Used by the deterministic reduce to break size ties.
bool PathBefore(const std::vector<std::uint32_t>& x,
                const std::vector<std::uint32_t>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] != y[i]) return x[i] > y[i];
  }
  return x.size() < y.size();
}

/// Restores a vector's size on scope exit; used to undo Lemma 1 promotions
/// and branch inclusions when unwinding the recursion.
class SizeGuard {
 public:
  explicit SizeGuard(std::vector<VertexId>& v) : v_(v), size_(v.size()) {}
  ~SizeGuard() { v_.resize(size_); }
  SizeGuard(const SizeGuard&) = delete;
  SizeGuard& operator=(const SizeGuard&) = delete;

 private:
  std::vector<VertexId>& v_;
  std::size_t size_;
};

/// The fixed per-side target of the size-constrained (a, b) problem.
struct SizeTarget {
  std::uint32_t a;
  std::uint32_t b;
};

/// denseMBB's branch and bound, with one of two targets. Balanced mode
/// (no `target`) maximises the balanced size, recording only bicliques
/// larger than `initial_best`. Target mode stops at the first biclique
/// with |A| >= a and |B| >= b and reports it unbalanced; it needs
/// `use_poly_case` off, since Lemma 3's dynamic program maximises the
/// balanced size. Both prune with the same per-side thresholds
/// `need_a_`/`need_b_`, the sizes a new biclique must reach on each side.
class DenseMbbSearcher {
 public:
  DenseMbbSearcher(const DenseSubgraph& g, const DenseMbbOptions& options,
                   std::uint32_t initial_best, SearchContext& context,
                   std::optional<SizeTarget> target = std::nullopt)
      : g_(g),
        options_(options),
        target_mode_(target.has_value()),
        need_a_(target_mode_ ? target->a : initial_best + 1),
        need_b_(target_mode_ ? target->b : initial_best + 1),
        best_size_(initial_best),
        own_best_size_(initial_best),
        ctx_(context) {}

  /// Makes this searcher fork subtrees onto `driver`, as tasks of
  /// `worker` (the one running it). With `spawn_depth` > 0 (deterministic
  /// mode), branch nodes at depth < `spawn_depth` fork their inclusion
  /// branch instead of exploring it inline; at the deepest spawn level the
  /// exclusion branch is forked as well, so the searcher returns once both
  /// children are delegated. With `spawn_depth` 0 it forks on demand: while
  /// the driver is hungry, each recursion entry donates the shallowest
  /// pending inclusion branch. `path` is this searcher's own position in
  /// the task tree (empty for the root).
  void EnableSplitting(ParallelDenseDriver* driver, std::size_t worker,
                       std::uint32_t spawn_depth,
                       std::vector<std::uint32_t> path) {
    driver_ = driver;
    worker_ = worker;
    spawn_depth_ = spawn_depth;
    on_demand_ = spawn_depth == 0;
    path_ = std::move(path);
  }

  /// Searches from `root`'s candidate sets at `depth` (0 for a whole
  /// search; a forked subtree re-enters with its snapshot state and the
  /// depth it was forked at, its counts carried in the task so nothing is
  /// re-counted). Deeper levels draw their scratch from the pooled context
  /// instead of allocating per branch.
  MbbResult RunFrom(std::vector<VertexId> a, std::vector<VertexId> b,
                    SearchContext::BranchFrame& root, std::uint32_t ca_count,
                    std::uint32_t cb_count, std::uint32_t depth) {
    a_ = std::move(a);
    b_ = std::move(b);
    if (on_demand_) {
      Rec<true>(root.ca, root.cb, ca_count, cb_count, depth, /*level=*/0);
    } else {
      Rec<false>(root.ca, root.cb, ca_count, cb_count, depth, /*level=*/0);
    }
    MbbResult out;
    out.best = std::move(best_);
    if (!target_mode_) out.best.MakeBalanced();
    out.stats = stats_;
    out.exact = !stats_.timed_out;
    return out;
  }

  /// Target mode: whether the search found a biclique meeting the target.
  bool hit() const { return hit_; }

 private:
  // Returns true when the search must abort: a limit fired, or target mode
  // hit its target. The exclusion branch is a tail loop so stack depth
  // only grows on inclusions. `ca`
  // and `cb` alias this level's pooled frame and are mutated in place;
  // `ca_count`/`cb_count` are their popcounts, threaded through the
  // recursion (the reduction loop maintains them and the fused
  // and-with-count kernel refreshes them on inclusion, so no branch node
  // ever re-counts a candidate set from scratch). `level` is the
  // recursion nesting level (± the tail loop, so it lags `depth`), which
  // indexes the context's frame pool. `kOnDemand` compiles the pending
  // records and the hunger check in only where `on_demand_` is set, so
  // the sequential search runs without them.
  template <bool kOnDemand>
  bool Rec(BitRow& ca, BitRow& cb, std::uint32_t ca_count,
           std::uint32_t cb_count, std::uint32_t depth, std::size_t level) {
    SizeGuard guard_a(a_);
    SizeGuard guard_b(b_);

    while (true) {
      ++stats_.recursions;
      stats_.depth_sum += depth;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth);
      if (LimitFired()) return true;
      SyncSharedBound();
      if (kOnDemand && Hungry()) DonateShallowest();

      // Reduction to fixpoint (Lemmas 1 and 2), interleaved with the
      // bounding condition and leaf detection. Each pass also collects the
      // degree profile of the candidates it keeps: the branch vertex (the
      // most missing cross neighbours; left before right, ascending id, the
      // first kept candidate, then each strictly larger count wins) and
      // the per-side counts of candidates missing any, for the feasibility
      // bound. The pass that changes nothing leaves ca and cb final, so its
      // profile is the node's. Without reductions the first pass removes
      // nothing and is that pass.
      Side branch_side = Side::kLeft;
      VertexId branch_vertex = 0;
      int max_missing = -1;
      std::uint32_t nonfull_left = 0;
      std::uint32_t nonfull_right = 0;
      const bool reduce = options_.use_reductions;
      while (true) {
        const std::uint32_t potential_a =
            static_cast<std::uint32_t>(a_.size()) + ca_count;
        const std::uint32_t potential_b =
            static_cast<std::uint32_t>(b_.size()) + cb_count;
        if (potential_a < need_a_ || potential_b < need_b_) {
          ++stats_.bound_prunes;
          // Attribute the cut when only a concurrently raised bound (not
          // this searcher's own incumbent) made it fire.
          if (options_.shared_bound != nullptr &&
              std::min(potential_a, potential_b) > own_best_size_) {
            ++stats_.shared_bound_prunes;
          }
          return false;
        }
        // Target mode: the fixed sides alone meet the target.
        if (target_mode_ && a_.size() >= need_a_ && b_.size() >= need_b_) {
          return RecordLeaf({}, {});
        }
        if (ca_count == 0 || cb_count == 0) return RecordLeaf(ca, cb);

        branch_side = Side::kLeft;
        max_missing = -1;  // the first kept candidate always wins
        nonfull_left = 0;
        nonfull_right = 0;
        bool changed = false;
        // Left candidates. Each iteration reads one adjacency row a fixed
        // stride away from the last; the next row is prefetched while the
        // current one is counted (resetting bit `u` never disturbs
        // `FindNext(u)`, so the lookahead is safe under removal).
        for (int u = ca.FindFirst(); u >= 0;) {
          const int next = ca.FindNext(static_cast<std::size_t>(u));
          if (next >= 0) g_.LeftRow(static_cast<VertexId>(next)).Prefetch();
          const std::uint32_t du = static_cast<std::uint32_t>(
              g_.LeftRow(static_cast<VertexId>(u)).CountAnd(cb));
          if (reduce && du == cb_count) {
            a_.push_back(static_cast<VertexId>(u));
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            ++stats_.reduction_promoted;
            changed = true;
          } else if (reduce &&
                     static_cast<std::uint32_t>(b_.size()) + du < need_b_) {
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            ++stats_.reduction_removed;
            changed = true;
          } else {
            const std::uint32_t missing = cb_count - du;
            nonfull_left += missing > 0 ? 1 : 0;
            if (static_cast<int>(missing) > max_missing) {
              max_missing = static_cast<int>(missing);
              branch_vertex = static_cast<VertexId>(u);
            }
          }
          u = next;
        }
        // Right candidates.
        for (int v = cb.FindFirst(); v >= 0;) {
          const int next = cb.FindNext(static_cast<std::size_t>(v));
          if (next >= 0) g_.RightRow(static_cast<VertexId>(next)).Prefetch();
          const std::uint32_t dv = static_cast<std::uint32_t>(
              g_.RightRow(static_cast<VertexId>(v)).CountAnd(ca));
          if (reduce && dv == ca_count) {
            b_.push_back(static_cast<VertexId>(v));
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            ++stats_.reduction_promoted;
            changed = true;
          } else if (reduce &&
                     static_cast<std::uint32_t>(a_.size()) + dv < need_a_) {
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            ++stats_.reduction_removed;
            changed = true;
          } else {
            const std::uint32_t missing = ca_count - dv;
            nonfull_right += missing > 0 ? 1 : 0;
            if (static_cast<int>(missing) > max_missing) {
              max_missing = static_cast<int>(missing);
              branch_side = Side::kRight;
              branch_vertex = static_cast<VertexId>(v);
            }
          }
          v = next;
        }
        if (!changed) break;
      }

      // Target mode: once one fixed side meets its target, the other
      // side's candidates complete the hit (all are adjacent to it, and the
      // last pass's bound check showed they are enough).
      if (target_mode_) {
        if (a_.size() >= need_a_) return RecordLeaf({}, cb);
        if (b_.size() >= need_b_) return RecordLeaf(ca, {});
      }

      // Matching (König) bound — one of the paper's unstated "obvious
      // prunings" (§4.2 notes the obvious prunings are omitted for space).
      // A biclique A' x B' inside the candidates forces (CA \ A') ∪
      // (CB \ B') to be a vertex cover of the candidates' bipartite
      // complement, so by König a + b <= |CA| + |CB| - ν(complement).
      // In the dense regime the complement is sparse, making ν cheap to
      // compute and the bound sharp; it is exactly what turns the
      // near-polynomial behaviour of Table 4 into practice.
      //
      // The bound can only fire when ν reaches `needed` (in balanced mode
      // numerator - 2·best); ν is capped by the number of
      // non-fully-connected vertices per side, so the whole computation is
      // skipped when unreachable and aborted early once `needed` is
      // matched.
      if (options_.use_matching_bound) {
        const std::uint32_t numerator = static_cast<std::uint32_t>(
            a_.size() + b_.size()) + ca_count + cb_count;
        const std::uint32_t needed = numerator + 2 > need_a_ + need_b_
                                         ? numerator + 2 - need_a_ - need_b_
                                         : 0;
        if (needed > 0 &&
            needed <= std::min(nonfull_left, nonfull_right)) {
          const std::uint32_t matching =
              ComplementMatching(ca, cb, needed);
          if (matching >= needed) {
            ++stats_.matching_prunes;
            return false;
          }
        }
      }

      // Polynomially solvable case (Lemma 3 / Algorithm 2).
      if (options_.use_poly_case && max_missing <= 2) {
        ++stats_.poly_cases;
        bool polynomial = false;
        const DynamicMbbOutcome outcome = TryDynamicMbb(
            g_, a_, b_, ca, cb, best_size_, &polynomial);
        if (outcome.improved) {
          best_ = outcome.best;
          RaiseBest(best_.BalancedSize());
          own_best_size_ = best_size_;
          PublishSharedBound();
        }
        return false;
      }

      if (!options_.use_missing_branching) {
        // Naive branching: first candidate of the larger candidate side.
        if (ca_count >= cb_count) {
          branch_side = Side::kLeft;
          branch_vertex = static_cast<VertexId>(ca.FindFirst());
        } else {
          branch_side = Side::kRight;
          branch_vertex = static_cast<VertexId>(cb.FindFirst());
        }
      }

      // Deterministic mode: shallow branch nodes fork the inclusion branch
      // as a stealable task and keep walking the exclusion spine inline —
      // the same exploration order as the sequential recursion when
      // nothing is stolen (owner pops are LIFO), but any idle worker can
      // pick the fork up. At the deepest spawn level the exclusion child
      // is forked too instead of walked inline, so the spine's own final
      // subtree is stealable and the task tree is the full binary tree of
      // depth `spawn_depth_` (<= 2^d - 1 tasks). Below `spawn_depth_` the
      // recursion proceeds sequentially, so the fused SIMD refinement
      // loops below run exactly as in the 1-thread build.
      if (depth < spawn_depth_) {
        Fork(/*include=*/true, ca, cb, ca_count, cb_count, depth,
             branch_side, branch_vertex, a_.size(), b_.size());
        if (depth + 1 == spawn_depth_) {
          // The exclusion fork gets the higher ordinal: sequential order
          // explores exclusion first, and PathBefore treats the higher
          // ordinal as sequentially earlier. Owner pops are LIFO, so the
          // owning worker also picks exclusion up first.
          Fork(/*include=*/false, ca, cb, ca_count, cb_count, depth,
               branch_side, branch_vertex, a_.size(), b_.size());
          return false;
        }
        (branch_side == Side::kLeft ? ca : cb).Reset(branch_vertex);
        if (branch_side == Side::kLeft) {
          --ca_count;
        } else {
          --cb_count;
        }
        ++depth;
        continue;
      }

      // Exclusion branch first (recursive call): excluding the vertex with
      // the most missing neighbours makes the candidate subgraph denser, so
      // this branch converges to the polynomial case fast and returns with
      // a near-optimal incumbent that then prunes the inclusion branch.
      // The child's candidate sets live in the next pooled frame — the
      // assignments below are word copies into retained arena capacity,
      // and the child inherits the parent's counts minus the excluded
      // vertex, so it starts without re-counting.
      //
      // On demand, the inclusion branch waits in `pending_` while the
      // exclusion child runs: this frame and the `a_`/`b_` prefixes are
      // untouched until the child returns, so the record stays a valid
      // snapshot, and a donated level returns instead of including.
      if constexpr (kOnDemand) {
        if (pending_.size() <= level) pending_.resize(level + 1);
        pending_[level] = {&ca,          &cb,       ca_count,
                           cb_count,     depth,     branch_side,
                           branch_vertex, a_.size(), b_.size(),
                           /*live=*/true, /*donated=*/false};
      }
      {
        SearchContext::BranchFrame& child = ctx_.Frame(level + 1);
        child.ca.CopyFrom(ca);
        child.cb.CopyFrom(cb);
        (branch_side == Side::kLeft ? child.ca : child.cb)
            .Reset(branch_vertex);
        const std::uint32_t child_ca =
            ca_count - (branch_side == Side::kLeft ? 1 : 0);
        const std::uint32_t child_cb =
            cb_count - (branch_side == Side::kRight ? 1 : 0);
        const bool aborted = Rec<kOnDemand>(child.ca, child.cb, child_ca,
                                            child_cb, depth + 1, level + 1);
        bool donated = false;
        if constexpr (kOnDemand) {
          pending_[level].live = false;
          donated = pending_[level].donated;
        }
        if (aborted) return true;
        if (donated) return false;
      }

      // Inclusion branch: continue in this frame. The candidate
      // refinement and its popcount happen in one fused sweep.
      if (branch_side == Side::kLeft) {
        a_.push_back(branch_vertex);
        ca.Reset(branch_vertex);
        --ca_count;
        cb_count = static_cast<std::uint32_t>(
            cb.AndCountAssign(g_.LeftRow(branch_vertex)));
      } else {
        b_.push_back(branch_vertex);
        cb.Reset(branch_vertex);
        --cb_count;
        ca_count = static_cast<std::uint32_t>(
            ca.AndCountAssign(g_.RightRow(branch_vertex)));
      }
      ++depth;
    }
  }

  /// Records (A ∪ ca, B ∪ cb) where one of `ca`, `cb` is empty: by the
  /// search invariant every candidate is adjacent to all fixed vertices
  /// across, so the other candidate set is absorbed at once. Returns true
  /// when the search is over: every call in target mode is a hit (the
  /// bound check passed), and target mode stops at its first.
  bool RecordLeaf(BitSpan ca, BitSpan cb) {
    ++stats_.leaves;
    Biclique candidate;
    candidate.left = a_;
    candidate.right = b_;
    ca.ForEach([&candidate](std::size_t u) {
      candidate.left.push_back(static_cast<VertexId>(u));
    });
    cb.ForEach([&candidate](std::size_t v) {
      candidate.right.push_back(static_cast<VertexId>(v));
    });
    if (target_mode_) {
      hit_ = true;
      best_ = std::move(candidate);
      return true;
    }
    if (candidate.BalancedSize() > best_size_) {
      RaiseBest(candidate.BalancedSize());
      own_best_size_ = best_size_;
      best_ = std::move(candidate);
      PublishSharedBound();
    }
    return false;
  }

  /// Forks one child of a branch node as a stealable task: the inclusion
  /// child (`include`) or, at the deepest spawn level, the exclusion child.
  /// The node's fixed sides are the first `a_size`/`b_size` entries of
  /// `a_`/`b_` (a donated node lies above the current one, which may have
  /// pushed more). The snapshot deep-copies the candidate sets — the fork
  /// outlives this frame — with the branch vertex dropped from its side;
  /// the inclusion child also fixes it and refines the opposite candidate
  /// side by its neighbourhood.
  void Fork(bool include, BitSpan ca, BitSpan cb, std::uint32_t ca_count,
            std::uint32_t cb_count, std::uint32_t depth, Side branch_side,
            VertexId branch_vertex, std::size_t a_size, std::size_t b_size) {
    SubtreeTask task;
    task.a.assign(a_.begin(), a_.begin() + a_size);
    task.b.assign(b_.begin(), b_.begin() + b_size);
    task.depth = depth + 1;
    // In deterministic mode `best_size_` never reflects concurrent finds,
    // so this snapshot — and with it the fork's whole traversal — is a pure
    // function of the task tree, independent of thread count.
    task.bound_snapshot = best_size_;
    task.path = path_;
    task.path.push_back(spawn_ordinal_++);
    task.spawner = worker_;
    task.AllocateSets(std::max(g_.num_left(), g_.num_right()));
    task.ca.CopyFrom(ca);
    task.cb.CopyFrom(cb);
    task.ca_count = ca_count;
    task.cb_count = cb_count;
    if (branch_side == Side::kLeft) {
      task.ca.Reset(branch_vertex);
      --task.ca_count;
      if (include) {
        task.a.push_back(branch_vertex);
        task.cb_count = static_cast<std::uint32_t>(
            task.cb.AndCountAssign(g_.LeftRow(branch_vertex)));
      }
    } else {
      task.cb.Reset(branch_vertex);
      --task.cb_count;
      if (include) {
        task.b.push_back(branch_vertex);
        task.ca_count = static_cast<std::uint32_t>(
            task.ca.AndCountAssign(g_.RightRow(branch_vertex)));
      }
    }
    ++stats_.tasks_spawned;
    Enqueue(std::move(task));
  }

  /// Forks the inclusion branch of the shallowest pending level that is
  /// not yet donated — the largest subtree this searcher has left — and
  /// marks it so its level returns after its exclusion child.
  void DonateShallowest() {
    for (PendingBranch& p : pending_) {
      if (!p.live || p.donated) continue;
      p.donated = true;
      Fork(/*include=*/true, *p.ca, *p.cb, p.ca_count, p.cb_count, p.depth,
           p.side, p.vertex, p.a_size, p.b_size);
      return;
    }
  }

  /// Hands a fork to the driver, and asks whether it wants one; defined
  /// once the driver is complete.
  void Enqueue(SubtreeTask task);
  bool Hungry() const;

  /// Adopts a tighter incumbent found by a concurrent searcher. The local
  /// `best_` biclique is not replaced — only its owner reports the global
  /// winner — but every bound prune from here on uses the shared size.
  void SyncSharedBound() {
    if (options_.shared_bound == nullptr) return;
    const std::uint32_t shared = options_.shared_bound->Load();
    if (shared > best_size_) RaiseBest(shared);
  }

  /// Balanced mode: a new incumbent size, found or adopted; a later
  /// biclique must beat it on both sides.
  void RaiseBest(std::uint32_t size) {
    best_size_ = size;
    need_a_ = size + 1;
    need_b_ = size + 1;
  }

  void PublishSharedBound() {
    if (options_.shared_bound != nullptr) {
      options_.shared_bound->RaiseTo(best_size_);
    }
  }

  bool LimitFired() {
    return stats_.RecordStop(options_.limits.CheckStop(stats_.recursions));
  }

  /// Maximum matching of the bipartite complement restricted to the
  /// candidate sets, via Kuhn's augmenting paths run on the bitsets: a
  /// left candidate's complement neighbours are `cb & ~LeftRow(u)`, read
  /// word by word, never listed. Stops as soon as `target` edges are
  /// matched (the caller only cares whether ν >= target). All working
  /// memory comes from the context's pooled matching scratch.
  std::uint32_t ComplementMatching(BitSpan ca, BitSpan cb,
                                   std::uint32_t target) {
    SearchContext::MatchingScratch& m = ctx_.matching();
    if (m.match_of_right.size() < g_.num_right()) {
      m.match_of_right.assign(g_.num_right(), -1);
    }
    std::uint32_t matched = 0;
    m.touched_right.clear();
    for (int u = ca.FindFirst(); u >= 0 && matched < target;
         u = ca.FindNext(static_cast<std::size_t>(u))) {
      m.unvisited.CopyFrom(cb);
      if (TryAugment(m, static_cast<VertexId>(u))) ++matched;
    }
    for (const VertexId v : m.touched_right) m.match_of_right[v] = -1;
    return matched;
  }

  // Augmenting-path DFS from left vertex `u` over complement adjacency.
  // `m.unvisited` holds the right candidates this search has not visited
  // yet; the next one to try is the lowest bit of `unvisited & ~N(u)`, so
  // right vertices are tried in ascending order and each at most once.
  bool TryAugment(SearchContext::MatchingScratch& m, VertexId u) {
    const std::uint64_t* row = g_.LeftRow(u).words();
    std::uint64_t* unvisited = m.unvisited.words();
    const std::size_t words = m.unvisited.word_count();
    for (std::size_t w = 0; w < words; ++w) {
      // Re-read the word after each recursion: deeper calls visit more.
      for (std::uint64_t bits; (bits = unvisited[w] & ~row[w]) != 0;) {
        const std::uint64_t lowest = bits & (~bits + 1);
        unvisited[w] &= ~lowest;
        const VertexId v =
            static_cast<VertexId>((w << 6) + __builtin_ctzll(lowest));
        if (m.match_of_right[v] < 0) {
          m.match_of_right[v] = static_cast<std::int32_t>(u);
          m.touched_right.push_back(v);
          return true;
        }
        if (TryAugment(m, static_cast<VertexId>(m.match_of_right[v]))) {
          m.match_of_right[v] = static_cast<std::int32_t>(u);
          return true;
        }
      }
    }
    return false;
  }

  const DenseSubgraph& g_;
  const DenseMbbOptions& options_;
  const bool target_mode_;
  std::uint32_t need_a_;
  std::uint32_t need_b_;
  /// Balanced mode's incumbent size (need_a_ = need_b_ = best_size_ + 1).
  std::uint32_t best_size_;
  /// Best size this searcher found itself (excluding adopted shared
  /// bounds); the gap to `best_size_` is what `shared_bound_prunes`
  /// attributes to concurrent workers.
  std::uint32_t own_best_size_;
  SearchContext& ctx_;
  std::vector<VertexId> a_;
  std::vector<VertexId> b_;
  Biclique best_;
  bool hit_ = false;
  SearchStats stats_;

  /// A branch node whose exclusion child is running and whose inclusion
  /// branch is still to come: the node's candidate rows (its pooled frame,
  /// untouched until the child returns), their counts, the branch, and
  /// the lengths of `a_`/`b_` at the node. `live` while the child runs;
  /// `donated` once the inclusion branch went to the driver.
  struct PendingBranch {
    const BitRow* ca;
    const BitRow* cb;
    std::uint32_t ca_count;
    std::uint32_t cb_count;
    std::uint32_t depth;
    Side side;
    VertexId vertex;
    std::size_t a_size;
    std::size_t b_size;
    bool live;
    bool donated;
  };

  // Subtree forking (EnableSplitting); null driver = plain sequential
  // search. `pending_` is indexed by recursion level and only kept on
  // demand.
  ParallelDenseDriver* driver_ = nullptr;
  std::size_t worker_ = 0;
  std::uint32_t spawn_depth_ = 0;
  bool on_demand_ = false;
  std::vector<PendingBranch> pending_;
  std::vector<std::uint32_t> path_;
  std::uint32_t spawn_ordinal_ = 0;
};

/// Default fork cutoff when `spawn_depth == 0`. Depends on the root
/// candidate count only — never on the thread count — so the task tree the
/// deterministic mode reduces over is invariant across `num_threads`. Small
/// instances resolve to 0 and run sequentially in either mode: the task
/// bookkeeping would cost more than the subtree it ships.
std::uint32_t AutoSpawnDepth(std::uint32_t num_candidates) {
  if (num_candidates < 64) return 0;
  std::uint32_t depth = 3;
  for (std::uint32_t c = num_candidates; c >= 512 && depth < 10; c >>= 1) {
    ++depth;
  }
  return depth;
}

/// A biclique recorded by one forked subtree, tagged with the subtree's
/// position for the deterministic reduce.
struct SubtreeRecord {
  Biclique best;
  std::uint32_t size = 0;
  std::vector<std::uint32_t> path;
};

/// Runs one denseMBB search as a work-stealing task graph: every fork lands
/// in the spawning worker's deque, idle workers steal the oldest (largest)
/// forks, and each task runs the unchanged sequential searcher over its
/// own pooled context. In the default mode a task forks only on demand —
/// while more workers are idle than donated tasks wait to start — and
/// tasks share the atomic incumbent. In deterministic mode the forks are
/// the fixed tree above `spawn_depth`, tasks prune against their fork-time
/// snapshot, and the reduce picks the earliest winner in sequential
/// depth-first order.
class ParallelDenseDriver {
 public:
  ParallelDenseDriver(const DenseSubgraph& g, const DenseMbbOptions& options,
                      std::uint32_t spawn_depth, std::size_t num_workers,
                      std::uint32_t initial_best)
      : g_(g),
        spawn_depth_(options.deterministic ? spawn_depth : 0),
        max_bits_(std::max(g.num_left(), g.num_right())),
        task_options_(options),
        local_bound_(initial_best),
        fleet_(task_options_.limits, num_workers),
        scheduler_(num_workers),
        workers_(num_workers) {
    task_options_.num_threads = 1;
    if (options.deterministic) {
      // Snapshot bounds only: a live shared incumbent would make each
      // task's traversal depend on concurrent timing.
      task_options_.shared_bound = nullptr;
    } else if (task_options_.shared_bound == nullptr) {
      task_options_.shared_bound = &local_bound_;
    }
  }

  MbbResult Solve(SubtreeTask root) {
    EnqueueTask(/*worker=*/0, std::move(root));
    scheduler_.Run();

    MbbResult out;
    out.exact = fleet_.Finish(out.stats);
    const SubtreeRecord* winner = nullptr;
    for (const WorkerState& ws : workers_) {
      for (const SubtreeRecord& record : ws.records) {
        if (winner == nullptr || record.size > winner->size ||
            (record.size == winner->size &&
             PathBefore(record.path, winner->path))) {
          winner = &record;
        }
      }
    }
    if (winner != nullptr) out.best = winner->best;
    return out;
  }

  void EnqueueTask(std::size_t worker, SubtreeTask task) {
    // std::function requires copyable callables, so the snapshot rides in
    // a shared_ptr; one allocation per fork is noise next to the subtree.
    auto boxed = std::make_shared<SubtreeTask>(std::move(task));
    unstarted_.fetch_add(1, std::memory_order_relaxed);
    scheduler_.Spawn(worker, [this, boxed](std::size_t executing_worker) {
      RunTask(executing_worker, *boxed);
    });
  }

  /// True while more workers are idle than forked tasks wait to start: a
  /// running search should give one of them work.
  bool Hungry() const {
    return scheduler_.idle_workers() >
           unstarted_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerState {
    SearchContext ctx;
    std::vector<SubtreeRecord> records;
  };

  void RunTask(std::size_t worker, SubtreeTask& task) {
    unstarted_.fetch_sub(1, std::memory_order_relaxed);
    MBB_INJECT_FAULT("worker.task",
                     throw std::runtime_error("injected fault: worker.task"));
    WorkerState& ws = workers_[worker];
    ws.ctx.PrepareFrames(max_bits_);
    std::uint32_t start_bound = task.bound_snapshot;
    if (task_options_.shared_bound != nullptr) {
      start_bound = std::max(start_bound, task_options_.shared_bound->Load());
    }
    DenseMbbSearcher searcher(g_, task_options_, start_bound, ws.ctx);
    std::vector<std::uint32_t> path = task.path;
    searcher.EnableSplitting(this, worker, spawn_depth_, std::move(task.path));
    SearchContext::BranchFrame& root = ws.ctx.Frame(0);
    root.ca.CopyFrom(task.ca);
    root.cb.CopyFrom(task.cb);
    MbbResult result =
        searcher.RunFrom(std::move(task.a), std::move(task.b), root,
                         task.ca_count, task.cb_count, task.depth);
    SearchStats& shard = fleet_.shard(worker);
    shard.Merge(result.stats);
    // A stolen fork; the root is no fork, whichever worker runs it.
    if (!path.empty() && worker != task.spawner) ++shard.tasks_stolen;
    // Sequential semantics: the first task to hit a limit aborts the whole
    // search, not just its own subtree. The incumbent found so far is
    // still reported, as in a timed-out sequential search.
    fleet_.Report(result);
    if (result.best.BalancedSize() > 0) {
      SubtreeRecord record;
      record.best = std::move(result.best);
      record.size = record.best.BalancedSize();
      record.path = std::move(path);
      ws.records.push_back(std::move(record));
    }
  }

  const DenseSubgraph& g_;
  /// Deterministic tree depth; 0 makes every searcher fork on demand.
  std::uint32_t spawn_depth_;
  std::size_t max_bits_;
  DenseMbbOptions task_options_;
  SharedBound local_bound_;
  FleetStop fleet_;
  StealScheduler scheduler_;
  std::vector<WorkerState> workers_;
  /// Enqueued tasks that no worker has started yet.
  std::atomic<std::size_t> unstarted_{0};
};

void DenseMbbSearcher::Enqueue(SubtreeTask task) {
  driver_->EnqueueTask(worker_, std::move(task));
}

bool DenseMbbSearcher::Hungry() const { return driver_->Hungry(); }

/// Decides between the sequential searcher and the work-stealing driver,
/// then runs the search from `root`. The deterministic mode routes through
/// the driver even at one worker so every thread count reduces the
/// identical task tree. A spawn depth of 0 (small roots under the auto
/// policy) keeps either mode sequential.
MbbResult SolveFromRoot(const DenseSubgraph& g, const DenseMbbOptions& options,
                        std::uint32_t initial_best, std::vector<VertexId> a,
                        std::vector<VertexId> b,
                        SearchContext::BranchFrame& root, SearchContext& ctx) {
  const std::uint32_t ca_count = static_cast<std::uint32_t>(root.ca.Count());
  const std::uint32_t cb_count = static_cast<std::uint32_t>(root.cb.Count());
  const std::uint32_t spawn_depth = options.spawn_depth != 0
                                        ? options.spawn_depth
                                        : AutoSpawnDepth(ca_count + cb_count);
  std::size_t workers = 1;
  if (options.num_threads != 1 && spawn_depth > 0) {
    // Upper-bound the useful worker count by the number of forks: the
    // deterministic tree has ~2^spawn_depth, while on-demand splitting can
    // keep forking down to single candidates.
    const std::size_t max_tasks =
        options.deterministic
            ? std::size_t{1} << std::min<std::uint32_t>(spawn_depth, 16)
            : std::size_t{ca_count} + cb_count;
    workers = EffectiveThreadCount(options.num_threads, max_tasks);
  }
  if (spawn_depth == 0 || (workers <= 1 && !options.deterministic)) {
    DenseMbbSearcher searcher(g, options, initial_best, ctx);
    return searcher.RunFrom(std::move(a), std::move(b), root, ca_count,
                            cb_count, /*depth=*/0);
  }
  SubtreeTask task;
  task.a = std::move(a);
  task.b = std::move(b);
  task.AllocateSets(std::max(g.num_left(), g.num_right()));
  task.ca.CopyFrom(root.ca);
  task.cb.CopyFrom(root.cb);
  task.ca_count = ca_count;
  task.cb_count = cb_count;
  task.depth = 0;
  task.bound_snapshot = initial_best;
  ParallelDenseDriver driver(g, options, spawn_depth, workers, initial_best);
  return driver.Solve(std::move(task));
}

/// Readies `ctx`'s frame pool for `g` and returns the root frame with
/// every vertex a candidate.
SearchContext::BranchFrame& WholeRoot(const DenseSubgraph& g,
                                      SearchContext& ctx) {
  ctx.PrepareFrames(std::max(g.num_left(), g.num_right()));
  SearchContext::BranchFrame& root = ctx.Frame(0);
  root.ca.Resize(g.num_left());
  root.ca.SetAll();
  root.cb.Resize(g.num_right());
  root.cb.SetAll();
  return root;
}

}  // namespace

MbbResult DenseMbbSolve(const DenseSubgraph& g, const DenseMbbOptions& options,
                        std::uint32_t initial_best, SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  return SolveFromRoot(g, options, initial_best, {}, {}, WholeRoot(g, ctx),
                       ctx);
}

MbbResult DenseMbbSolveAnchored(const DenseSubgraph& g, VertexId anchor,
                                const DenseMbbOptions& options,
                                std::uint32_t initial_best,
                                SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  SearchContext::BranchFrame& root = WholeRoot(g, ctx);
  root.ca.Reset(anchor);
  // B-side candidates are restricted to the anchor's neighbours so the
  // biclique invariant (every candidate adjacent to all fixed vertices)
  // holds from the start.
  root.cb.CopyFrom(g.LeftRow(anchor));
  return SolveFromRoot(g, options, initial_best, {anchor}, {}, root, ctx);
}

std::optional<Biclique> FindSizeConstrainedBiclique(
    const DenseSubgraph& g, std::uint32_t a, std::uint32_t b,
    const SearchLimits& limits, SearchStats* stats, SearchContext* context) {
  DenseMbbOptions options;
  options.limits = limits;
  options.use_poly_case = false;  // Lemma 3 maximises the balanced size
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  SearchContext::BranchFrame& root = WholeRoot(g, ctx);
  DenseMbbSearcher searcher(g, options, /*initial_best=*/0, ctx,
                            SizeTarget{a, b});
  MbbResult result = searcher.RunFrom({}, {}, root, g.num_left(),
                                      g.num_right(), /*depth=*/0);
  if (stats != nullptr) *stats = result.stats;
  if (!searcher.hit()) return std::nullopt;
  return std::move(result.best);
}

}  // namespace mbb
