#include "core/dense_mbb.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dynamic_mbb.h"
#include "engine/parallel.h"
#include "engine/search_context.h"
#include "graph/bitset.h"

namespace mbb {

namespace {

/// Snapshot of an inclusion branch forked at a shallow branch node: the
/// fixed sides, deep copies of the candidate sets (a forked subtree cannot
/// alias its spawner's pooled frames), and the spawner's incumbent at fork
/// time. `path` identifies the subtree's position in the task tree: the
/// spawner's path plus this fork's per-spawner ordinal.
struct SubtreeTask {
  std::vector<VertexId> a;
  std::vector<VertexId> b;
  Bitset ca;
  Bitset cb;
  std::uint32_t ca_count = 0;
  std::uint32_t cb_count = 0;
  std::uint32_t depth = 0;
  std::uint32_t bound_snapshot = 0;
  std::vector<std::uint32_t> path;
};

/// Where a splitting searcher hands forked subtrees. Decouples the searcher
/// from the scheduler so the sequential path pays nothing.
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  virtual void Fork(SubtreeTask task) = 0;
};

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

class DenseMbbSearcher {
 public:
  DenseMbbSearcher(const DenseSubgraph& g, const DenseMbbOptions& options,
                   std::uint32_t initial_best, SearchContext& context)
      : g_(g),
        options_(options),
        best_size_(initial_best),
        own_best_size_(initial_best),
        ctx_(context) {}

  /// Makes branch nodes at depth < `spawn_depth` fork their inclusion
  /// branch into `sink` instead of exploring it inline; at the deepest
  /// spawn level the exclusion branch is forked as well, so the searcher
  /// returns once both children are delegated. `path` is this searcher's
  /// own position in the task tree (empty for the root).
  void EnableSplitting(TaskSink* sink, std::uint32_t spawn_depth,
                       std::vector<std::uint32_t> path) {
    sink_ = sink;
    spawn_depth_ = spawn_depth;
    path_ = std::move(path);
  }

  /// `root` holds the initial candidate sets; deeper levels draw their
  /// scratch from the pooled context instead of allocating per branch.
  MbbResult Run(std::vector<VertexId> a, std::vector<VertexId> b,
                SearchContext::BranchFrame& root) {
    return RunFrom(std::move(a), std::move(b), root,
                   static_cast<std::uint32_t>(root.ca.Count()),
                   static_cast<std::uint32_t>(root.cb.Count()), /*depth=*/0);
  }

  /// Resumes a search mid-tree: a forked subtree re-enters here with its
  /// snapshot state and the depth it was forked at (the counts are carried
  /// in the task, so nothing is re-counted).
  MbbResult RunFrom(std::vector<VertexId> a, std::vector<VertexId> b,
                    SearchContext::BranchFrame& root, std::uint32_t ca_count,
                    std::uint32_t cb_count, std::uint32_t depth) {
    a_ = std::move(a);
    b_ = std::move(b);
    Rec(root.ca, root.cb, ca_count, cb_count, depth, /*level=*/0);
    MbbResult out;
    out.best = std::move(best_);
    out.best.MakeBalanced();
    out.stats = stats_;
    out.exact = !stats_.timed_out;
    return out;
  }

 private:
  // Returns true when the search must abort (limit fired). The exclusion
  // branch is a tail loop so stack depth only grows on inclusions. `ca`
  // and `cb` alias this level's pooled frame and are mutated in place;
  // `ca_count`/`cb_count` are their popcounts, threaded through the
  // recursion (the reduction loop maintains them and the fused
  // and-with-count kernel refreshes them on inclusion, so no branch node
  // ever re-counts a candidate set from scratch). `level` is the
  // recursion nesting level (± the tail loop, so it lags `depth`), which
  // indexes the context's frame pool.
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

      // Reduction to fixpoint (Lemmas 1 and 2), interleaved with the
      // bounding condition and leaf detection.
      while (true) {
        const std::uint32_t potential_a =
            static_cast<std::uint32_t>(a_.size()) + ca_count;
        const std::uint32_t potential_b =
            static_cast<std::uint32_t>(b_.size()) + cb_count;
        if (std::min(potential_a, potential_b) <= best_size_) {
          ++stats_.bound_prunes;
          // Attribute the cut when only a concurrently raised bound (not
          // this searcher's own incumbent) made it fire.
          if (std::min(potential_a, potential_b) > own_best_size_) {
            ++stats_.shared_bound_prunes;
          }
          return false;
        }
        if (ca_count == 0 || cb_count == 0) {
          RecordLeaf(ca, cb);
          return false;
        }
        if (!options_.use_reductions) break;

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
          if (du == cb_count) {
            a_.push_back(static_cast<VertexId>(u));
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            ++stats_.reduction_promoted;
            changed = true;
          } else if (static_cast<std::uint32_t>(b_.size()) + du <=
                     best_size_) {
            ca.Reset(static_cast<std::size_t>(u));
            --ca_count;
            ++stats_.reduction_removed;
            changed = true;
          }
          u = next;
        }
        // Right candidates.
        for (int v = cb.FindFirst(); v >= 0;) {
          const int next = cb.FindNext(static_cast<std::size_t>(v));
          if (next >= 0) g_.RightRow(static_cast<VertexId>(next)).Prefetch();
          const std::uint32_t dv = static_cast<std::uint32_t>(
              g_.RightRow(static_cast<VertexId>(v)).CountAnd(ca));
          if (dv == ca_count) {
            b_.push_back(static_cast<VertexId>(v));
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            ++stats_.reduction_promoted;
            changed = true;
          } else if (static_cast<std::uint32_t>(a_.size()) + dv <=
                     best_size_) {
            cb.Reset(static_cast<std::size_t>(v));
            --cb_count;
            ++stats_.reduction_removed;
            changed = true;
          }
          v = next;
        }
        if (!changed) break;
      }

      // The reduction loop exits either via return or with both candidate
      // sides non-empty; re-derive the branching information and collect
      // the candidate degree profiles for the feasibility bound.
      Side branch_side = Side::kLeft;
      VertexId branch_vertex = 0;
      std::uint32_t max_missing = 0;
      std::uint32_t nonfull_left = 0;
      std::uint32_t nonfull_right = 0;
      for (int u = ca.FindFirst(); u >= 0;) {
        const int next = ca.FindNext(static_cast<std::size_t>(u));
        if (next >= 0) g_.LeftRow(static_cast<VertexId>(next)).Prefetch();
        const std::uint32_t du = static_cast<std::uint32_t>(
            g_.LeftRow(static_cast<VertexId>(u)).CountAnd(cb));
        const std::uint32_t missing = cb_count - du;
        nonfull_left += missing > 0 ? 1 : 0;
        if (missing > max_missing) {
          max_missing = missing;
          branch_side = Side::kLeft;
          branch_vertex = static_cast<VertexId>(u);
        }
        u = next;
      }
      for (int v = cb.FindFirst(); v >= 0;) {
        const int next = cb.FindNext(static_cast<std::size_t>(v));
        if (next >= 0) g_.RightRow(static_cast<VertexId>(next)).Prefetch();
        const std::uint32_t dv = static_cast<std::uint32_t>(
            g_.RightRow(static_cast<VertexId>(v)).CountAnd(ca));
        const std::uint32_t missing = ca_count - dv;
        nonfull_right += missing > 0 ? 1 : 0;
        if (missing > max_missing) {
          max_missing = missing;
          branch_side = Side::kRight;
          branch_vertex = static_cast<VertexId>(v);
        }
        v = next;
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
      // The bound can only fire when ν reaches `needed`; ν is capped by
      // the number of non-fully-connected vertices per side, so the whole
      // computation is skipped when unreachable and aborted early once
      // `needed` is matched.
      if (options_.use_matching_bound) {
        const std::uint32_t numerator = static_cast<std::uint32_t>(
            a_.size() + b_.size()) + ca_count + cb_count;
        const std::uint32_t needed = numerator > 2 * best_size_
                                         ? numerator - 2 * best_size_
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
          best_size_ = best_.BalancedSize();
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

      // Shallow branch nodes fork the inclusion branch as a stealable task
      // and keep walking the exclusion spine inline — the same exploration
      // order as the sequential recursion when nothing is stolen (owner
      // pops are LIFO), but any idle worker can pick the fork up. At the
      // deepest spawn level the exclusion child is forked too instead of
      // walked inline, so the spine's own final subtree is stealable and
      // the task tree is the full binary tree of depth `spawn_depth_`
      // (<= 2^d - 1 tasks). Below `spawn_depth_` the recursion proceeds
      // sequentially, so the fused SIMD refinement loops below run exactly
      // as in the 1-thread build.
      if (sink_ != nullptr && depth < spawn_depth_) {
        ForkInclusion(ca, cb, ca_count, cb_count, depth, branch_side,
                      branch_vertex);
        ++stats_.tasks_spawned;
        if (depth + 1 == spawn_depth_) {
          // The exclusion fork gets the higher ordinal: sequential order
          // explores exclusion first, and PathBefore treats the higher
          // ordinal as sequentially earlier. Owner pops are LIFO, so the
          // owning worker also picks exclusion up first.
          ForkExclusion(ca, cb, ca_count, cb_count, depth, branch_side,
                        branch_vertex);
          ++stats_.tasks_spawned;
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
        if (Rec(child.ca, child.cb, child_ca, child_cb, depth + 1,
                level + 1)) {
          return true;
        }
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

  /// One candidate side is empty: by the search invariant every remaining
  /// candidate on the other side is adjacent to all fixed vertices, so the
  /// whole candidate set can be absorbed at once.
  void RecordLeaf(BitSpan ca, BitSpan cb) {
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
    if (candidate.BalancedSize() > best_size_) {
      best_size_ = candidate.BalancedSize();
      own_best_size_ = best_size_;
      best_ = std::move(candidate);
      PublishSharedBound();
    }
  }

  /// Builds the inclusion-branch snapshot for the current branch node and
  /// hands it to the sink. Deep copies: the fork outlives this frame.
  void ForkInclusion(const BitRow& ca, const BitRow& cb,
                     std::uint32_t ca_count, std::uint32_t cb_count,
                     std::uint32_t depth, Side branch_side,
                     VertexId branch_vertex) {
    SubtreeTask task;
    task.a = a_;
    task.b = b_;
    task.depth = depth + 1;
    // In deterministic mode `best_size_` never reflects concurrent finds,
    // so this snapshot — and with it the fork's whole traversal — is a pure
    // function of the task tree, independent of thread count.
    task.bound_snapshot = best_size_;
    task.path = path_;
    task.path.push_back(spawn_ordinal_++);
    if (branch_side == Side::kLeft) {
      task.a.push_back(branch_vertex);
      task.ca = Bitset(ca.Span());
      task.ca.Reset(branch_vertex);
      task.ca_count = ca_count - 1;
      task.cb = Bitset(cb.Span());
      task.cb_count = static_cast<std::uint32_t>(
          task.cb.Row().AndCountAssign(g_.LeftRow(branch_vertex)));
    } else {
      task.b.push_back(branch_vertex);
      task.cb = Bitset(cb.Span());
      task.cb.Reset(branch_vertex);
      task.cb_count = cb_count - 1;
      task.ca = Bitset(ca.Span());
      task.ca_count = static_cast<std::uint32_t>(
          task.ca.Row().AndCountAssign(g_.RightRow(branch_vertex)));
    }
    sink_->Fork(std::move(task));
  }

  /// Builds the exclusion-branch snapshot — the branch vertex dropped from
  /// its candidate side, nothing else refined — and hands it to the sink.
  /// Only used at the deepest spawn level, where the spine stops walking
  /// inline and delegates both children.
  void ForkExclusion(const BitRow& ca, const BitRow& cb,
                     std::uint32_t ca_count, std::uint32_t cb_count,
                     std::uint32_t depth, Side branch_side,
                     VertexId branch_vertex) {
    SubtreeTask task;
    task.a = a_;
    task.b = b_;
    task.depth = depth + 1;
    task.bound_snapshot = best_size_;
    task.path = path_;
    task.path.push_back(spawn_ordinal_++);
    task.ca = Bitset(ca.Span());
    task.cb = Bitset(cb.Span());
    (branch_side == Side::kLeft ? task.ca : task.cb).Reset(branch_vertex);
    task.ca_count = ca_count - (branch_side == Side::kLeft ? 1 : 0);
    task.cb_count = cb_count - (branch_side == Side::kRight ? 1 : 0);
    sink_->Fork(std::move(task));
  }

  /// Adopts a tighter incumbent found by a concurrent searcher. The local
  /// `best_` biclique is not replaced — only its owner reports the global
  /// winner — but every bound prune from here on uses the shared size.
  void SyncSharedBound() {
    if (options_.shared_bound == nullptr) return;
    const std::uint32_t shared = options_.shared_bound->Load();
    if (shared > best_size_) best_size_ = shared;
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
  /// candidate sets, via Kuhn's augmenting paths. Only vertices that miss
  /// at least one cross neighbour participate. Stops as soon as `target`
  /// edges are matched (the caller only cares whether ν >= target). All
  /// working memory comes from the context's pooled matching scratch.
  std::uint32_t ComplementMatching(BitSpan ca, BitSpan cb,
                                   std::uint32_t target) {
    SearchContext::MatchingScratch& m = ctx_.matching();
    if (m.match_of_right.size() < g_.num_right()) {
      m.match_of_right.assign(g_.num_right(), -1);
      m.seen.assign(g_.num_right(), 0);
    }
    m.BeginRound();
    for (int u = ca.FindFirst(); u >= 0; u = ca.FindNext(u)) {
      // missing = cb \ N(u), built in one fused sweep.
      m.missing.AssignAndNot(cb, g_.LeftRow(static_cast<VertexId>(u)));
      if (m.missing.None()) continue;
      m.left.push_back(static_cast<VertexId>(u));
      std::vector<std::uint32_t>& row = m.NextRow();
      m.missing.ForEach([&row](std::size_t v) {
        row.push_back(static_cast<std::uint32_t>(v));
      });
    }

    std::uint32_t matched = 0;
    m.touched_right.clear();
    for (std::size_t i = 0; i < m.left.size() && matched < target; ++i) {
      ++m.round;
      if (TryAugment(m, i)) ++matched;
    }
    for (const VertexId v : m.touched_right) m.match_of_right[v] = -1;
    return matched;
  }

  // Augmenting-path DFS over complement adjacency; `m.round` stamps
  // visited right vertices.
  bool TryAugment(SearchContext::MatchingScratch& m, std::size_t left_index) {
    for (const std::uint32_t v : m.adj[left_index]) {
      if (m.seen[v] == m.round) continue;
      m.seen[v] = m.round;
      if (m.match_of_right[v] < 0) {
        m.match_of_right[v] = static_cast<std::int32_t>(left_index);
        m.touched_right.push_back(static_cast<VertexId>(v));
        return true;
      }
      if (TryAugment(m, static_cast<std::size_t>(m.match_of_right[v]))) {
        m.match_of_right[v] = static_cast<std::int32_t>(left_index);
        return true;
      }
    }
    return false;
  }

  const DenseSubgraph& g_;
  const DenseMbbOptions& options_;
  std::uint32_t best_size_;
  /// Best size this searcher found itself (excluding adopted shared
  /// bounds); the gap to `best_size_` is what `shared_bound_prunes`
  /// attributes to concurrent workers.
  std::uint32_t own_best_size_;
  SearchContext& ctx_;
  std::vector<VertexId> a_;
  std::vector<VertexId> b_;
  Biclique best_;
  SearchStats stats_;

  // Subtree forking (EnableSplitting); null sink = plain sequential search.
  TaskSink* sink_ = nullptr;
  std::uint32_t spawn_depth_ = 0;
  std::vector<std::uint32_t> path_;
  std::uint32_t spawn_ordinal_ = 0;
};

/// Default fork cutoff when `spawn_depth == 0`. Depends on the root
/// candidate count only — never on the thread count — so the task tree the
/// deterministic mode reduces over is invariant across `num_threads`. Small
/// instances resolve to 0: the task bookkeeping would cost more than the
/// subtree it ships.
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

/// Runs one denseMBB search as a work-stealing task graph: every fork made
/// above `spawn_depth` lands in the spawning worker's deque, idle workers
/// steal the oldest (largest) forks, and each task runs the unchanged
/// sequential searcher over its own pooled context. In the default mode
/// tasks share the atomic incumbent; in deterministic mode they prune
/// against their fork-time snapshot and the reduce picks the earliest
/// winner in sequential depth-first order.
class ParallelDenseDriver {
 public:
  ParallelDenseDriver(const DenseSubgraph& g, const DenseMbbOptions& options,
                      std::uint32_t spawn_depth, std::size_t num_workers,
                      std::uint32_t initial_best)
      : g_(g),
        spawn_depth_(spawn_depth),
        max_bits_(std::max(g.num_left(), g.num_right())),
        local_bound_(initial_best),
        scheduler_(num_workers),
        workers_(num_workers) {
    task_options_ = options;
    task_options_.num_threads = 1;
    if (options.deterministic) {
      // Snapshot bounds only: a live shared incumbent would make each
      // task's traversal depend on concurrent timing.
      task_options_.shared_bound = nullptr;
    } else if (task_options_.shared_bound == nullptr) {
      task_options_.shared_bound = &local_bound_;
    }
    if (task_options_.limits.stop_token == nullptr) {
      // All tasks must share one token so the first limit observation
      // stops the whole fleet, exactly like the verify fan-out.
      task_options_.limits.stop_token = std::make_shared<StopToken>();
    }
  }

  MbbResult Solve(SubtreeTask root) {
    EnqueueTask(/*worker=*/0, std::move(root));
    scheduler_.Run();

    MbbResult out;
    const SubtreeRecord* winner = nullptr;
    for (WorkerState& ws : workers_) {
      out.stats.Merge(ws.stats);
      for (const SubtreeRecord& record : ws.records) {
        if (winner == nullptr || record.size > winner->size ||
            (record.size == winner->size &&
             PathBefore(record.path, winner->path))) {
          winner = &record;
        }
      }
    }
    if (winner != nullptr) out.best = winner->best;
    out.stats.tasks_stolen = scheduler_.tasks_stolen();
    out.exact = !out.stats.timed_out;
    return out;
  }

 private:
  struct WorkerState {
    SearchContext ctx;
    SearchStats stats;
    std::vector<SubtreeRecord> records;
  };

  /// Per-execution adapter giving the searcher a worker-indexed Fork.
  struct WorkerSink final : TaskSink {
    ParallelDenseDriver* driver = nullptr;
    std::size_t worker = 0;
    void Fork(SubtreeTask task) override {
      driver->EnqueueTask(worker, std::move(task));
    }
  };

  void EnqueueTask(std::size_t worker, SubtreeTask task) {
    // std::function requires copyable callables, so the snapshot rides in
    // a shared_ptr; one allocation per fork is noise next to the subtree.
    auto boxed = std::make_shared<SubtreeTask>(std::move(task));
    scheduler_.Spawn(worker, [this, boxed](std::size_t executing_worker) {
      RunTask(executing_worker, *boxed);
    });
  }

  void RunTask(std::size_t worker, SubtreeTask& task) {
    WorkerState& ws = workers_[worker];
    ws.ctx.PrepareFrames(max_bits_);
    std::uint32_t start_bound = task.bound_snapshot;
    if (task_options_.shared_bound != nullptr) {
      start_bound = std::max(start_bound, task_options_.shared_bound->Load());
    }
    DenseMbbSearcher searcher(g_, task_options_, start_bound, ws.ctx);
    WorkerSink sink;
    sink.driver = this;
    sink.worker = worker;
    std::vector<std::uint32_t> path = task.path;
    searcher.EnableSplitting(&sink, spawn_depth_, std::move(task.path));
    SearchContext::BranchFrame& root = ws.ctx.Frame(0);
    root.ca.CopyFrom(task.ca.Span());
    root.cb.CopyFrom(task.cb.Span());
    MbbResult result =
        searcher.RunFrom(std::move(task.a), std::move(task.b), root,
                         task.ca_count, task.cb_count, task.depth);
    ws.stats.Merge(result.stats);
    if (!result.exact) {
      // Sequential semantics: the first task to hit a limit aborts the
      // whole search, not just its own subtree. The incumbent found so far
      // is still reported below, as in a timed-out sequential search.
      const StopCause cause = result.stats.stop_cause != StopCause::kNone
                                  ? result.stats.stop_cause
                                  : StopCause::kExternal;
      task_options_.limits.stop_token->RequestStop(cause);
    }
    if (result.best.BalancedSize() > 0) {
      SubtreeRecord record;
      record.best = std::move(result.best);
      record.size = record.best.BalancedSize();
      record.path = std::move(path);
      ws.records.push_back(std::move(record));
    }
  }

  const DenseSubgraph& g_;
  std::uint32_t spawn_depth_;
  std::size_t max_bits_;
  DenseMbbOptions task_options_;
  SharedBound local_bound_;
  StealScheduler scheduler_;
  std::vector<WorkerState> workers_;
};

/// Decides between the sequential searcher and the work-stealing driver,
/// then runs the search from `root`. The deterministic mode routes through
/// the driver even at one worker so every thread count reduces the
/// identical task tree.
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
    // Upper-bound the useful worker count by the fork capacity of the
    // shallow region (one fork per spine node, ~2^spawn_depth total).
    const std::size_t max_tasks = std::size_t{1}
                                  << std::min<std::uint32_t>(spawn_depth, 16);
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
  task.ca = Bitset(root.ca.Span());
  task.cb = Bitset(root.cb.Span());
  task.ca_count = ca_count;
  task.cb_count = cb_count;
  task.depth = 0;
  task.bound_snapshot = initial_best;
  ParallelDenseDriver driver(g, options, spawn_depth, workers, initial_best);
  return driver.Solve(std::move(task));
}

}  // namespace

MbbResult DenseMbbSolve(const DenseSubgraph& g, const DenseMbbOptions& options,
                        std::uint32_t initial_best, SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  ctx.PrepareFrames(std::max(g.num_left(), g.num_right()));
  SearchContext::BranchFrame& root = ctx.Frame(0);
  root.ca.Resize(g.num_left());
  root.ca.SetAll();
  root.cb.Resize(g.num_right());
  root.cb.SetAll();
  return SolveFromRoot(g, options, initial_best, {}, {}, root, ctx);
}

MbbResult DenseMbbSolveAnchored(const DenseSubgraph& g, VertexId anchor,
                                const DenseMbbOptions& options,
                                std::uint32_t initial_best,
                                SearchContext* context) {
  SearchContext transient;
  SearchContext& ctx = context != nullptr ? *context : transient;
  ctx.PrepareFrames(std::max(g.num_left(), g.num_right()));
  SearchContext::BranchFrame& root = ctx.Frame(0);
  root.ca.Resize(g.num_left());
  root.ca.SetAll();
  root.ca.Reset(anchor);
  // B-side candidates are restricted to the anchor's neighbours so the
  // biclique invariant (every candidate adjacent to all fixed vertices)
  // holds from the start.
  root.cb.CopyFrom(g.LeftRow(anchor));
  return SolveFromRoot(g, options, initial_best, {anchor}, {}, root, ctx);
}

}  // namespace mbb
