#ifndef MBB_ENGINE_PARALLEL_H_
#define MBB_ENGINE_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/stats.h"
#include "engine/search_context.h"

namespace mbb {

/// Number of workers actually used for `num_items` work items when the
/// caller asked for `requested` threads (0 = one per hardware thread).
/// Never more workers than items and never fewer than one.
std::size_t EffectiveThreadCount(std::size_t requested, std::size_t num_items);

/// Fans items `[0, num_items)` out over `num_threads` workers (clamped via
/// `EffectiveThreadCount`) with dynamic scheduling: one claim loop per
/// worker runs on a `StealScheduler`, and the loops claim items in index
/// order from a shared atomic counter, so a run of cheap items never leaves
/// a worker idle while a neighbour grinds through an expensive one.
/// `fn(worker, item)` runs exactly once per item, and the `worker.task`
/// fault point fires once per item; `worker < EffectiveThreadCount(...)`
/// identifies the calling worker so per-worker state (scratch contexts,
/// stats shards) needs no locking. Worker 0 is the caller's thread; with
/// one effective worker every item runs inline, in order, on the caller.
/// The first exception thrown by `fn` is rethrown on the caller after all
/// workers have joined (that worker stops claiming items; the others drain
/// the rest).
void ParallelFor(std::size_t num_threads, std::size_t num_items,
                 const std::function<void(std::size_t, std::size_t)>& fn);

/// One worker's end of the work-stealing layer: a double-ended task queue
/// where the owning worker pushes and pops at the bottom (LIFO — depth-first
/// order, so an unstolen subtree unwinds exactly like the sequential
/// recursion) while thieves take from the top (FIFO — the shallowest, i.e.
/// largest, subtrees migrate, which keeps steals rare and coarse).
///
/// Tasks here are whole branch-and-bound subtrees (milliseconds to seconds),
/// so the deque is guarded by a plain mutex: the lock is contended for
/// nanoseconds per task, is immune to the ABA/fence subtleties of lock-free
/// deques, and is trivially clean under TSan.
class StealDeque {
 public:
  using Task = std::function<void(std::size_t)>;  // argument: executing worker

  /// Owner only.
  void PushBottom(Task task);
  /// Owner only; newest task first. Returns false when empty.
  bool PopBottom(Task& out);
  /// Any thread; oldest task first. Returns false when empty.
  bool StealTop(Task& out);

 private:
  std::mutex mutex_;
  std::deque<Task> tasks_;
};

/// The engine's one executor: one deque per worker, random-victim
/// stealing, and an atomic outstanding-task counter for termination. It is
/// the only place outside the serve layer that starts solve threads —
/// `ParallelFor` scans and denseMBB subtree forks both run on it. `Run()`
/// starts workers 1..n-1 and installs the caller's `MemoryBudget` in each,
/// so one solve meters against one budget at any fan-out. The caller is
/// worker 0 and participates in the loop; with one worker no threads are
/// spawned and tasks run inline in pure LIFO (= sequential depth-first)
/// order — which is what makes the deterministic search mode exercise the
/// identical code path at every thread count.
///
/// Usage: `Spawn(w, root)` one or more root tasks, then `Run()`. Before
/// `Run()` the caller may seed any worker's deque (`ParallelFor` gives each
/// worker its own claim loop); tasks may only call `Spawn(worker, child)`
/// with the worker index they were invoked with. `Run()` returns
/// once every task (including transitively spawned ones) has finished; the
/// first exception thrown by a task is rethrown on the caller after all
/// workers have drained.
class StealScheduler {
 public:
  using Task = StealDeque::Task;

  explicit StealScheduler(std::size_t num_workers);

  /// Enqueues `task` on `worker`'s deque. Safe before `Run()` (from the
  /// caller, onto any worker) and from inside a running task (with the
  /// invoking worker's index).
  void Spawn(std::size_t worker, Task task);

  /// Runs until all outstanding tasks have completed. Must be called once,
  /// from the thread that owns worker 0. If a worker thread fails to start
  /// (`std::system_error`, or the `worker.start` fault point), no later one
  /// is started either; the started workers steal its seeded tasks, so
  /// every task still runs exactly once.
  void Run();

  std::size_t num_workers() const { return deques_.size(); }
  /// Workers that found neither a local nor a stealable task on their last
  /// look and are waiting for one. A running task reads it (relaxed) to
  /// decide whether to split off work; 0 once `Run()` has returned.
  std::size_t idle_workers() const {
    return idle_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(std::size_t worker);
  bool TrySteal(std::size_t thief, std::uint64_t& rng, Task& out);
  void Execute(std::size_t worker, Task& task);

  std::vector<StealDeque> deques_;
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> idle_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// The stop protocol every parallel fan-out follows — `IncumbentScan` and
/// the denseMBB subtree driver:
///
/// 1. one `StopToken` for the whole fleet: the caller's, or a fresh one
///    installed into the fleet's `SearchLimits` when the caller passed
///    none, so the first worker whose clock poll sees the deadline stops
///    every other worker at its next limit check;
/// 2. the first inexact result — whatever its cause — trips the token
///    (falling back to `kExternal` when the search recorded none), so a
///    per-search recursion cap aborts the fleet the way it aborts the
///    sequential search instead of turning into many capped searches;
/// 3. per-worker `SearchStats` shards, merged after the join, with
///    `stop_cause` taken from the token when no shard recorded one.
class FleetStop {
 public:
  /// Installs a fresh token into `limits` when it carries none; `limits`
  /// is the copy every worker's searches use.
  FleetStop(SearchLimits& limits, std::size_t num_workers);

  /// `worker`'s stats shard; only that worker touches it until `Finish`.
  SearchStats& shard(std::size_t worker) { return shards_[worker]; }

  /// True once the fleet is stopping. Work claimed after that is counted
  /// in `worker`'s shard as skipped and makes the run inexact.
  bool SkipIfStopped(std::size_t worker);

  /// Records one search's outcome; an inexact one stops the fleet.
  void Report(const MbbResult& result);

  /// Merges the shards into `out` (after the join) and returns whether
  /// every search ran to completion; when not, `out` is marked timed out.
  bool Finish(SearchStats& out) const;

 private:
  std::shared_ptr<StopToken> token_;
  std::vector<SearchStats> shards_;
  std::atomic<bool> inexact_{false};
};

/// The incumbent scan of bridgeMBB's centres (Algorithm 6), verifyMBB's
/// survivors (Algorithm 8) and FMBE's scopes: take items in order, prune
/// each against the incumbent |A*|, search it, and raise |A*|. The call
/// site supplies the per-item work and its result slots; every rule the
/// scans share lives here.
///
/// - Workers: `EffectiveThreadCount` of them on `ParallelFor`, each with
///   its own `Worker` state, `SearchContext` and stats shard. Worker 0 is
///   the caller's thread and uses the caller's context when one is passed.
/// - Stopping: one `FleetStop`. Before each item the deadline (read only
///   when one is set) and then the token are checked; a stopped scan
///   counts every later item in `subgraphs_skipped`. The watchdog
///   heartbeat (`StopToken::Touch`) is left to the searches: one shared
///   counter bumped per item would bounce between the workers.
/// - The bound: an item prunes against the live `SharedBound`, or, with
///   `deterministic` and several workers, against the frozen incoming
///   bound, so no item's work depends on worker timing (one worker's live
///   bound already does not).
/// - The reduce: the winner is the first item, in index order, with a
///   strictly larger improvement. Each improvement raises the shared bound
///   unless it is frozen.
///
/// Pruning against any bound between the incoming and the final incumbent
/// is sound, and whoever first raises the bound to the maximum recorded its
/// improvement, so the best size is the same at any worker count.
template <typename Worker>
class IncumbentScan {
 public:
  /// What the per-item function gets. `bound` is the incumbent the item
  /// prunes against and `stats` the worker's shard; an anchored search
  /// reports its outcome to `fleet`, and an inexact one stops the scan.
  struct Item {
    std::size_t index;
    std::uint32_t bound;
    Worker& state;
    SearchContext& ctx;
    SearchStats& stats;
    FleetStop& fleet;
  };

  IncumbentScan(const SearchLimits& limits, std::uint32_t num_threads,
                bool deterministic, std::size_t num_items,
                std::uint32_t initial_best, SearchContext* context)
      : limits_(limits),
        num_workers_(EffectiveThreadCount(num_threads, num_items)),
        frozen_(deterministic && num_workers_ > 1),
        initial_best_(initial_best),
        context_(context),
        bound_(initial_best),
        fleet_(limits_, num_workers_),
        workers_(num_workers_),
        improvements_(num_items, 0) {}

  std::size_t num_workers() const { return num_workers_; }
  /// The caller's limits with the scan's stop token installed.
  const SearchLimits& limits() const { return limits_; }
  /// The live bound for searches that share it mid-search; null with one
  /// worker or when frozen.
  SharedBound* shared_bound() {
    return num_workers_ > 1 && !frozen_ ? &bound_ : nullptr;
  }

  /// Runs `fn(Item&)` once per item not skipped; `fn` returns the balanced
  /// size of the improvement it stored in its result slot, 0 for none.
  /// Merges the shards into `stats`; returns whether no limit fired.
  template <typename Fn>
  bool Run(Fn&& fn, SearchStats& stats) {
    ParallelFor(num_workers_, improvements_.size(),
                [&](std::size_t worker, std::size_t index) {
                  if (limits_.DeadlinePassed()) {
                    limits_.stop_token->RequestStop(StopCause::kDeadline);
                  }
                  if (fleet_.SkipIfStopped(worker)) return;
                  Slot& slot = workers_[worker];
                  Item item{index,
                            frozen_ ? initial_best_ : bound_.Load(),
                            slot.state,
                            worker == 0 && context_ != nullptr ? *context_
                                                               : slot.ctx,
                            fleet_.shard(worker),
                            fleet_};
                  improvements_[index] = fn(item);
                  if (!frozen_) bound_.RaiseTo(improvements_[index]);
                });
    return fleet_.Finish(stats);
  }

  /// After `Run`: the winning item, or the item count when none improved.
  std::size_t Winner() const {
    std::size_t winner = improvements_.size();
    std::uint32_t best = initial_best_;
    for (std::size_t i = 0; i < improvements_.size(); ++i) {
      if (improvements_[i] > best) {
        best = improvements_[i];
        winner = i;
      }
    }
    return winner;
  }

 private:
  struct Slot {
    Worker state;
    SearchContext ctx;
  };

  SearchLimits limits_;
  const std::size_t num_workers_;
  const bool frozen_;
  const std::uint32_t initial_best_;
  SearchContext* const context_;
  SharedBound bound_;
  FleetStop fleet_;
  std::vector<Slot> workers_;
  std::vector<std::uint32_t> improvements_;
};

}  // namespace mbb

#endif  // MBB_ENGINE_PARALLEL_H_
