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

  std::size_t Size() const;

 private:
  mutable std::mutex mutex_;
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
  /// Total tasks enqueued via Spawn.
  std::uint64_t tasks_spawned() const {
    return spawned_.load(std::memory_order_relaxed);
  }
  /// Tasks that executed on a worker other than the one that spawned them.
  std::uint64_t tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }
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
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::size_t> idle_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// The stop protocol every parallel fan-out follows — the verify survivor
/// scan, the FMBE scope scan and the denseMBB subtree driver:
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

}  // namespace mbb

#endif  // MBB_ENGINE_PARALLEL_H_
