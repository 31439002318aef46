#ifndef MBB_CORE_STATS_H_
#define MBB_CORE_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "graph/biclique.h"

namespace mbb {

/// Why a cooperative limit check told a searcher to abort.
enum class StopCause : std::uint8_t {
  kNone = 0,
  /// The wall-clock deadline passed.
  kDeadline = 1,
  /// `SearchLimits::max_recursions` was exceeded (per-search budget).
  kRecursionCap = 2,
  /// A shared stop token was tripped by another party (a sibling worker,
  /// a watcher thread, or an external cancellation).
  kExternal = 3,
  /// A per-solve memory budget refused an allocation (or a real
  /// `bad_alloc` surfaced) and the solve unwound to its best incumbent.
  kResourceExhausted = 4,
};

/// Race-safe cancellation flag shared by concurrent searchers. One party
/// requests a stop (typically the first worker to observe the deadline)
/// and every searcher polling the same token aborts at its next limit
/// check, so a fleet of parallel workers observes one consistent stop
/// instead of each reading the clock on its own schedule.
///
/// All members are atomics; `RequestStop` publishes the cause before the
/// flag (release) and `cause()` reads behind an acquire load, so a reader
/// that sees the flag also sees why it was set. First cause wins.
class StopToken {
 public:
  bool StopRequested() const {
    return stopped_.load(std::memory_order_acquire);
  }

  void RequestStop(StopCause cause) {
    std::uint8_t expected = 0;
    cause_.compare_exchange_strong(expected, static_cast<std::uint8_t>(cause),
                                   std::memory_order_relaxed);
    stopped_.store(true, std::memory_order_release);
  }

  /// The first cause passed to `RequestStop`; kNone while not stopped.
  StopCause cause() const {
    if (!StopRequested()) return StopCause::kNone;
    return static_cast<StopCause>(cause_.load(std::memory_order_relaxed));
  }

  /// Heartbeat stamped by `SearchLimits::CheckStop` at each poll boundary.
  /// A watchdog that sees the token tripped but wants to distinguish "the
  /// solver is unwinding" from "the solver stopped observing its token"
  /// reads this counter: advancing polls mean the solver is still alive in
  /// instrumented code.
  void Touch() { polls_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t polls() const {
    return polls_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint8_t> cause_{0};
  std::atomic<std::uint64_t> polls_{0};
};

/// Monotone atomic balanced-size bound shared by concurrent searchers: a
/// biclique found by one worker immediately tightens every other worker's
/// pruning. Only the size crosses threads (the bicliques themselves stay
/// worker-local until the final reduce), so relaxed ordering is sound —
/// the bound is advisory and never decreases.
class SharedBound {
 public:
  explicit SharedBound(std::uint32_t initial = 0) : value_(initial) {}

  std::uint32_t Load() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the bound to at least `candidate`; returns the resulting value
  /// (which may exceed `candidate` if another worker got there first).
  std::uint32_t RaiseTo(std::uint32_t candidate) {
    std::uint32_t current = value_.load(std::memory_order_relaxed);
    while (current < candidate &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
    return current < candidate ? candidate : current;
  }

 private:
  std::atomic<std::uint32_t> value_;
};

/// Resource limits shared by every exact searcher in the library. Searches
/// poll the deadline cooperatively (every few thousand recursions), so
/// overshoot is bounded; when several searches run concurrently they share
/// a `StopToken` so one deadline observation stops the whole fleet.
struct SearchLimits {
  /// Every searcher polls the wall-clock deadline once per
  /// `kDeadlinePollInterval` recursions (a power of two, so the check
  /// compiles to a mask). One shared constant keeps the overshoot bound
  /// uniform across the library instead of per-file magic numbers.
  static constexpr std::uint64_t kDeadlinePollInterval = 1024;
  static_assert((kDeadlinePollInterval & (kDeadlinePollInterval - 1)) == 0,
                "poll interval must be a power of two");

  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  /// 0 means unlimited. Mainly used by tests for failure injection.
  std::uint64_t max_recursions = 0;
  /// Optional shared stop token. When set, every limit check also observes
  /// the token (a relaxed atomic load — checked on every call, not just at
  /// poll boundaries, so a stop propagates promptly), and the first
  /// searcher whose clock poll sees the deadline trips the token for
  /// everyone sharing it. Null means no shared stop: every parallel
  /// fan-out installs one through `FleetStop` (engine/parallel.h) when the
  /// caller passes none. A token never changes the `kDeadlinePollInterval`
  /// clock polling; it only adds the flag check.
  std::shared_ptr<StopToken> stop_token;

  static SearchLimits None() { return {}; }

  static SearchLimits FromSeconds(double seconds) {
    SearchLimits limits;
    limits.has_deadline = true;
    limits.deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(seconds));
    return limits;
  }

  bool DeadlinePassed() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// The shared cooperative limit check with its cause: kNone while the
  /// search may continue, otherwise why it must abort — `max_recursions`
  /// exceeded, the shared stop token tripped, or the deadline passed
  /// (polled every `kDeadlinePollInterval` recursions). Observing the
  /// deadline trips the stop token (when present) so concurrent searchers
  /// sharing it stop consistently.
  StopCause CheckStop(std::uint64_t recursions) const {
    if (max_recursions != 0 && recursions > max_recursions) {
      return StopCause::kRecursionCap;
    }
    if (stop_token != nullptr && stop_token->StopRequested()) {
      const StopCause cause = stop_token->cause();
      return cause == StopCause::kNone ? StopCause::kExternal : cause;
    }
    if ((recursions & (kDeadlinePollInterval - 1)) == 1) {
      // Poll boundary: stamp the watchdog heartbeat even without a
      // deadline, then do the (comparatively costly) clock read.
      if (stop_token != nullptr) stop_token->Touch();
      if (has_deadline && DeadlinePassed()) {
        if (stop_token != nullptr) {
          stop_token->RequestStop(StopCause::kDeadline);
        }
        return StopCause::kDeadline;
      }
    }
    return StopCause::kNone;
  }
};

/// Execution policy of a solve: the same four settings for every phase
/// that takes them (`DenseMbbOptions`, `HbvOptions` and `BridgeOptions`
/// inherit it), so a policy is copied between phases by one assignment.
/// Algorithm knobs — ablation switches, orders, greedy tuning — stay in
/// the derived structs.
struct ExecPolicy {
  /// Deadline, recursion cap and stop token. Branch-and-bound searches
  /// poll them every `kDeadlinePollInterval` recursions; the incumbent
  /// scans (`IncumbentScan`, engine/parallel.h) check the token and
  /// deadline before each item.
  SearchLimits limits;
  /// Worker threads: 1 = sequential on the caller's thread, 0 = one per
  /// hardware thread. They run denseMBB's work-stealing subtree layer,
  /// step 2's centre scan and step 3's survivor fan-out (whose single
  /// worker hands them to the anchored search's subtree layer instead).
  std::uint32_t num_threads = 1;
  /// Depth of denseMBB's deterministic task tree: with `deterministic`,
  /// branch nodes above it fork their inclusion branch as a stealable
  /// task. 0 = auto from the root candidate count (never from
  /// `num_threads`, so the tree is thread-count-invariant); small
  /// instances resolve to 0 and stay sequential. Without `deterministic`
  /// denseMBB forks on demand, when a worker goes idle, and the depth
  /// only switches the task layer on (non-zero) or off (0). Phases
  /// without a subtree layer ignore it.
  std::uint32_t spawn_depth = 0;
  /// Thread-count-invariant results. Forked subtrees prune against their
  /// spawner's incumbent snapshot instead of the live shared bound, and
  /// every reduce picks the winner that comes first in sequential order;
  /// the incumbent scans of step 2, step 3 and FMBE apply this rule once,
  /// in `IncumbentScan` (engine/parallel.h). The returned biclique — and
  /// the scans' counters — are then identical at every thread count, at
  /// the cost of fewer cross-worker prunes. Without it only the best size
  /// is invariant.
  bool deterministic = false;
};

/// Counters recorded by the searches. Powers the paper's Figure 5 (average
/// search depth) and the breakdown experiments, and doubles as the
/// RocksDB-style statistics object for diagnosing pruning behaviour.
struct SearchStats {
  std::uint64_t recursions = 0;
  std::uint64_t leaves = 0;
  std::uint64_t bound_prunes = 0;
  std::uint64_t reduction_removed = 0;    // Lemma 2 deletions
  std::uint64_t reduction_promoted = 0;   // Lemma 1 promotions
  std::uint64_t poly_cases = 0;           // Algorithm 2 dispatches
  std::uint64_t matching_prunes = 0;      // König-bound cuts (denseMBB)
  std::uint64_t depth_sum = 0;            // summed over recursion entries
  std::uint64_t max_depth = 0;

  // Work-stealing subtree parallelism (denseMBB with num_threads > 1).
  /// Subtrees forked as tasks: the deterministic tree above spawn_depth,
  /// or, by default, the pending branches donated to idle workers (a
  /// timing-dependent count that grows with the thread count).
  std::uint64_t tasks_spawned = 0;
  /// Spawned subtrees that ran on a worker other than their spawner.
  std::uint64_t tasks_stolen = 0;
  /// Bound prunes that fired only because of a bound raised by a concurrent
  /// searcher (the local incumbent alone would not have pruned) — the
  /// "work that never happens" benefit of the shared incumbent.
  std::uint64_t shared_bound_prunes = 0;

  // Sparse pipeline (Algorithms 4, 6, 8).
  std::uint64_t subgraphs_total = 0;
  std::uint64_t subgraphs_pruned_size = 0;
  std::uint64_t subgraphs_pruned_degeneracy = 0;
  std::uint64_t subgraphs_searched = 0;
  /// Subgraphs never searched because a limit fired first: centres a
  /// stopped step 2 did not reach or kept, and survivors verifyMBB did not
  /// search. Every centre lands in exactly one of pruned-size /
  /// pruned-degeneracy / searched / skipped.
  std::uint64_t subgraphs_skipped = 0;

  // Sparse-first reduction pipeline observability (the CSR reductions of
  // steps 1-3).
  /// Vertices deleted by step 1's Lemma 4 (k+1)-core reduction (original
  /// graph minus the reduced graph hbvMBB hands to step 2).
  std::uint64_t step1_vertices_removed = 0;
  /// Edges deleted by the step-1 reduction.
  std::uint64_t step1_edges_removed = 0;
  /// Vertices shaved off surviving subgraphs by verify's per-subgraph
  /// (|A*|+1)-core reduction (summed over survivors; excludes subgraphs
  /// the reduction emptied, which land in `subgraphs_pruned_degeneracy`).
  std::uint64_t core_reduction_vertices_removed = 0;
  /// Sparse→dense representation switches: compacted sparse kernels
  /// materialised as dense `BitMatrix` subgraphs for the anchored search.
  std::uint64_t sparse_to_dense_switches = 0;
  /// Which step of Algorithm 4 produced + certified the final answer
  /// (1 = heuristic/reduction, 2 = bridge, 3 = verification); 0 = n/a.
  int terminated_step = 0;

  /// Peak bytes charged against the solve's memory budget (0 when the
  /// solve ran unbudgeted). Merged by max: concurrent shards share one
  /// budget, so the peak is a property of the whole solve.
  std::uint64_t arena_bytes_peak = 0;

  bool timed_out = false;
  /// The first limit that fired (kNone when none did); distinguishes a
  /// wall-clock timeout from a recursion cap or an external stop.
  StopCause stop_cause = StopCause::kNone;

  /// Records one `SearchLimits::CheckStop` outcome: a fired limit marks
  /// the search timed out and, when it is the first, becomes `stop_cause`.
  /// Returns true when the search must stop.
  bool RecordStop(StopCause cause) {
    if (cause == StopCause::kNone) return false;
    timed_out = true;
    if (stop_cause == StopCause::kNone) stop_cause = cause;
    return true;
  }

  double AverageDepth() const {
    return recursions == 0
               ? 0.0
               : static_cast<double>(depth_sum) / static_cast<double>(recursions);
  }

  /// Accumulates `other` into this object (terminated_step/timed_out are
  /// combined by max / logical-or).
  void Merge(const SearchStats& other);

  bool operator==(const SearchStats&) const = default;
};

/// Outcome of an exact (or heuristic) MBB computation. `best` is always a
/// balanced biclique (possibly empty when an initial lower bound was given
/// and could not be improved). `exact` is false when a limit fired before
/// the search space was exhausted.
struct MbbResult {
  Biclique best;
  SearchStats stats;
  bool exact = true;
  /// Secondary results for the multi-answer variants (the `topk` solver
  /// fills it with the k vertex-disjoint bicliques, largest first, `best`
  /// duplicated as the first entry; the `sizecon` witness may be
  /// unbalanced and lives in `best` directly). Empty for the ordinary
  /// single-answer solvers.
  std::vector<Biclique> pool;
};

}  // namespace mbb

#endif  // MBB_CORE_STATS_H_
