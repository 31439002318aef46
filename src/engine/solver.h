#ifndef MBB_ENGINE_SOLVER_H_
#define MBB_ENGINE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/stats.h"
#include "graph/bipartite_graph.h"

namespace mbb {

class SearchContext;

/// Unified configuration for every solver behind the `SolverRegistry`.
///
/// A variant is picked only by its registry key (`bd3`, `adp2`, ...);
/// adapters start from the default (or preset) per-algorithm structs, so
/// no algorithm knob is settable here. What is settable is the solve's
/// budget (`time_limit_seconds`, `max_recursions`, `stop_token`), its
/// parallelism (`num_threads`, `spawn_depth`, `deterministic`) and the
/// per-solve resources and problem parameters below. `Policy()` turns the
/// first two groups into the one `ExecPolicy` (core/stats.h) that every
/// phase inherits, so a caller sets the budget in exactly one place.
struct SolverOptions {
  /// Wall-clock budget in seconds; <= 0 means unlimited. Polled
  /// cooperatively (see `SearchLimits::kDeadlinePollInterval`).
  double time_limit_seconds = 0.0;
  /// Recursion cap; 0 means unlimited. Mainly failure injection in tests.
  std::uint64_t max_recursions = 0;
  /// Balanced-size lower bound: only strictly larger bicliques are
  /// reported (`best` stays empty when nothing beats it). Every exact
  /// plain-MBB solver honours it; `sizecon`, `topk`, `brute` and the
  /// heuristics (`pols`, `sbmnas`) ignore it.
  std::uint32_t initial_bound = 0;
  /// When non-null, the final `SearchStats` are merged into this sink by
  /// `SolverRegistry::Solve` — the hook the eval/CLI layers use to
  /// aggregate statistics across runs.
  SearchStats* stats_sink = nullptr;
  /// External cancellation: when set, every limit check in the solve also
  /// observes this token, so a second thread (a serving front end, a
  /// client disconnect handler) can abort a running solve by calling
  /// `RequestStop(StopCause::kExternal)`. The solvers that already create
  /// an internal token for their parallel phases adopt this one instead,
  /// so one trip stops the whole fleet. Null = no external cancellation.
  std::shared_ptr<StopToken> stop_token;
  /// When non-null, solvers that take a `SearchContext` (dense, basic,
  /// sizecon) run in this caller-owned arena instead of a transient one —
  /// the hook a long-lived server uses to reuse per-worker scratch across
  /// queries. Not thread-safe: one context per concurrent solve.
  SearchContext* context = nullptr;
  /// `ExecPolicy::num_threads`, for the parallel phases of `dense` (and
  /// the anchored searches it backs), `hbv`/`auto`/`topk`/`bd*`, and the
  /// per-centre fan-out of the FMBE-based baselines (`fmbe`, `adp1`,
  /// `adp3`). Inherently single-threaded solvers (`basic`, `imbea`, the
  /// heuristics) accept but ignore it — their result is identical at any
  /// setting.
  std::uint32_t num_threads = 1;
  /// `ExecPolicy::spawn_depth`; 0 = auto from the candidate-set size.
  std::uint32_t spawn_depth = 0;
  /// `ExecPolicy::deterministic`: the returned biclique is identical at
  /// any `num_threads`.
  bool deterministic = false;
  /// Per-solve memory byte budget, metered at the arena layer (`BitMatrix`
  /// and `CsrScratch` charges; see engine/budget.h). 0 = unlimited.
  /// `SolverRegistry::Solve` installs the budget around the solve and
  /// records the peak in `SearchStats::arena_bytes_peak`; exceeding it
  /// throws `ResourceExhaustedError`, which `SolveAnytime` (and the serve
  /// layer) convert into a degraded `resource_exhausted` result.
  std::uint64_t memory_budget_bytes = 0;
  /// Fault-injection spec applied (process-globally, idempotently) by
  /// `SolverRegistry::Solve` before dispatch — the `SolverOptions` route
  /// into `faults::Configure` next to the `MBB_FAULT_SPEC` env variable
  /// and the CLI/server flags. Empty = leave the active spec alone.
  std::string fault_spec;

  /// Side targets of the `sizecon` solver (the §4.2 size-constrained
  /// (a, b)-biclique decision problem): it reports a biclique with
  /// `|A| >= size_a` and `|B| >= size_b`, or an empty result when none
  /// exists. Both default to 1 (any non-empty biclique).
  std::uint32_t size_a = 1;
  std::uint32_t size_b = 1;
  /// Result count of the `topk` solver: the k largest vertex-disjoint
  /// balanced bicliques, found by peel-and-repeat. The full list lands in
  /// `MbbResult::pool` (largest first); `best` is the first entry.
  std::uint32_t top_k = 3;

  /// The unified budget as the `SearchLimits` the low-level APIs take.
  SearchLimits Limits() const {
    SearchLimits limits;
    if (time_limit_seconds > 0) {
      limits = SearchLimits::FromSeconds(time_limit_seconds);
    }
    limits.max_recursions = max_recursions;
    limits.stop_token = stop_token;
    return limits;
  }

  /// The budget and parallelism as the policy the phases inherit.
  ExecPolicy Policy() const {
    return {Limits(), num_threads, spawn_depth, deterministic};
  }

  static SolverOptions WithTimeout(double seconds) {
    SolverOptions options;
    options.time_limit_seconds = seconds;
    return options;
  }
};

/// Interface every algorithm in the library is adapted to. Implementations
/// are stateless (scratch lives in per-call `SearchContext`s), so one
/// instance may serve concurrent callers.
class MbbSolver {
 public:
  virtual ~MbbSolver() = default;

  /// Registry key ("dense", "hbv", ...).
  virtual std::string_view Name() const = 0;

  /// True when the solver certifies optimality (provided no limit fires);
  /// false for the local-search heuristics (`pols`, `sbmnas`), whose
  /// results always report `exact == false`.
  virtual bool IsExact() const = 0;

  /// Runs the algorithm on `g`. The result's biclique is in `g`'s ids,
  /// balanced, and valid; `exact` is false when a limit fired or the
  /// solver is heuristic. Prefer `SolverRegistry::Solve`, which also
  /// services `options.stats_sink`.
  virtual MbbResult Solve(const BipartiteGraph& g,
                          const SolverOptions& options) const = 0;
};

}  // namespace mbb

#endif  // MBB_ENGINE_SOLVER_H_
