#ifndef MBB_EVAL_EXPERIMENT_H_
#define MBB_EVAL_EXPERIMENT_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/stats.h"
#include "engine/solver.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// Wall-clock stopwatch over `std::chrono::steady_clock`.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A timed run of an exact solver under a deadline: wall time, the solver
/// result, and whether the deadline fired (rendered "-" in tables).
struct TimedRun {
  MbbResult result;
  double seconds = 0.0;
  bool timed_out = false;
};

/// Runs the `SolverRegistry` entry `name` on `g` under
/// `timeout_seconds` and captures wall time + timeout state. Extra
/// per-algorithm knobs ride in `options` (its `time_limit_seconds` is
/// overwritten). This is the dispatch the eval tables and the CLI share;
/// throws std::out_of_range for an unknown name.
TimedRun RunSolver(std::string_view name, const BipartiteGraph& g,
                   double timeout_seconds, SolverOptions options = {});

/// Parses all of `value`, the argument of command-line flag `flag`, as a T
/// in [lo, hi]. Junk, trailing characters, a sign on an unsigned T, and
/// non-finite or out-of-range values print a message naming `flag` to
/// stderr and return nullopt. Defined for double, std::uint32_t and
/// std::uint64_t.
template <typename T>
std::optional<T> ParseFlagNumber(std::string_view flag, std::string_view value,
                                 T lo, T hi);

/// Shared command-line handling for the bench binaries: `--full` switches
/// to paper-scale inputs, `--timeout SEC` adjusts the per-run deadline,
/// `--scale X` overrides the dataset scale factor. A missing or malformed
/// value prints a message and exits 1; other arguments are ignored.
struct BenchConfig {
  bool full = false;
  double timeout_seconds = 60.0;
  bool timeout_set = false;
  double scale = -1.0;  // negative = per-bench default

  /// Effective dataset scale: explicit `--scale`, else 1.0 with `--full`,
  /// else `default_scale`.
  double EffectiveScale(double default_scale) const {
    if (scale > 0) return scale;
    return full ? 1.0 : default_scale;
  }

  /// Per-run deadline: explicit `--timeout` wins, otherwise the bench's
  /// own default.
  double EffectiveTimeout(double default_timeout) const {
    return timeout_set ? timeout_seconds : default_timeout;
  }
};
BenchConfig ParseBenchArgs(int argc, char** argv);

}  // namespace mbb

#endif  // MBB_EVAL_EXPERIMENT_H_
