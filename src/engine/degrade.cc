#include "engine/degrade.h"

#include <new>

#include "core/heuristic_mbb.h"
#include "engine/budget.h"
#include "engine/faults.h"

namespace mbb {

Biclique HeuristicIncumbent(const BipartiteGraph& g) {
  // Run unmetered and uninstrumented: this is the fallback of last resort,
  // so neither the exhausted budget nor an armed fault schedule should be
  // able to take it down too.
  const MemoryBudgetScope unmetered(nullptr);
  const faults::ScopedSuspend no_faults;
  try {
    Biclique best = GreedyMbb(g, DegreeScores(g));
    best.MakeBalanced();
    return best;
  } catch (...) {
    return {};
  }
}

bool DegradesToGreedy(std::string_view name) { return name != "sizecon"; }

MbbResult SolveAnytime(std::string_view name, const BipartiteGraph& g,
                       const SolverOptions& options) {
  try {
    return SolverRegistry::Solve(name, g, options);
  } catch (const std::bad_alloc&) {
    // Covers ResourceExhaustedError (budget refusal) and genuine OOM the
    // unwinding freed enough memory to recover from.
    MbbResult degraded;
    if (DegradesToGreedy(name)) degraded.best = HeuristicIncumbent(g);
    degraded.exact = false;
    degraded.stats.stop_cause = StopCause::kResourceExhausted;
    degraded.stats.timed_out = false;
    if (options.stop_token != nullptr) {
      options.stop_token->RequestStop(StopCause::kResourceExhausted);
    }
    if (options.stats_sink != nullptr) {
      options.stats_sink->Merge(degraded.stats);
    }
    return degraded;
  }
}

}  // namespace mbb
