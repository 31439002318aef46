// Calls into the solver layers: the untraced registry solve every
// end-to-end metric times, and the traced replays of the registry's glue
// that split a solve into per-layer spans.
#ifndef BENCH_RECORD_LAYERS_H_
#define BENCH_RECORD_LAYERS_H_

#include <cstdint>
#include <string>

#include "core/stats.h"
#include "graph/bipartite_graph.h"
#include "trace.h"

namespace record {

/// What one traced replay measured: span self times (seconds) and the
/// counters read at the same layer boundaries. Layers a solve does not
/// reach stay 0.
struct LayerSample {
  double solve_s = 0;        // the replay's root span
  double dense_build_s = 0;  // DenseSubgraph::Whole
  double bnb_s = 0;          // DenseMbbSolve
  double step1_s = 0;        // HMbb
  double step2_s = 0;        // BridgeMbb
  double step3_s = 0;        // VerifyMbb
  double glue_s = 0;         // root self time (nothing else runs there)
  std::uint64_t step1_incumbent = 0;
  std::uint64_t step1_edges_kept = 0;
  std::uint64_t step2_centres = 0;
  std::uint64_t step2_survivors = 0;
  std::uint64_t step3_recursions = 0;
  std::uint64_t step3_searched = 0;
  std::uint64_t dense_recursions = 0;
  std::uint64_t dense_matching_prunes = 0;
};

/// `SolverRegistry::Solve(algo, g)` with default options at `threads`.
mbb::MbbResult SolveUntraced(const std::string& algo,
                             const mbb::BipartiteGraph& g,
                             std::uint32_t threads);

/// Replays what the registry's `algo` adapter does (`dense` or `hbv`) as
/// spans under one root, with the same options. At one thread the result and every counter equal
/// the untraced solve's (the replay-parity gate checks this).
mbb::MbbResult SolveTraced(const std::string& algo,
                           const mbb::BipartiteGraph& g, std::uint32_t threads,
                           Tracer& tracer, std::uint64_t id,
                           LayerSample* sample);

/// "" when the counters that define the per-layer split agree between an
/// untraced solve and its replay, otherwise the first difference.
std::string ParityError(const mbb::MbbResult& untraced,
                        const mbb::MbbResult& replay);

}  // namespace record

#endif  // BENCH_RECORD_LAYERS_H_
