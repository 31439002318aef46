#include "core/hbv_mbb.h"

#include <algorithm>
#include <utility>

#include "core/dense_mbb.h"
#include "engine/search_context.h"

namespace mbb {

MbbResult HbvMbb(const BipartiteGraph& g, const HbvOptions& options) {
  MbbResult out;
  // Shared scratch for steps 2 and 3: every subgraph scan and anchored
  // search below draws from one pooled arena.
  SearchContext ctx;

  // ---- Step 1: heuristic + reduction (Algorithm 5). -------------------
  // Steps 2 and 3 run on `graph`: hMBB's reduced graph, or `g` itself (with
  // identity ids) when the variant skips step 1's reduction.
  Biclique best_original;  // incumbent in g's ids
  HMbbOutcome h;
  const BipartiteGraph* graph = &g;

  if (options.use_heuristic && options.use_core_optimizations) {
    h = HMbb(g, options.greedy);
    out.stats.Merge(h.stats);
    best_original = std::move(h.best);
    if (h.solved_exactly) {
      out.best = std::move(best_original);
      out.best.MakeBalanced();
      out.stats.terminated_step = 1;
      return out;
    }
    graph = &h.reduced;
  } else if (options.use_heuristic) {
    // Heuristic without the core machinery: greedy only, no reduction, no
    // Lemma 5 certificate.
    best_original = GreedyMbb(g, DegreeScores(g), options.greedy);
  }
  std::uint32_t best_size = best_original.BalancedSize();

  const auto to_original = [&](Biclique b) {
    if (graph == &g) return b;
    for (VertexId& l : b.left) l = h.left_map[l];
    for (VertexId& r : b.right) r = h.right_map[r];
    return b;
  };

  // ---- Step 2: bridge to locally dense subgraphs (Algorithm 6). -------
  BridgeOptions bridge_options;
  static_cast<ExecPolicy&>(bridge_options) = options;
  bridge_options.order = options.order;
  bridge_options.use_degeneracy_pruning = options.use_core_optimizations;
  bridge_options.greedy = options.greedy;
  BridgeOutcome bridge = BridgeMbb(*graph, best_size, bridge_options, &ctx);
  out.stats.Merge(bridge.stats);
  if (bridge.improved) {
    best_original = to_original(std::move(bridge.best));
    best_size = bridge.best_size;
  }
  // A limit that stopped the scan leaves no survivors (its unscanned and
  // kept centres count as skipped): the incumbent is the answer, inexact.
  if (bridge.survivors.empty()) {
    out.best = std::move(best_original);
    out.best.MakeBalanced();
    out.exact = bridge.exact;
    out.stats.terminated_step =
        std::max(out.stats.terminated_step, 2);
    return out;
  }

  // ---- Step 3: verification (Algorithm 8). ----------------------------
  VerifyOptions verify_options;
  verify_options.use_core_reduction = options.use_core_optimizations;
  verify_options.use_dense_search = options.use_dense_optimizations;
  verify_options.num_threads = options.num_threads;
  static_cast<ExecPolicy&>(verify_options.dense) = options;
  VerifyOutcome verify =
      VerifyMbb(*graph, best_size, bridge.survivors, verify_options, &ctx);
  out.stats.Merge(verify.stats);
  out.exact = verify.exact;
  if (verify.improved) {
    best_original = to_original(std::move(verify.best));
  }
  out.best = std::move(best_original);
  out.best.MakeBalanced();
  out.stats.terminated_step = 3;
  return out;
}

MbbResult FindMaximumBalancedBiclique(const BipartiteGraph& g,
                                      const HbvOptions& options) {
  if (g.NumVertices() == 0) return {};
  if (g.Density() >= kDenseDensityThreshold) {
    DenseMbbOptions dense_options;
    static_cast<ExecPolicy&>(dense_options) = options;
    return DenseMbbSolve(DenseSubgraph::Whole(g), dense_options);
  }
  return HbvMbb(g, options);
}

}  // namespace mbb
