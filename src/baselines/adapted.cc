#include "baselines/adapted.h"

#include <algorithm>

#include "baselines/fmbe.h"
#include "baselines/imbea.h"
#include "baselines/pols.h"
#include "baselines/sbmnas.h"
#include "order/core_decomposition.h"

namespace mbb {

const char* ToString(AdpVariant variant) {
  switch (variant) {
    case AdpVariant::kAdp1:
      return "adp1";
    case AdpVariant::kAdp2:
      return "adp2";
    case AdpVariant::kAdp3:
      return "adp3";
    case AdpVariant::kAdp4:
      return "adp4";
  }
  return "?";
}

MbbResult AdpSolve(const BipartiteGraph& g, AdpVariant variant,
                   const SearchLimits& limits, std::uint32_t num_threads,
                   bool deterministic) {
  const bool use_sbmnas =
      variant == AdpVariant::kAdp3 || variant == AdpVariant::kAdp4;
  const bool use_fmbe =
      variant == AdpVariant::kAdp1 || variant == AdpVariant::kAdp3;

  MbbResult out;

  // Step 1: heuristic incumbent.
  Biclique incumbent;
  if (use_sbmnas) {
    SbmnasOptions options;
    options.limits = limits;
    incumbent = SbmnasSolve(g, options);
  } else {
    PolsOptions options;
    options.limits = limits;
    incumbent = PolsSolve(g, options);
  }
  std::uint32_t best_size = incumbent.BalancedSize();

  // Step 2: core-based upper bound — Lemma 4 reduction to the
  // (best+1)-core; Lemma 5 certifies optimality when the incumbent matches
  // the degeneracy.
  const CoreDecomposition cores = ComputeCores(g);
  if (best_size >= cores.degeneracy) {
    out.best = std::move(incumbent);
    out.best.MakeBalanced();
    out.stats.terminated_step = 1;
    return out;
  }
  const KCoreVertices kept = KCore(cores, g, best_size + 1);
  if (kept.left.empty() || kept.right.empty()) {
    out.best = std::move(incumbent);
    out.best.MakeBalanced();
    out.stats.terminated_step = 1;
    return out;
  }
  const InducedSubgraph reduced = g.Induce(kept.left, kept.right);

  // Step 3: adapted MBE exhaustive search with the incumbent as bound.
  // Only the FMBE engine fans out: iMBEA's single consensus-tree traversal
  // has no independent per-scope unit of work to distribute.
  MbbResult search =
      use_fmbe ? FmbeSolve(reduced.graph, limits, best_size, num_threads,
                           deterministic)
               : ImbeaSolve(reduced.graph, limits, best_size);
  out.stats.Merge(search.stats);
  out.exact = search.exact;
  out.stats.terminated_step = 3;
  if (search.best.BalancedSize() > best_size) {
    for (VertexId& l : search.best.left) l = reduced.left_to_old[l];
    for (VertexId& r : search.best.right) r = reduced.right_to_old[r];
    out.best = std::move(search.best);
  } else {
    out.best = std::move(incumbent);
  }
  out.best.MakeBalanced();
  return out;
}

}  // namespace mbb
