#ifndef MBB_BASELINES_ADAPTED_H_
#define MBB_BASELINES_ADAPTED_H_

#include "core/stats.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// The four adapted non-trivial baselines of the paper's Table 3: a
/// state-of-the-art heuristic provides the step-1 incumbent, Lemma 4's
/// core-based upper bound reduces the graph, and an adapted MBE algorithm
/// performs the exhaustive search.
///
///  | variant | heuristic | exhaustive engine |
///  |---------|-----------|-------------------|
///  | adp1    | POLS      | FMBE              |
///  | adp2    | POLS      | iMBEA             |
///  | adp3    | SBMNAS    | FMBE              |
///  | adp4    | SBMNAS    | iMBEA             |
enum class AdpVariant { kAdp1, kAdp2, kAdp3, kAdp4 };

const char* ToString(AdpVariant variant);

/// Runs the selected adapted baseline. Exact (up to `limits`); result in
/// `g`'s ids. `num_threads` reaches the FMBE engine's per-scope fan-out
/// (adp1/adp3; 1 = sequential, 0 = one per hardware thread); the iMBEA
/// engine (adp2/adp4) enumerates maximal bicliques through one shared
/// consensus-tree traversal and stays sequential at any setting.
/// `deterministic` reaches the FMBE fan-out (see `FmbeSolve`).
MbbResult AdpSolve(const BipartiteGraph& g, AdpVariant variant,
                   const SearchLimits& limits = {},
                   std::uint32_t num_threads = 1,
                   bool deterministic = false);

}  // namespace mbb

#endif  // MBB_BASELINES_ADAPTED_H_
