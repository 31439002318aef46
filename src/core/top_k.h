#ifndef MBB_CORE_TOP_K_H_
#define MBB_CORE_TOP_K_H_

#include <cstdint>
#include <vector>

#include "core/hbv_mbb.h"
#include "core/stats.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// Configuration of the top-k balanced-biclique variant: the `hbv` budget
/// and tuning apply to every peel round (one shared deadline covers the
/// whole run); each round picks denseMBB vs hbvMBB the way the `auto`
/// solver does (`FindMaximumBalancedBiclique`).
struct TopKOptions {
  std::uint32_t k = 3;
  HbvOptions hbv;
};

/// Result of `TopKMbb`. The bicliques are vertex-disjoint, in `g`'s ids,
/// and non-increasing in balanced size (largest first). Fewer than `k`
/// entries means the graph ran out of edges first. `exact` is false when
/// any round's limit fired — later entries may then miss larger bicliques.
struct TopKResult {
  std::vector<Biclique> bicliques;
  SearchStats stats;
  bool exact = true;
};

/// The k largest *vertex-disjoint* balanced bicliques, by peel-and-repeat:
/// solve MBB exactly, remove the witness's vertices, re-solve on the
/// remainder. Vertex-disjointness is what makes the variant useful as a
/// diversified answer set (biclustering, community extraction) — the k
/// globally largest bicliques without a disjointness constraint are
/// near-duplicates of the first.
TopKResult TopKMbb(const BipartiteGraph& g, const TopKOptions& options = {});

}  // namespace mbb

#endif  // MBB_CORE_TOP_K_H_
