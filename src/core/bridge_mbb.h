#ifndef MBB_CORE_BRIDGE_MBB_H_
#define MBB_CORE_BRIDGE_MBB_H_

#include <cstdint>
#include <vector>

#include "core/heuristic_mbb.h"
#include "core/stats.h"
#include "graph/bipartite_graph.h"
#include "order/vertex_centered.h"

namespace mbb {

class SearchContext;

/// Configuration of the paper's Algorithm 6 (`bridgeMBB`, step 2 of the
/// sparse framework).
struct BridgeOptions : ExecPolicy {
  /// Total search order for generating vertex-centred subgraphs.
  /// Bidegeneracy is the paper's choice; degree / degeneracy are the bd4 /
  /// bd5 ablations.
  VertexOrderKind order = VertexOrderKind::kBidegeneracy;
  /// Prune centred subgraphs by their degeneracy (`δ(H) <= |A*|`) — part of
  /// the core/bicore optimizations the bd2 ablation disables.
  bool use_degeneracy_pruning = true;
  /// Run the local core-based greedy on surviving subgraphs to tighten the
  /// incumbent before verification ("heuLocal" in Figure 4).
  bool use_local_heuristic = true;
  /// Unread: kept only because bench_record's replay still sets it.
  bool sparse_reduction = true;
  GreedyOptions greedy;
};

/// Outcome of bridgeMBB on the reduced graph.
struct BridgeOutcome {
  /// Balanced size of the best biclique known after step 2.
  std::uint32_t best_size = 0;
  /// Improvement over the incoming incumbent found by the local heuristic,
  /// in the reduced graph's ids. `improved == false` means the incumbent
  /// passed in is still the best known.
  bool improved = false;
  Biclique best;
  /// Centred subgraphs that could not be pruned; step 3 must search them.
  std::vector<CenteredSubgraph> survivors;
  SearchStats stats;
  /// False when a limit stopped the scan: the centres it never reached and
  /// those it kept are counted in `stats.subgraphs_skipped`, with the cause
  /// in `stats.stop_cause`, and `survivors` is empty.
  bool exact = true;
};

/// Runs Algorithm 6: computes the requested vertex order of `reduced`,
/// streams all vertex-centred subgraphs (each built through a per-worker
/// `CsrScratch` by `CsrInduce`), prunes by size / degeneracy against the
/// incumbent, refines the incumbent with a local greedy, and
/// returns the surviving subgraphs (re-filtered against the final
/// incumbent). The stop token and deadline of `options.limits` are
/// checked before each centre (the order itself is not polled); once one
/// fires, the remaining centres are skipped. Worker 0 runs on the caller's thread and pools its
/// per-subgraph score scratch in `context`; pass the pipeline's shared
/// `SearchContext`, or nullptr to give it a transient one like the other
/// workers.
BridgeOutcome BridgeMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        const BridgeOptions& options = {},
                        SearchContext* context = nullptr);

}  // namespace mbb

#endif  // MBB_CORE_BRIDGE_MBB_H_
