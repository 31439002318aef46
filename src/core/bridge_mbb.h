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
struct BridgeOptions {
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
  /// Workers for the centred-subgraph scan (0 = one per hardware thread,
  /// 1 = one worker scanning in order on the caller's thread). Workers
  /// prune against a shared atomic incumbent snapshot and the reduce picks
  /// the lowest-rank winner, so the returned incumbent and survivor set
  /// match the one-worker scan exactly; only the per-bucket prune
  /// attribution can shift with timing.
  std::uint32_t num_threads = 1;
  /// With more than one worker, prune against the incoming incumbent only
  /// (no cross-worker snapshot), making every counter — not just the
  /// result — identical at every such thread count, at the cost of running
  /// the local greedy on centres a live bound would have skipped. One
  /// worker is timing-independent already and keeps its live incumbent.
  bool deterministic = false;
  /// Build the per-centre induced subgraphs through a reusable
  /// `CsrScratch` (`CsrInduce`) instead of `BipartiteGraph::Induce`: same
  /// subgraph bit for bit, no per-centre global edge sort. See
  /// `HbvOptions::sparse_reduction`.
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
};

/// Runs Algorithm 6: computes the requested vertex order of `reduced`,
/// streams all vertex-centred subgraphs, prunes by size / degeneracy
/// against the incumbent, refines the incumbent with a local greedy, and
/// returns the surviving subgraphs (re-filtered against the final
/// incumbent). Worker 0 runs on the caller's thread and pools its
/// per-subgraph score scratch in `context`; pass the pipeline's shared
/// `SearchContext`, or nullptr to give it a transient one like the other
/// workers.
BridgeOutcome BridgeMbb(const BipartiteGraph& reduced,
                        std::uint32_t initial_best_size,
                        const BridgeOptions& options = {},
                        SearchContext* context = nullptr);

}  // namespace mbb

#endif  // MBB_CORE_BRIDGE_MBB_H_
