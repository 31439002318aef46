#ifndef MBB_CORE_HEURISTIC_MBB_H_
#define MBB_CORE_HEURISTIC_MBB_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/stats.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// Tuning knobs for the near-linear greedy used by Algorithm 5 and by the
/// local heuristic of Algorithm 6.
struct GreedyOptions {
  /// Number of top-scoring seed vertices tried per side ("top-r" in §5.2).
  int top_r = 4;
  /// Work budget (adjacency entries touched) per greedy run; keeps hMBB
  /// near-linear even around hub vertices.
  std::uint64_t work_cap = std::uint64_t{1} << 22;
};

/// Greedy balanced-biclique search: seeds at high-score vertices, grows the
/// seed side one vertex at a time (choosing the candidate that preserves
/// the most common neighbours, ties broken by `scores`), shrinking the
/// other side accordingly, and returns the best balanced biclique seen.
/// `scores` is indexed by global vertex id; pass degrees for the paper's
/// "maximum degree based" rule or core numbers for the "core number based"
/// rule. The result is balanced and valid in `g`.
///
/// Cost per seed: Σ_{r∈N(seed)} deg(r) to count common neighbours once,
/// plus rounds × |N2(seed)| to pick each round's vertex from the seed's
/// 2-hop set. `work_cap` is charged as a per-round rescan of B's
/// adjacency would be (Σ_{r∈B} deg(r) per round). The round that reaches
/// the cap is the last, and picks from the prefix of B the cap allows.
Biclique GreedyMbb(const BipartiteGraph& g,
                   std::span<const std::uint32_t> scores,
                   const GreedyOptions& options = {});

/// Per-global-vertex degree scores for `GreedyMbb`.
std::vector<std::uint32_t> DegreeScores(const BipartiteGraph& g);

/// As `DegreeScores`, but writes into `out` (resized as needed) so callers
/// that score many subgraphs can reuse one buffer.
void DegreeScoresInto(const BipartiteGraph& g,
                      std::vector<std::uint32_t>& out);

/// Result of the paper's Algorithm 5 (`hMBB`): step 1 of the sparse
/// framework.
struct HMbbOutcome {
  /// Best balanced biclique found, in `g`'s original ids.
  Biclique best;
  /// True when Lemma 5 certified optimality (2δ == |A*|+|B*|) or the
  /// reduction emptied the graph; the pipeline can stop at step 1.
  bool solved_exactly = false;
  /// The residual graph G'' after Lemma 4 reduction to the
  /// (|A*|+1)-core, with id maps back to `g` (meaningless when
  /// `solved_exactly`).
  BipartiteGraph reduced;
  std::vector<VertexId> left_map;   // reduced left id -> original left id
  std::vector<VertexId> right_map;  // reduced right id -> original right id
  SearchStats stats;
};

/// Runs hMBB: degree-greedy, Lemma 4 reduction, Lemma 5 early termination,
/// core-greedy, and a final reduction (Algorithm 5 line by line). The
/// reduced graphs are built through a `CsrScratch` in O(Σ deg(kept)) with
/// no global edge sort. The stats record the step-1 shrinkage
/// (`step1_vertices_removed` / `step1_edges_removed`). The unread `bool` is
/// kept only because bench_record's replay still passes it.
HMbbOutcome HMbb(const BipartiteGraph& g, const GreedyOptions& options = {},
                 bool = true);

}  // namespace mbb

#endif  // MBB_CORE_HEURISTIC_MBB_H_
