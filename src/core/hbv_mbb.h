#ifndef MBB_CORE_HBV_MBB_H_
#define MBB_CORE_HBV_MBB_H_

#include "core/bridge_mbb.h"
#include "core/heuristic_mbb.h"
#include "core/stats.h"
#include "core/verify_mbb.h"
#include "graph/bipartite_graph.h"

namespace mbb {

/// Configuration of the paper's Algorithm 4 (`hbvMBB`) — the
/// heuristic-bridge-verify framework for large sparse bipartite graphs —
/// including the switches for the bd1..bd5 breakdown variants of Table 3:
///
///  | variant | configuration                                            |
///  |---------|----------------------------------------------------------|
///  | hbvMBB  | defaults                                                 |
///  | bd1     | `use_heuristic = false`                                  |
///  | bd2     | `use_core_optimizations = false`                         |
///  | bd3     | `use_dense_optimizations = false`                        |
///  | bd4     | `order = VertexOrderKind::kDegree`                       |
///  | bd5     | `order = VertexOrderKind::kDegeneracy`                   |
///
/// The inherited `ExecPolicy` reaches steps 2 and 3; step 1 is one
/// sequential scan and polls no limit.
struct HbvOptions : ExecPolicy {
  /// Step 1 (hMBB): global heuristics + Lemma 4 reduction + Lemma 5 early
  /// termination. Disabled = bd1.
  bool use_heuristic = true;
  /// Core/bicore based optimizations: Lemma 4 reduction, per-subgraph
  /// degeneracy pruning and core reduction in steps 2/3. Disabled = bd2.
  bool use_core_optimizations = true;
  /// denseMBB's polynomial-case + triviality-last branching in step 3;
  /// disabled (bd3) the verification falls back to basicBB.
  bool use_dense_optimizations = true;
  /// Total search order for the vertex-centred subgraphs (bd4/bd5 use
  /// degree / degeneracy).
  VertexOrderKind order = VertexOrderKind::kBidegeneracy;
  /// Unread: kept only because bench_record's replay still sets it.
  bool sparse_reduction = true;

  GreedyOptions greedy;

  static HbvOptions Bd1() { HbvOptions o; o.use_heuristic = false; return o; }
  static HbvOptions Bd2() {
    HbvOptions o;
    o.use_core_optimizations = false;
    return o;
  }
  static HbvOptions Bd3() {
    HbvOptions o;
    o.use_dense_optimizations = false;
    return o;
  }
  static HbvOptions Bd4() {
    HbvOptions o;
    o.order = VertexOrderKind::kDegree;
    return o;
  }
  static HbvOptions Bd5() {
    HbvOptions o;
    o.order = VertexOrderKind::kDegeneracy;
    return o;
  }
};

/// Runs hbvMBB on `g` and returns the maximum balanced biclique (in `g`'s
/// ids), the merged search statistics (including `terminated_step` — the
/// S1/S2/S3 column of the paper's Table 5), and whether the result is
/// exact (false only when `options.limits` fired).
MbbResult HbvMbb(const BipartiteGraph& g, const HbvOptions& options = {});

/// Density at and above which `FindMaximumBalancedBiclique` (the `auto`
/// solver, and each `topk` round) runs denseMBB instead of hbvMBB: the
/// paper's working point for sufficiently dense graphs.
inline constexpr double kDenseDensityThreshold = 0.8;

/// One-call convenience API: denseMBB (with `options`' execution policy)
/// for inputs of density >= `kDenseDensityThreshold`, hbvMBB otherwise.
MbbResult FindMaximumBalancedBiclique(const BipartiteGraph& g,
                                      const HbvOptions& options = {});

}  // namespace mbb

#endif  // MBB_CORE_HBV_MBB_H_
