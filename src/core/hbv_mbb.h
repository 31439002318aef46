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
struct HbvOptions {
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
  /// Worker threads for step 2's centred-subgraph scan, step 3's survivor
  /// fan-out, and — when step 3 has a single hard survivor — the anchored
  /// search's work-stealing subtree layer: 1 = sequential, 0 = one per
  /// hardware thread. Step 1 is a single cheap scan and always runs
  /// sequentially.
  std::uint32_t num_threads = 1;
  /// Fork cutoff for subtree parallelism inside anchored dense searches
  /// (see `DenseMbbOptions::spawn_depth`); 0 = auto.
  std::uint32_t spawn_depth = 0;
  /// Thread-count-invariant results for the parallel phases (see
  /// `DenseMbbOptions::deterministic` / `BridgeOptions::deterministic`).
  bool deterministic = false;
  /// Unread: kept only because bench_record's replay still sets it.
  bool sparse_reduction = true;

  GreedyOptions greedy;
  SearchLimits limits;

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

/// One-call convenience API: picks denseMBB for dense inputs (density >=
/// `dense_threshold`, defaulting to the paper's 0.8 working point for
/// sufficiently dense graphs) and hbvMBB otherwise.
MbbResult FindMaximumBalancedBiclique(const BipartiteGraph& g,
                                      const HbvOptions& options = {},
                                      double dense_threshold = 0.8);

}  // namespace mbb

#endif  // MBB_CORE_HBV_MBB_H_
