#ifndef MBB_MBB_H_
#define MBB_MBB_H_

/// Umbrella header for the balanced_biclique library.
///
/// The library reproduces "Efficient Exact Algorithms for Maximum Balanced
/// Biclique Search in Bipartite Graphs" (Chen, Liu, Zhou, Xu, Li, 2021):
///  * `DenseMbbSolve`   — Algorithm 3 (dense bipartite graphs, O*(1.3803^n))
///  * `HbvMbb`          — Algorithm 4 (large sparse graphs, O*(1.3803^δ̈))
///  * `FindMaximumBalancedBiclique` — density-dispatching convenience API.
/// Baselines (`ExtBbclqSolve`, `ImbeaSolve`, `FmbeSolve`, `PolsSolve`,
/// `SbmnasSolve`, `AdpSolve`) and the substrate (graphs, generators,
/// core/bicore decompositions, search orders) are exposed for experiments.
///
/// The uniform entry point is the engine layer (docs/ARCHITECTURE.md):
/// every algorithm is registered as an `MbbSolver` in the
/// `SolverRegistry`, configured through one `SolverOptions`, e.g.
/// `SolverRegistry::Solve("hbv", g, SolverOptions::WithTimeout(60))`.
/// Branch-and-bound scratch is pooled in `SearchContext` arenas.

#include "baselines/adapted.h"
#include "baselines/brute_force.h"
#include "baselines/ext_bbclq.h"
#include "baselines/fmbe.h"
#include "baselines/imbea.h"
#include "baselines/pols.h"
#include "baselines/sbmnas.h"
#include "core/basic_bb.h"
#include "core/bridge_mbb.h"
#include "core/complement_decomposition.h"
#include "core/dense_mbb.h"
#include "core/dynamic_mbb.h"
#include "core/hbv_mbb.h"
#include "core/heuristic_mbb.h"
#include "core/mvb.h"
#include "core/size_constrained.h"
#include "core/stats.h"
#include "core/verify_mbb.h"
#include "engine/registry.h"
#include "engine/search_context.h"
#include "engine/solver.h"
#include "graph/biclique.h"
#include "graph/bipartite_graph.h"
#include "graph/datasets.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "order/bicore_decomposition.h"
#include "order/core_decomposition.h"
#include "order/matching.h"
#include "order/vertex_centered.h"

#endif  // MBB_MBB_H_
