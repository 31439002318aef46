#ifndef MBB_CORE_SIZE_CONSTRAINED_H_
#define MBB_CORE_SIZE_CONSTRAINED_H_

#include <cstdint>
#include <optional>

#include "core/stats.h"
#include "graph/dense_subgraph.h"

namespace mbb {

class SearchContext;

/// The size-constrained (a, b) biclique problem of §4.2: decide whether a
/// biclique `(A, B)` with `|A| >= a` and `|B| >= b` exists, and produce a
/// witness. The paper uses the problem definitionally (Observation 2's
/// maximal instances); exposing it makes the library useful for
/// applications with asymmetric requirements (e.g. "at least 3 test
/// conditions covering at least 50 genes").
///
/// Solved by denseMBB's branch and bound (dense_mbb.cc) in target mode:
/// the same one-pass node with the Lemma 1/2 reductions and the König
/// bound, pruning against the per-side target instead of an incumbent,
/// and stopping at the first hit. It skips the Lemma-3 polynomial case,
/// whose dynamic program maximises the balanced size. It runs on the
/// calling thread. Returns std::nullopt when no such biclique exists or a
/// limit fired first; `*stats`, when given, receives the search counters,
/// the first fired limit in `stop_cause`. The candidate sets live in
/// `context`'s pooled frames (a transient context when null).
std::optional<Biclique> FindSizeConstrainedBiclique(
    const DenseSubgraph& g, std::uint32_t a, std::uint32_t b,
    const SearchLimits& limits = {}, SearchStats* stats = nullptr,
    SearchContext* context = nullptr);

/// The maximal (a, b) instances (Pareto frontier) of a whole subgraph —
/// the generalization of Observation 2 from single path/cycle components
/// to an arbitrary `DenseSubgraph`. Exponential in general; intended for
/// small inputs (asserts `|L|, |R| <= 64`).
std::vector<std::pair<std::uint32_t, std::uint32_t>> MaximalBicliqueInstances(
    const DenseSubgraph& g);

}  // namespace mbb

#endif  // MBB_CORE_SIZE_CONSTRAINED_H_
