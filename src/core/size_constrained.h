#ifndef MBB_CORE_SIZE_CONSTRAINED_H_
#define MBB_CORE_SIZE_CONSTRAINED_H_

#include <cstdint>
#include <optional>

#include "core/stats.h"
#include "graph/dense_subgraph.h"

namespace mbb {

/// The size-constrained (a, b) biclique problem of §4.2: decide whether a
/// biclique `(A, B)` with `|A| >= a` and `|B| >= b` exists, and produce a
/// witness. The paper uses the problem definitionally (Observation 2's
/// maximal instances); exposing it makes the library useful for
/// applications with asymmetric requirements (e.g. "at least 3 test
/// conditions covering at least 50 genes").
///
/// Solved by an adapted denseMBB-style branch and bound with the pair
/// target (prunes on per-side potentials and the candidates' degree
/// requirements). Returns std::nullopt when no such biclique exists (or
/// a limit fired — `*stop_cause` then names the first one, else kNone).
std::optional<Biclique> FindSizeConstrainedBiclique(
    const DenseSubgraph& g, std::uint32_t a, std::uint32_t b,
    const SearchLimits& limits = {}, StopCause* stop_cause = nullptr);

/// The maximal (a, b) instances (Pareto frontier) of a whole subgraph —
/// the generalization of Observation 2 from single path/cycle components
/// to an arbitrary `DenseSubgraph`. Exponential in general; intended for
/// small inputs (asserts `|L|, |R| <= 64`).
std::vector<std::pair<std::uint32_t, std::uint32_t>> MaximalBicliqueInstances(
    const DenseSubgraph& g);

}  // namespace mbb

#endif  // MBB_CORE_SIZE_CONSTRAINED_H_
