#include "core/size_constrained.h"

#include <cassert>

#include "core/complement_decomposition.h"

namespace mbb {

// FindSizeConstrainedBiclique is denseMBB's searcher in target mode, so it
// is defined next to that searcher in dense_mbb.cc.

std::vector<std::pair<std::uint32_t, std::uint32_t>> MaximalBicliqueInstances(
    const DenseSubgraph& g) {
  assert(g.num_left() <= 64 && g.num_right() <= 64);
  std::vector<ParetoPoint> achievable;
  for (std::uint32_t a = 0; a <= g.num_left(); ++a) {
    // For each a, find the largest feasible b by downward scan.
    for (std::uint32_t b = g.num_right() + 1; b-- > 0;) {
      if (FindSizeConstrainedBiclique(g, a, b).has_value()) {
        achievable.push_back({a, b});
        break;
      }
      if (b == 0) break;
    }
  }
  return ParetoFilter(std::move(achievable));
}

}  // namespace mbb
