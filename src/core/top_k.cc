#include "core/top_k.h"

#include <algorithm>
#include <numeric>

namespace mbb {

namespace {

/// Removes `used` (original ids) from the alive list, preserving order.
void RemoveUsed(std::vector<VertexId>& alive,
                const std::vector<VertexId>& used) {
  std::vector<VertexId> sorted_used = used;
  std::sort(sorted_used.begin(), sorted_used.end());
  std::erase_if(alive, [&](VertexId v) {
    return std::binary_search(sorted_used.begin(), sorted_used.end(), v);
  });
}

}  // namespace

TopKResult TopKMbb(const BipartiteGraph& g, const TopKOptions& options) {
  TopKResult out;
  if (options.k == 0) return out;

  std::vector<VertexId> left_alive(g.num_left());
  std::vector<VertexId> right_alive(g.num_right());
  std::iota(left_alive.begin(), left_alive.end(), 0u);
  std::iota(right_alive.begin(), right_alive.end(), 0u);

  for (std::uint32_t round = 0; round < options.k; ++round) {
    if (left_alive.empty() || right_alive.empty()) break;
    const InducedSubgraph induced = g.Induce(left_alive, right_alive);
    if (induced.graph.num_edges() == 0) break;

    const MbbResult result =
        FindMaximumBalancedBiclique(induced.graph, options.hbv);
    out.stats.Merge(result.stats);
    if (!result.exact) out.exact = false;
    if (result.best.BalancedSize() == 0) break;

    // Map the witness back to the original ids and peel its vertices.
    Biclique found;
    found.left.reserve(result.best.left.size());
    found.right.reserve(result.best.right.size());
    for (const VertexId v : result.best.left) {
      found.left.push_back(induced.left_to_old[v]);
    }
    for (const VertexId v : result.best.right) {
      found.right.push_back(induced.right_to_old[v]);
    }
    RemoveUsed(left_alive, found.left);
    RemoveUsed(right_alive, found.right);
    out.bicliques.push_back(std::move(found));
    if (!out.exact) break;  // a fired limit makes later rounds misleading
  }
  return out;
}

}  // namespace mbb
