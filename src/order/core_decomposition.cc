#include "order/core_decomposition.h"

#include <algorithm>

namespace mbb {

CoreDecomposition ComputeCores(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  CoreDecomposition out;
  out.core.assign(n, 0);
  out.order.reserve(n);
  if (n == 0) return out;

  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = g.Degree(g.SideOf(v), g.LocalId(v));
    max_degree = std::max(max_degree, degree[v]);
  }

  // Bucket sort by degree: `bucket_start[d]` is the first position of
  // degree-d vertices inside `sorted`; `position[v]` tracks where v sits so
  // decrements can swap it into the shrinking bucket in O(1).
  std::vector<std::uint32_t> bucket_start(max_degree + 2, 0);
  for (std::uint32_t v = 0; v < n; ++v) ++bucket_start[degree[v] + 1];
  for (std::uint32_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<std::uint32_t> sorted(n);
  std::vector<std::uint32_t> position(n);
  {
    std::vector<std::uint32_t> cursor(bucket_start.begin(),
                                      bucket_start.end() - 1);
    for (std::uint32_t v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      sorted[position[v]] = v;
    }
  }

  std::vector<bool> processed(n, false);
  std::uint32_t current_core = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = sorted[i];
    processed[v] = true;
    current_core = std::max(current_core, degree[v]);
    out.core[v] = current_core;
    out.order.push_back(v);

    const Side side = g.SideOf(v);
    const VertexId local = g.LocalId(v);
    for (const VertexId nbr_local : g.Neighbors(side, local)) {
      const std::uint32_t nbr = g.GlobalIndex(Opposite(side), nbr_local);
      if (!processed[nbr] && degree[nbr] > degree[v]) {
        // Swap nbr with the first vertex of its degree bucket, then shrink
        // the bucket by one: nbr's degree drops.
        const std::uint32_t d = degree[nbr];
        const std::uint32_t first_pos = bucket_start[d];
        const std::uint32_t first_v = sorted[first_pos];
        if (first_v != nbr) {
          std::swap(sorted[position[nbr]], sorted[first_pos]);
          std::swap(position[nbr], position[first_v]);
        }
        ++bucket_start[d];
        --degree[nbr];
      }
    }
  }
  out.degeneracy = current_core;
  return out;
}

KCoreVertices KCore(const CoreDecomposition& cores, const BipartiteGraph& g,
                    std::uint32_t k) {
  KCoreVertices out;
  for (VertexId v = 0; v < g.num_left(); ++v) {
    if (cores.core[g.GlobalIndex(Side::kLeft, v)] >= k) out.left.push_back(v);
  }
  for (VertexId v = 0; v < g.num_right(); ++v) {
    if (cores.core[g.GlobalIndex(Side::kRight, v)] >= k) {
      out.right.push_back(v);
    }
  }
  return out;
}

}  // namespace mbb
