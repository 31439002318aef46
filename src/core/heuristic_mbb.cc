#include "core/heuristic_mbb.h"

#include <algorithm>
#include <numeric>

#include "graph/csr.h"
#include "order/core_decomposition.h"

namespace mbb {

namespace {

/// Grows a biclique from seed `(side, seed)`: A starts as {seed}, B as
/// N(seed); each step adds the same-side vertex keeping the most of B,
/// shrinking B to the common neighbourhood, until B is no larger than A.
/// Returns the best balanced biclique encountered along the way.
Biclique GreedyFromSeed(const BipartiteGraph& g, Side side, VertexId seed,
                        std::span<const std::uint32_t> scores,
                        std::uint64_t work_cap) {
  std::vector<VertexId> a{seed};
  std::vector<VertexId> b(g.Neighbors(side, seed).begin(),
                          g.Neighbors(side, seed).end());

  Biclique best;
  const auto update_best = [&best, side](const std::vector<VertexId>& av,
                                         const std::vector<VertexId>& bv) {
    const std::uint32_t size = static_cast<std::uint32_t>(
        std::min(av.size(), bv.size()));
    if (size > best.BalancedSize()) {
      best.left = side == Side::kLeft ? av : bv;
      best.right = side == Side::kLeft ? bv : av;
    }
  };
  update_best(a, b);

  // Scratch: common-neighbour counts over the seed's side, stamped per
  // round to avoid O(n) clears.
  std::vector<std::uint32_t> count(g.NumVertices(side), 0);
  std::vector<std::uint32_t> stamp(g.NumVertices(side), ~std::uint32_t{0});
  std::vector<bool> in_a(g.NumVertices(side), false);
  in_a[seed] = true;

  std::uint64_t work = 0;
  std::uint32_t round = 0;
  while (b.size() > a.size() && work < work_cap) {
    ++round;
    VertexId best_w = 0;
    std::uint32_t best_count = 0;
    std::uint32_t best_score = 0;
    bool found = false;
    for (const VertexId r : b) {
      const std::span<const VertexId> nbrs = g.Neighbors(Opposite(side), r);
      work += nbrs.size();
      for (const VertexId w : nbrs) {
        if (in_a[w]) continue;
        if (stamp[w] != round) {
          stamp[w] = round;
          count[w] = 0;
        }
        ++count[w];
        const std::uint32_t score =
            scores.empty() ? 0 : scores[g.GlobalIndex(side, w)];
        if (!found || count[w] > best_count ||
            (count[w] == best_count && score > best_score)) {
          found = true;
          best_w = w;
          best_count = count[w];
          best_score = score;
        }
      }
      if (work >= work_cap) break;
    }
    // Adding w must keep the balanced size growing: the shrunk B must stay
    // larger than the current A, otherwise stopping now is at least as good.
    if (!found || best_count <= a.size()) break;

    a.push_back(best_w);
    in_a[best_w] = true;
    std::vector<VertexId> next_b;
    next_b.reserve(best_count);
    for (const VertexId r : b) {
      if (g.HasEdge(side == Side::kLeft ? best_w : r,
                    side == Side::kLeft ? r : best_w)) {
        next_b.push_back(r);
      }
    }
    b = std::move(next_b);
    update_best(a, b);
  }
  best.MakeBalanced();
  return best;
}

std::vector<std::pair<Side, VertexId>> TopSeeds(
    const BipartiteGraph& g, std::span<const std::uint32_t> scores,
    int top_r) {
  std::vector<std::uint32_t> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t keep = std::min<std::size_t>(
      order.size(), static_cast<std::size_t>(std::max(top_r, 1)) * 2);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&scores](std::uint32_t x, std::uint32_t y) {
                      return scores[x] > scores[y];
                    });
  std::vector<std::pair<Side, VertexId>> seeds;
  int left_taken = 0;
  int right_taken = 0;
  for (std::size_t i = 0; i < keep; ++i) {
    const Side side = g.SideOf(order[i]);
    int& taken = side == Side::kLeft ? left_taken : right_taken;
    if (taken >= top_r) continue;
    ++taken;
    seeds.emplace_back(side, g.LocalId(order[i]));
  }
  return seeds;
}

}  // namespace

std::vector<std::uint32_t> DegreeScores(const BipartiteGraph& g) {
  std::vector<std::uint32_t> scores;
  DegreeScoresInto(g, scores);
  return scores;
}

void DegreeScoresInto(const BipartiteGraph& g,
                      std::vector<std::uint32_t>& out) {
  out.resize(g.NumVertices());
  for (std::uint32_t v = 0; v < g.NumVertices(); ++v) {
    out[v] = g.Degree(g.SideOf(v), g.LocalId(v));
  }
}

Biclique GreedyMbb(const BipartiteGraph& g,
                   std::span<const std::uint32_t> scores,
                   const GreedyOptions& options) {
  Biclique best;
  if (g.num_left() == 0 || g.num_right() == 0) return best;
  for (const auto& [side, seed] : TopSeeds(g, scores, options.top_r)) {
    Biclique candidate =
        GreedyFromSeed(g, side, seed, scores, options.work_cap);
    if (candidate.BalancedSize() > best.BalancedSize()) {
      best = std::move(candidate);
    }
  }
  return best;
}

HMbbOutcome HMbb(const BipartiteGraph& g, const GreedyOptions& options,
                 bool) {
  HMbbOutcome out;
  out.stats.terminated_step = 1;
  // One reusable scratch serves both reduction rounds.
  CsrScratch scratch;
  const auto reduce = [&](const KCoreVertices& kept) {
    return CsrInduce(g, kept.left, kept.right, scratch);
  };

  // Line 2: maximum-degree greedy.
  const std::vector<std::uint32_t> degrees = DegreeScores(g);
  out.best = GreedyMbb(g, degrees, options);
  std::uint32_t k = out.best.BalancedSize();

  // Line 4: Lemma 4 reduction to the (k+1)-core + core numbers. Core
  // numbers inside a k-core equal those in the full graph, so one
  // decomposition serves every later query.
  const CoreDecomposition cores = ComputeCores(g);

  // Line 5: Lemma 5 — a balanced biclique of side size k' lives inside the
  // k'-core, so k' <= δ(G); reaching δ(G) certifies optimality.
  if (k >= cores.degeneracy) {
    out.solved_exactly = true;
    return out;
  }

  const KCoreVertices kept = KCore(cores, g, k + 1);
  if (kept.left.empty() || kept.right.empty()) {
    out.solved_exactly = true;
    return out;
  }
  InducedSubgraph reduced = reduce(kept);

  // Line 6: maximum-core greedy on the reduced graph.
  std::vector<std::uint32_t> reduced_cores(reduced.graph.NumVertices());
  for (VertexId l = 0; l < reduced.graph.num_left(); ++l) {
    reduced_cores[reduced.graph.GlobalIndex(Side::kLeft, l)] =
        cores.core[g.GlobalIndex(Side::kLeft, reduced.left_to_old[l])];
  }
  for (VertexId r = 0; r < reduced.graph.num_right(); ++r) {
    reduced_cores[reduced.graph.GlobalIndex(Side::kRight, r)] =
        cores.core[g.GlobalIndex(Side::kRight, reduced.right_to_old[r])];
  }
  Biclique core_best = GreedyMbb(reduced.graph, reduced_cores, options);

  // Lines 7-11: keep the larger result, reduce again, re-test Lemma 5.
  if (core_best.BalancedSize() > k) {
    k = core_best.BalancedSize();
    // Translate to original ids.
    for (VertexId& l : core_best.left) l = reduced.left_to_old[l];
    for (VertexId& r : core_best.right) r = reduced.right_to_old[r];
    out.best = std::move(core_best);

    if (k >= cores.degeneracy) {
      out.solved_exactly = true;
      return out;
    }
    const KCoreVertices kept2 = KCore(cores, g, k + 1);
    if (kept2.left.empty() || kept2.right.empty()) {
      out.solved_exactly = true;
      return out;
    }
    reduced = reduce(kept2);
  }

  out.stats.step1_vertices_removed =
      g.NumVertices() - reduced.graph.NumVertices();
  out.stats.step1_edges_removed = g.num_edges() - reduced.graph.num_edges();
  out.reduced = std::move(reduced.graph);
  out.left_map = std::move(reduced.left_to_old);
  out.right_map = std::move(reduced.right_to_old);
  return out;
}

}  // namespace mbb
