#include "core/heuristic_mbb.h"

#include <algorithm>
#include <numeric>

#include "graph/csr.h"
#include "order/core_decomposition.h"

namespace mbb {

namespace {

/// Scratch of one `GreedyMbb` call, shared by its seeds. Every entry is
/// back to zero when a seed's run returns, so each run touches only the
/// vertices near its seed.
struct GreedyScratch {
  explicit GreedyScratch(const BipartiteGraph& g)
      : count(std::max(g.num_left(), g.num_right()), 0),
        in_a(count.size(), 0),
        in_b(count.size(), 0) {}

  std::vector<std::uint32_t> count;  // seed side: |N(w) ∩ B|
  std::vector<std::uint8_t> in_a;    // seed side: 1 in A
  std::vector<std::uint8_t> in_b;    // other side: 1 in B, 2 while marked
  std::vector<VertexId> candidates;  // seed side: the seed's 2-hop set
};

/// The vertex a greedy round adds to A, with its common-neighbour count.
struct GreedyPick {
  bool found = false;
  VertexId w = 0;
  std::uint32_t count = 0;
  std::uint32_t score = 0;
};

/// Grows a biclique from seed `(side, seed)`: A starts as {seed}, B as
/// N(seed); each round adds the same-side vertex keeping the most of B
/// (ties: higher score, then the smaller largest common neighbour in B,
/// then the smaller id), shrinking B to the common neighbourhood, until B
/// is no larger than A. Returns the best balanced biclique encountered.
///
/// `count[w] = |N(w) ∩ B|` is built once from B = N(seed) and decremented
/// over N(r) for each r leaving B. The tie order is the one a per-round
/// scan of B's adjacency (B and every adjacency list sorted) produces: the
/// first candidate to reach the top (count, score) wins. `work` still
/// charges Σ_{r∈B} deg(r) per round, as that scan would; the round that
/// reaches `work_cap` is the last and replays that scan over the prefix of
/// B the cap allows.
Biclique GreedyFromSeed(const BipartiteGraph& g, Side side, VertexId seed,
                        std::span<const std::uint32_t> scores,
                        std::uint64_t work_cap, GreedyScratch& scratch) {
  const Side other = Opposite(side);
  std::vector<std::uint32_t>& count = scratch.count;
  std::vector<std::uint8_t>& in_a = scratch.in_a;
  std::vector<std::uint8_t>& in_b = scratch.in_b;
  std::vector<VertexId>& candidates = scratch.candidates;
  const auto score_of = [&](VertexId w) -> std::uint32_t {
    return scores.empty() ? 0 : scores[g.GlobalIndex(side, w)];
  };

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

  in_a[seed] = 1;
  candidates.clear();
  std::uint64_t b_work = 0;  // Σ_{r∈B} deg(r)
  for (const VertexId r : b) {
    in_b[r] = 1;
    const std::span<const VertexId> nbrs = g.Neighbors(other, r);
    b_work += nbrs.size();
    for (const VertexId w : nbrs) {
      if (count[w]++ == 0) candidates.push_back(w);
    }
  }

  // The largest neighbour of w that is in B (w has one).
  const auto last_in_b = [&](VertexId w) {
    const std::span<const VertexId> nbrs = g.Neighbors(side, w);
    return *std::find_if(nbrs.rbegin(), nbrs.rend(),
                         [&in_b](VertexId r) { return in_b[r] != 0; });
  };
  // Argmax over the candidates by the full counts; drops A members and
  // candidates that lost every common neighbour.
  const auto pick_by_counts = [&] {
    GreedyPick pick;
    VertexId pick_last = 0;
    bool pick_last_known = false;
    std::size_t kept = 0;
    for (const VertexId w : candidates) {
      if (in_a[w] != 0 || count[w] == 0) continue;
      candidates[kept++] = w;
      const std::uint32_t c = count[w];
      const std::uint32_t s = score_of(w);
      if (!pick.found || c > pick.count ||
          (c == pick.count && s > pick.score)) {
        pick = {true, w, c, s};
        pick_last_known = false;
      } else if (c == pick.count && s == pick.score) {
        if (!pick_last_known) {
          pick_last = last_in_b(pick.w);
          pick_last_known = true;
        }
        const VertexId last = last_in_b(w);
        if (last < pick_last || (last == pick_last && w < pick.w)) {
          pick.w = w;
          pick_last = last;
        }
      }
    }
    candidates.resize(kept);
    return pick;
  };
  // The capped round: recount over the prefix of B the cap allows, picking
  // as the counts grow. Counts are zeroed first; every vertex the scan
  // touches is a candidate or in A, which is what the cleanup resets.
  std::uint64_t work = 0;
  const auto pick_by_prefix_scan = [&] {
    for (const VertexId w : candidates) count[w] = 0;
    for (const VertexId w : a) count[w] = 0;
    GreedyPick pick;
    for (const VertexId r : b) {
      const std::span<const VertexId> nbrs = g.Neighbors(other, r);
      work += nbrs.size();
      for (const VertexId w : nbrs) {
        if (in_a[w] != 0) continue;
        const std::uint32_t c = ++count[w];
        const std::uint32_t s = score_of(w);
        if (!pick.found || c > pick.count ||
            (c == pick.count && s > pick.score)) {
          pick = {true, w, c, s};
        }
      }
      if (work >= work_cap) break;
    }
    return pick;
  };

  while (b.size() > a.size() && work < work_cap) {
    const bool last_round = work_cap - work <= b_work;
    GreedyPick pick;
    if (last_round) {
      pick = pick_by_prefix_scan();
    } else {
      work += b_work;
      pick = pick_by_counts();
    }
    // Adding w must keep the balanced size growing: the shrunk B must stay
    // larger than the current A, otherwise stopping now is at least as good.
    if (!pick.found || pick.count <= a.size()) break;

    a.push_back(pick.w);
    in_a[pick.w] = 1;
    // B <- B ∩ N(w): mark N(w) ∩ B, keep the marked, uncount the rest.
    for (const VertexId r : g.Neighbors(side, pick.w)) {
      if (in_b[r] != 0) in_b[r] = 2;
    }
    std::size_t kept = 0;
    for (const VertexId r : b) {
      if (in_b[r] == 2) {
        in_b[r] = 1;
        b[kept++] = r;
        continue;
      }
      in_b[r] = 0;
      const std::span<const VertexId> nbrs = g.Neighbors(other, r);
      b_work -= nbrs.size();
      if (last_round) continue;
      for (const VertexId w : nbrs) --count[w];
    }
    b.resize(kept);
    update_best(a, b);
  }

  for (const VertexId w : candidates) count[w] = 0;
  for (const VertexId w : a) {
    count[w] = 0;
    in_a[w] = 0;
  }
  for (const VertexId r : b) in_b[r] = 0;
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
  GreedyScratch scratch(g);
  for (const auto& [side, seed] : TopSeeds(g, scores, options.top_r)) {
    Biclique candidate =
        GreedyFromSeed(g, side, seed, scores, options.work_cap, scratch);
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
