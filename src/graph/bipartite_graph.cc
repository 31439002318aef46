#include "graph/bipartite_graph.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mbb {

namespace {

/// Structured message for edge `i`'s out-of-range endpoint ("edge 3: right
/// id 12 out of range [0, 6)").
std::string OutOfRange(std::size_t i, const char* side, VertexId id,
                       std::uint32_t bound) {
  return "edge " + std::to_string(i) + ": " + side + " id " +
         std::to_string(id) + " out of range [0, " + std::to_string(bound) +
         ")";
}

}  // namespace

// One pass counts left degrees and validates every endpoint — in release
// builds too, so a hostile or buggy edge list fails loudly instead of
// corrupting the offset arrays (the contract `ReadEdgeListSafe` gives file
// input). The right ids are then scattered into their left rows, each row
// is sorted and deduplicated on its own (rows are short next to |E|), and
// `FromCsrLeft` derives the right side: O(|E| + Σ d·log d) with no global
// edge sort.
bool BipartiteGraph::TryFromEdges(std::uint32_t num_left,
                                  std::uint32_t num_right,
                                  std::vector<Edge> edges,
                                  BipartiteGraph* out, std::string* error) {
  std::vector<std::uint64_t> offsets(num_left + std::size_t{1}, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [l, r] = edges[i];
    if (l >= num_left || r >= num_right) {
      if (error != nullptr) {
        *error = l >= num_left ? OutOfRange(i, "left", l, num_left)
                               : OutOfRange(i, "right", r, num_right);
      }
      return false;
    }
    ++offsets[l + 1];
  }
  for (std::size_t l = 1; l < offsets.size(); ++l) {
    offsets[l] += offsets[l - 1];
  }

  std::vector<VertexId> adj(edges.size());
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [l, r] : edges) adj[cursor[l]++] = r;
  }
  edges = {};

  // Sort and dedup each row in place, sliding it down over the duplicates
  // dropped from earlier rows.
  auto read = adj.begin();
  auto write = adj.begin();
  for (std::uint32_t l = 0; l < num_left; ++l) {
    const auto end = adj.begin() + static_cast<std::ptrdiff_t>(offsets[l + 1]);
    std::sort(read, end);
    write = std::copy(read, std::unique(read, end), write);
    read = end;
    offsets[l + 1] = static_cast<std::uint64_t>(write - adj.begin());
  }
  adj.erase(write, adj.end());
  adj.shrink_to_fit();  // a no-op unless duplicates were dropped

  *out = FromCsrLeft(num_left, num_right, std::move(offsets), std::move(adj));
  return true;
}

BipartiteGraph BipartiteGraph::FromEdges(std::uint32_t num_left,
                                         std::uint32_t num_right,
                                         std::vector<Edge> edges) {
  BipartiteGraph g;
  std::string error;
  if (!TryFromEdges(num_left, num_right, std::move(edges), &g, &error)) {
    throw std::invalid_argument(error);
  }
  return g;
}

BipartiteGraph BipartiteGraph::FromCsrLeft(
    std::uint32_t num_left, std::uint32_t num_right,
    std::vector<std::uint64_t> left_offsets, std::vector<VertexId> left_adj) {
  assert(left_offsets.size() == num_left + std::size_t{1});
  assert(left_offsets.empty() || left_offsets.back() == left_adj.size());
#ifndef NDEBUG
  for (std::uint32_t l = 0; l < num_left; ++l) {
    for (std::uint64_t i = left_offsets[l]; i < left_offsets[l + 1]; ++i) {
      assert(left_adj[i] < num_right);
      assert(i == left_offsets[l] || left_adj[i - 1] < left_adj[i]);
    }
  }
#endif
  BipartiteGraph g;
  g.num_left_ = num_left;
  g.num_right_ = num_right;
  g.left_offsets_ = std::move(left_offsets);
  g.left_adj_ = std::move(left_adj);

  g.right_offsets_.assign(num_right + std::size_t{1}, 0);
  for (const VertexId r : g.left_adj_) ++g.right_offsets_[r + 1];
  for (std::size_t i = 1; i < g.right_offsets_.size(); ++i) {
    g.right_offsets_[i] += g.right_offsets_[i - 1];
  }
  g.right_adj_.resize(g.left_adj_.size());
  {
    std::vector<std::uint64_t> cursor(g.right_offsets_.begin(),
                                      g.right_offsets_.end() - 1);
    // Left rows visited in increasing id keep every right list sorted.
    for (VertexId l = 0; l < num_left; ++l) {
      for (std::uint64_t i = g.left_offsets_[l]; i < g.left_offsets_[l + 1];
           ++i) {
        g.right_adj_[cursor[g.left_adj_[i]]++] = l;
      }
    }
  }
  return g;
}

double BipartiteGraph::Density() const {
  if (num_left_ == 0 || num_right_ == 0) return 0.0;
  return static_cast<double>(num_edges()) /
         (static_cast<double>(num_left_) * static_cast<double>(num_right_));
}

std::span<const VertexId> BipartiteGraph::Neighbors(Side side,
                                                    VertexId v) const {
  if (side == Side::kLeft) {
    assert(v < num_left_);
    return {left_adj_.data() + left_offsets_[v],
            left_adj_.data() + left_offsets_[v + 1]};
  }
  assert(v < num_right_);
  return {right_adj_.data() + right_offsets_[v],
          right_adj_.data() + right_offsets_[v + 1]};
}

bool BipartiteGraph::HasEdge(VertexId l, VertexId r) const {
  const std::span<const VertexId> ln = Neighbors(Side::kLeft, l);
  const std::span<const VertexId> rn = Neighbors(Side::kRight, r);
  if (ln.size() <= rn.size()) {
    return std::binary_search(ln.begin(), ln.end(), r);
  }
  return std::binary_search(rn.begin(), rn.end(), l);
}

std::uint32_t BipartiteGraph::MaxDegree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_left_; ++v) {
    best = std::max(best, Degree(Side::kLeft, v));
  }
  for (VertexId v = 0; v < num_right_; ++v) {
    best = std::max(best, Degree(Side::kRight, v));
  }
  return best;
}

InducedSubgraph BipartiteGraph::Induce(
    std::span<const VertexId> left_keep,
    std::span<const VertexId> right_keep) const {
  constexpr VertexId kAbsent = ~VertexId{0};
  std::vector<VertexId> right_new(num_right_, kAbsent);
  for (std::size_t i = 0; i < right_keep.size(); ++i) {
    assert(right_new[right_keep[i]] == kAbsent);
    right_new[right_keep[i]] = static_cast<VertexId>(i);
  }

  std::vector<Edge> edges;
  for (std::size_t i = 0; i < left_keep.size(); ++i) {
    for (const VertexId r : Neighbors(Side::kLeft, left_keep[i])) {
      if (right_new[r] != kAbsent) {
        edges.emplace_back(static_cast<VertexId>(i), right_new[r]);
      }
    }
  }

  InducedSubgraph out;
  out.graph = FromEdges(static_cast<std::uint32_t>(left_keep.size()),
                        static_cast<std::uint32_t>(right_keep.size()),
                        std::move(edges));
  out.left_to_old.assign(left_keep.begin(), left_keep.end());
  out.right_to_old.assign(right_keep.begin(), right_keep.end());
  return out;
}

std::vector<Edge> BipartiteGraph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(left_adj_.size());
  for (VertexId l = 0; l < num_left_; ++l) {
    for (const VertexId r : Neighbors(Side::kLeft, l)) {
      edges.emplace_back(l, r);
    }
  }
  return edges;
}

}  // namespace mbb
