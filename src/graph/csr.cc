#include "graph/csr.h"

#include <algorithm>
#include <cassert>
#include <new>

#include "engine/budget.h"
#include "engine/faults.h"

namespace mbb {

CsrScratch::~CsrScratch() {
  if (budget_ != nullptr) budget_->Release(charged_bytes_);
}

void CsrScratch::RechargeBudget(std::uint64_t bytes) {
  if (budget_ != nullptr) budget_->Release(charged_bytes_);
  charged_bytes_ = 0;
  budget_ = MemoryBudget::Current();
  if (budget_ != nullptr) {
    budget_->Charge(bytes);
    charged_bytes_ = bytes;
  }
}

void CsrScratch::Reset(std::uint32_t num_left, std::uint32_t num_right,
                       std::uint64_t num_edges_hint) {
  MBB_INJECT_FAULT("alloc.csr", throw std::bad_alloc());
  // Approximate footprint of the buffers reserved below: both sides hold
  // the adjacency plus per-vertex arrays. Charged up front so a budgeted
  // solve fails here, before the copies happen.
  const std::uint64_t per_vertex =
      sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(VertexId) + 1;
  const std::uint64_t per_edge = sizeof(VertexId);
  RechargeBudget(2 * num_edges_hint * per_edge +
                 (static_cast<std::uint64_t>(num_left) + num_right) *
                     per_vertex);
  const std::uint32_t n[2] = {num_left, num_right};
  for (int s = 0; s < 2; ++s) {
    offsets_[s].clear();
    offsets_[s].reserve(n[s] + 1);
    adj_[s].clear();
    adj_[s].reserve(num_edges_hint);
    degree_[s].clear();
    degree_[s].reserve(n[s]);
    alive_[s].assign(n[s], 1);
    old_id_[s].clear();
    old_id_[s].reserve(n[s]);
    num_alive_[s] = n[s];
  }
  live_edges_ = 0;
}

void CsrScratch::BuildRightFromLeft() {
  // Counting pass: left rows are visited in increasing new-left id with
  // sorted right ids, so each right vertex's list fills with increasing
  // left ids — sorted without sorting (as in `FromCsrLeft`).
  const std::uint32_t num_right = static_cast<std::uint32_t>(alive_[1].size());
  offsets_[1].assign(num_right + 1, 0);
  for (const VertexId r : adj_[0]) ++offsets_[1][r + 1];
  for (std::uint32_t r = 1; r <= num_right; ++r) {
    offsets_[1][r] += offsets_[1][r - 1];
  }
  adj_[1].resize(adj_[0].size());
  {
    std::vector<std::uint64_t> cursor(offsets_[1].begin(),
                                      offsets_[1].end() - 1);
    const std::uint32_t num_left = static_cast<std::uint32_t>(alive_[0].size());
    for (VertexId l = 0; l < num_left; ++l) {
      for (std::uint64_t i = offsets_[0][l]; i < offsets_[0][l + 1]; ++i) {
        adj_[1][cursor[adj_[0][i]]++] = l;
      }
    }
  }
  degree_[1].assign(num_right, 0);
  for (VertexId r = 0; r < num_right; ++r) {
    degree_[1][r] =
        static_cast<std::uint32_t>(offsets_[1][r + 1] - offsets_[1][r]);
  }
  live_edges_ = adj_[0].size();
}

void CsrScratch::Load(const BipartiteGraph& g) {
  Reset(g.num_left(), g.num_right(), g.num_edges());
  const CsrView view = CsrView::Of(g);
  offsets_[0].push_back(0);
  for (VertexId l = 0; l < g.num_left(); ++l) {
    const std::span<const VertexId> nbrs = view.Neighbors(Side::kLeft, l);
    adj_[0].insert(adj_[0].end(), nbrs.begin(), nbrs.end());
    offsets_[0].push_back(adj_[0].size());
    degree_[0].push_back(static_cast<std::uint32_t>(nbrs.size()));
    old_id_[0].push_back(l);
  }
  for (VertexId r = 0; r < g.num_right(); ++r) old_id_[1].push_back(r);
  BuildRightFromLeft();
}

void CsrScratch::LoadSubgraph(const BipartiteGraph& g,
                              std::span<const VertexId> left_keep,
                              std::span<const VertexId> right_keep) {
  Reset(static_cast<std::uint32_t>(left_keep.size()),
        static_cast<std::uint32_t>(right_keep.size()),
        /*num_edges_hint=*/left_keep.size() * 4);

  // Map old right id -> new id via the stamped lookup (no O(|R|) clear).
  if (map_.size() < g.num_right()) {
    map_.resize(g.num_right());
    map_stamp_.resize(g.num_right(), map_round_);
  }
  ++map_round_;
  for (std::size_t i = 0; i < right_keep.size(); ++i) {
    assert(right_keep[i] < g.num_right());
    map_[right_keep[i]] = static_cast<VertexId>(i);
    map_stamp_[right_keep[i]] = map_round_;
    old_id_[1].push_back(right_keep[i]);
  }

  offsets_[0].push_back(0);
  for (std::size_t i = 0; i < left_keep.size(); ++i) {
    assert(left_keep[i] < g.num_left());
    const std::size_t row_begin = adj_[0].size();
    for (const VertexId r : g.Neighbors(Side::kLeft, left_keep[i])) {
      if (map_stamp_[r] == map_round_) adj_[0].push_back(map_[r]);
    }
    // New right ids follow `right_keep`'s order, so a row mapped from the
    // old-id-sorted adjacency is generally unsorted; each row is sorted on
    // its own, as in `FromEdges`.
    std::sort(adj_[0].begin() + static_cast<std::ptrdiff_t>(row_begin),
              adj_[0].end());
    offsets_[0].push_back(adj_[0].size());
    degree_[0].push_back(
        static_cast<std::uint32_t>(adj_[0].size() - row_begin));
    old_id_[0].push_back(left_keep[i]);
  }
  BuildRightFromLeft();
}

PeelStats CsrScratch::PeelToCore(std::uint32_t k) {
  PeelStats stats;
  if (k == 0) return stats;
  peel_queue_.clear();
  for (int s = 0; s < 2; ++s) {
    const std::uint32_t n = static_cast<std::uint32_t>(alive_[s].size());
    for (VertexId v = 0; v < n; ++v) {
      if (alive_[s][v] != 0 && degree_[s][v] < k) {
        peel_queue_.emplace_back(static_cast<std::uint8_t>(s), v);
      }
    }
  }
  while (!peel_queue_.empty()) {
    const auto [s, v] = peel_queue_.back();
    peel_queue_.pop_back();
    if (alive_[s][v] == 0) continue;
    const int o = 1 - s;
    // Kill `v`, queueing neighbours whose live degree crosses below k.
    alive_[s][v] = 0;
    --num_alive_[s];
    live_edges_ -= degree_[s][v];
    stats.edges_removed += degree_[s][v];
    ++stats.vertices_removed;
    for (std::uint64_t i = offsets_[s][v]; i < offsets_[s][v + 1]; ++i) {
      const VertexId w = adj_[s][i];
      if (alive_[o][w] == 0) continue;
      if (--degree_[o][w] == k - 1) {
        peel_queue_.emplace_back(static_cast<std::uint8_t>(o), w);
      }
    }
    degree_[s][v] = 0;
  }
  return stats;
}

std::vector<VertexId> CsrScratch::LiveOldIds(Side side) const {
  const int s = static_cast<int>(side);
  std::vector<VertexId> out;
  out.reserve(num_alive_[s]);
  const std::uint32_t n = static_cast<std::uint32_t>(alive_[s].size());
  for (VertexId v = 0; v < n; ++v) {
    if (alive_[s][v] != 0) out.push_back(old_id_[s][v]);
  }
  return out;
}

InducedSubgraph CsrScratch::Compact() const {
  InducedSubgraph out;
  // New-id maps over the live vertices, in scratch-id order (matching the
  // list order `Induce` would see from `LiveOldIds`).
  const std::uint32_t nl = static_cast<std::uint32_t>(alive_[0].size());
  const std::uint32_t nr = static_cast<std::uint32_t>(alive_[1].size());
  constexpr VertexId kAbsent = ~VertexId{0};
  std::vector<VertexId> right_new(nr, kAbsent);
  {
    VertexId next = 0;
    for (VertexId r = 0; r < nr; ++r) {
      if (alive_[1][r] != 0) {
        right_new[r] = next++;
        out.right_to_old.push_back(old_id_[1][r]);
      }
    }
  }
  std::vector<std::uint64_t> left_offsets;
  left_offsets.reserve(num_alive_[0] + 1);
  left_offsets.push_back(0);
  std::vector<VertexId> left_adj;
  left_adj.reserve(live_edges_);
  for (VertexId l = 0; l < nl; ++l) {
    if (alive_[0][l] == 0) continue;
    out.left_to_old.push_back(old_id_[0][l]);
    for (std::uint64_t i = offsets_[0][l]; i < offsets_[0][l + 1]; ++i) {
      const VertexId r = adj_[0][i];
      if (alive_[1][r] == 0) continue;
      // Live scratch rows are sorted and `right_new` is monotone in the
      // scratch id, so the compacted rows stay sorted.
      left_adj.push_back(right_new[r]);
    }
    left_offsets.push_back(left_adj.size());
  }
  out.graph = BipartiteGraph::FromCsrLeft(
      static_cast<std::uint32_t>(out.left_to_old.size()),
      static_cast<std::uint32_t>(out.right_to_old.size()),
      std::move(left_offsets), std::move(left_adj));
  return out;
}

InducedSubgraph CsrInduce(const BipartiteGraph& g,
                          std::span<const VertexId> left_keep,
                          std::span<const VertexId> right_keep,
                          CsrScratch& scratch) {
  scratch.LoadSubgraph(g, left_keep, right_keep);
  return scratch.Compact();
}

}  // namespace mbb
