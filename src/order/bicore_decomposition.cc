#include "order/bicore_decomposition.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace mbb {

namespace {

/// Mutable residual view of a bipartite graph over global vertex indices.
/// Adjacency lists keep alive neighbours in a prefix; each directed entry
/// stores the position of its twin so removals are O(deg(u)).
class ResidualGraph {
 public:
  explicit ResidualGraph(const BipartiteGraph& g) {
    const std::uint32_t n = g.NumVertices();
    adj_.resize(n);
    alive_deg_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      const Side side = g.SideOf(v);
      const std::span<const VertexId> nbrs = g.Neighbors(side, g.LocalId(v));
      adj_[v].reserve(nbrs.size());
      for (const VertexId w_local : nbrs) {
        const std::uint32_t w = g.GlobalIndex(Opposite(side), w_local);
        adj_[v].push_back({w, 0});
      }
      alive_deg_[v] = static_cast<std::uint32_t>(nbrs.size());
    }
    // Fill twin positions: the entry for edge (v -> w) records where the
    // reverse entry (w -> v) sits in adj_[w]. Every adjacency list is sorted
    // by neighbour's global index, and the entries of adj_[w] with nbr < w
    // form a prefix of adj_[w]; visiting the smaller endpoints in increasing
    // order therefore consumes that prefix left to right, so a single cursor
    // per vertex pairs all twins in linear time. In the bipartite global
    // index space, left vertices are always the smaller endpoint.
    std::vector<std::uint32_t> cursor(n, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t i = 0; i < adj_[v].size(); ++i) {
        const std::uint32_t w = adj_[v][i].nbr;
        if (w < v) continue;  // paired when w was visited as smaller endpoint
        const std::uint32_t j = cursor[w]++;
        adj_[v][i].twin = j;
        adj_[w][j].twin = i;
      }
    }
  }

  std::uint32_t AliveDegree(std::uint32_t v) const { return alive_deg_[v]; }

  /// Calls `fn(w)` for every alive neighbour w of `v`.
  template <typename Fn>
  void ForEachAliveNeighbor(std::uint32_t v, Fn&& fn) const {
    for (std::uint32_t i = 0; i < alive_deg_[v]; ++i) {
      fn(adj_[v][i].nbr);
    }
  }

  /// Removes `u` from the residual graph: detaches it from every alive
  /// neighbour's alive prefix. `u` itself is marked dead (degree 0).
  void Remove(std::uint32_t u) {
    for (std::uint32_t i = 0; i < alive_deg_[u]; ++i) {
      const std::uint32_t v = adj_[u][i].nbr;
      const std::uint32_t pos = adj_[u][i].twin;  // position of u in adj_[v]
      const std::uint32_t last = alive_deg_[v] - 1;
      SwapEntries(v, pos, last);
      --alive_deg_[v];
    }
    alive_deg_[u] = 0;
  }

 private:
  struct Entry {
    std::uint32_t nbr;
    std::uint32_t twin;  // position of the reverse entry in adj_[nbr]
  };

  void SwapEntries(std::uint32_t v, std::uint32_t a, std::uint32_t b) {
    if (a == b) return;
    std::swap(adj_[v][a], adj_[v][b]);
    // Fix the twin back-pointers of the two moved entries.
    adj_[adj_[v][a].nbr][adj_[v][a].twin].twin = a;
    adj_[adj_[v][b].nbr][adj_[v][b].twin].twin = b;
  }

  std::vector<std::vector<Entry>> adj_;
  std::vector<std::uint32_t> alive_deg_;
};

/// Enumerates `N≤2(u)` in the residual graph, calling `fn(v)` once per
/// distinct vertex. `stamp`/`stamp_value` implement O(1) dedup across calls.
template <typename Fn>
void ForEachN2(const ResidualGraph& rg, std::uint32_t u,
               std::vector<std::uint32_t>& stamp, std::uint32_t stamp_value,
               Fn&& fn) {
  stamp[u] = stamp_value;  // never report u itself
  rg.ForEachAliveNeighbor(u, [&](std::uint32_t v) {
    if (stamp[v] != stamp_value) {
      stamp[v] = stamp_value;
      fn(v);
    }
    rg.ForEachAliveNeighbor(v, [&](std::uint32_t w) {
      if (stamp[w] != stamp_value) {
        stamp[w] = stamp_value;
        fn(w);
      }
    });
  });
}

/// The peel's priority `(|N≤2|, residual degree)` packed into one word;
/// `PeelQueue` breaks ties by vertex id.
std::uint64_t PeelKey(std::uint32_t n2_size, std::uint32_t degree) {
  return std::uint64_t{n2_size} << 32 | degree;
}

/// Indexed 4-ary min-heap over the vertices, ordered by `(key, id)`. It
/// tracks every vertex's slot, so lowering a key is one sift-up and
/// nothing is allocated after construction.
class PeelQueue {
 public:
  explicit PeelQueue(std::vector<std::uint64_t> keys)
      : key_(std::move(keys)), heap_(key_.size()), slot_(key_.size()) {
    std::iota(heap_.begin(), heap_.end(), 0u);
    std::iota(slot_.begin(), slot_.end(), 0u);
    for (std::size_t i = heap_.size(); i-- > 0;) SiftDown(i);
  }

  bool Empty() const { return heap_.empty(); }

  std::uint32_t PopMin() {
    const std::uint32_t top = heap_.front();
    heap_.front() = heap_.back();
    slot_[heap_.front()] = 0;
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
    return top;
  }

  /// Lowers the key of `v`, which must still be queued.
  void Decrease(std::uint32_t v, std::uint64_t key) {
    key_[v] = key;
    SiftUp(slot_[v]);
  }

 private:
  static constexpr std::size_t kArity = 4;

  bool Less(std::uint32_t a, std::uint32_t b) const {
    return key_[a] < key_[b] || (key_[a] == key_[b] && a < b);
  }

  void Place(std::size_t i, std::uint32_t v) {
    heap_[i] = v;
    slot_[v] = static_cast<std::uint32_t>(i);
  }

  void SiftUp(std::size_t i) {
    const std::uint32_t v = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!Less(v, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, v);
  }

  void SiftDown(std::size_t i) {
    const std::uint32_t v = heap_[i];
    while (true) {
      const std::size_t first = i * kArity + 1;
      if (first >= heap_.size()) break;
      const std::size_t last = std::min(first + kArity, heap_.size());
      std::size_t child = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (Less(heap_[c], heap_[child])) child = c;
      }
      if (!Less(heap_[child], v)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, v);
  }

  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> heap_;  // vertices in heap order
  std::vector<std::uint32_t> slot_;  // slot_[v]: v's index in heap_
};

}  // namespace

std::vector<std::uint32_t> ComputeN2Sizes(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  std::vector<std::uint32_t> sizes(n, 0);
  std::vector<std::uint32_t> stamp(n, ~std::uint32_t{0});
  for (std::uint32_t u = 0; u < n; ++u) {
    const Side side = g.SideOf(u);
    const VertexId local = g.LocalId(u);
    std::uint32_t count = 0;
    stamp[u] = u;
    for (const VertexId v_local : g.Neighbors(side, local)) {
      const std::uint32_t v = g.GlobalIndex(Opposite(side), v_local);
      if (stamp[v] != u) {
        stamp[v] = u;
        ++count;
      }
      for (const VertexId w_local : g.Neighbors(Opposite(side), v_local)) {
        const std::uint32_t w = g.GlobalIndex(side, w_local);
        if (stamp[w] != u) {
          stamp[w] = u;
          ++count;
        }
      }
    }
    sizes[u] = count;
    // Reset is implicit: the stamp value is unique per u.
  }
  return sizes;
}

BicoreDecomposition ComputeBicores(const BipartiteGraph& g) {
  const std::uint32_t n = g.NumVertices();
  BicoreDecomposition out;
  out.bicore.assign(n, 0);
  out.order.reserve(n);
  out.initial_n2_size = ComputeN2Sizes(g);
  if (n == 0) return out;

  ResidualGraph rg(g);
  std::vector<std::uint32_t> value = out.initial_n2_size;  // residual |N≤2|
  std::vector<std::uint64_t> keys(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    keys[v] = PeelKey(value[v], rg.AliveDegree(v));
  }
  PeelQueue queue(std::move(keys));

  std::vector<std::uint32_t> stamp(n, ~std::uint32_t{0});
  std::vector<std::uint32_t> affected;
  std::uint32_t running_max = 0;
  std::uint32_t round = 0;
  while (!queue.Empty()) {
    const std::uint32_t u = queue.PopMin();
    running_max = std::max(running_max, value[u]);
    out.bicore[u] = running_max;
    out.order.push_back(u);

    // Collect N≤2(u) before mutating the residual graph.
    ++round;
    affected.clear();
    ForEachN2(rg, u, stamp, round, [&affected](std::uint32_t v) {
      affected.push_back(v);
    });
    rg.Remove(u);

    // Algorithm 7 (Lemma 10): every v ∈ N≤2(u) loses one from |N≤2(v)|,
    // and u's direct neighbours one from their degree, so keys only drop.
    for (const std::uint32_t v : affected) {
      if (value[v] > 0) --value[v];
      queue.Decrease(v, PeelKey(value[v], rg.AliveDegree(v)));
    }
  }
  out.bidegeneracy = running_max;
  return out;
}

}  // namespace mbb
