#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace mbb {

namespace {

std::vector<double> PowerLawWeights(std::uint32_t n, double exponent) {
  // Chung–Lu style: rank-based weights w_i = (i+1)^(-1/(exponent-1)).
  const double beta = 1.0 / (exponent - 1.0);
  std::vector<double> w(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -beta);
  }
  return w;
}

std::uint64_t EdgeKey(VertexId l, VertexId r) {
  return (static_cast<std::uint64_t>(l) << 32) | r;
}

// Spreads a whole edge key over the hash slots. The low bits of a plain
// product depend on the right id alone and cluster when that side is small.
std::uint64_t MixKey(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

WeightedSampler::WeightedSampler(const std::vector<double>& weights) {
  cumulative_.reserve(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    total += w;
    cumulative_.push_back(total);
  }
  assert(total > 0.0);
  // One bucket per weight. guide_[b] is the first index whose cumulative
  // weight maps to bucket b or later, so every x in bucket b has its
  // lower bound in [guide_[b], guide_[b + 1]]: `Bucket` is monotone, which
  // is all the exactness argument needs.
  const std::size_t n = cumulative_.size();
  scale_ = static_cast<double>(n) / total;
  guide_.assign(n + 1, static_cast<std::uint32_t>(n));
  std::size_t next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = Bucket(cumulative_[i]);
    while (next <= b) guide_[next++] = static_cast<std::uint32_t>(i);
  }
}

std::uint32_t WeightedSampler::Sample(Rng& rng) const {
  std::uniform_real_distribution<double> dist(0.0, cumulative_.back());
  return Index(dist(rng));
}

std::uint32_t WeightedSampler::Index(double x) const {
  const std::size_t b = Bucket(x);
  const auto it = std::lower_bound(cumulative_.begin() + guide_[b],
                                   cumulative_.begin() + guide_[b + 1], x);
  return static_cast<std::uint32_t>(it - cumulative_.begin());
}

std::size_t WeightedSampler::Bucket(double x) const {
  return std::min(guide_.size() - 2, static_cast<std::size_t>(x * scale_));
}

BipartiteGraph RandomUniform(std::uint32_t num_left, std::uint32_t num_right,
                             double density, std::uint64_t seed) {
  assert(density >= 0.0 && density <= 1.0);
  Rng rng(seed);
  std::vector<Edge> edges;
  const double expected =
      density * static_cast<double>(num_left) * static_cast<double>(num_right);
  edges.reserve(static_cast<std::size_t>(expected * 1.02) + 16);

  if (density >= 0.1) {
    // Dense regime: flip one coin per pair.
    std::bernoulli_distribution coin(density);
    for (VertexId l = 0; l < num_left; ++l) {
      for (VertexId r = 0; r < num_right; ++r) {
        if (coin(rng)) edges.emplace_back(l, r);
      }
    }
  } else {
    // Sparse regime: geometric skipping over the flattened pair space.
    const std::uint64_t total =
        static_cast<std::uint64_t>(num_left) * num_right;
    if (density > 0.0 && total > 0) {
      std::geometric_distribution<std::uint64_t> skip(density);
      std::uint64_t pos = skip(rng);
      while (pos < total) {
        edges.emplace_back(static_cast<VertexId>(pos / num_right),
                           static_cast<VertexId>(pos % num_right));
        pos += 1 + skip(rng);
      }
    }
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

std::vector<Edge> ChungLuEdges(std::uint32_t num_left, std::uint32_t num_right,
                               std::uint64_t target_edges, double exponent,
                               std::uint64_t seed) {
  Rng rng(seed);
  if (num_left == 0 || num_right == 0 || target_edges == 0) return {};
  const WeightedSampler left_sampler(PowerLawWeights(num_left, exponent));
  const WeightedSampler right_sampler(PowerLawWeights(num_right, exponent));

  const std::uint64_t possible =
      static_cast<std::uint64_t>(num_left) * num_right;
  target_edges = std::min(target_edges, possible);

  // The accepted edge keys, in one flat open-addressing table (linear
  // probing) that stays at most half full. No key has every bit set: left
  // ids are below 2^32 - 1.
  constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};
  std::uint64_t slots = 16;
  while (slots < 2 * target_edges) slots *= 2;
  std::vector<std::uint64_t> seen(slots, kNoEdge);
  std::vector<Edge> edges;
  edges.reserve(target_edges);

  // Repeated endpoint sampling; collisions are skipped. The attempt budget
  // guards against pathological parameter choices (e.g. target close to the
  // complete graph with very skewed weights).
  const std::uint64_t max_attempts = target_edges * 20 + 1000;
  std::uint64_t attempts = 0;
  while (edges.size() < target_edges && attempts < max_attempts) {
    ++attempts;
    const VertexId l = left_sampler.Sample(rng);
    const VertexId r = right_sampler.Sample(rng);
    const std::uint64_t key = EdgeKey(l, r);
    std::uint64_t slot = MixKey(key) & (slots - 1);
    while (seen[slot] != key && seen[slot] != kNoEdge) {
      slot = (slot + 1) & (slots - 1);
    }
    if (seen[slot] == kNoEdge) {
      seen[slot] = key;
      edges.emplace_back(l, r);
    }
  }
  return edges;
}

BipartiteGraph RandomChungLu(std::uint32_t num_left, std::uint32_t num_right,
                             std::uint64_t target_edges, double exponent,
                             std::uint64_t seed) {
  return BipartiteGraph::FromEdges(
      num_left, num_right,
      ChungLuEdges(num_left, num_right, target_edges, exponent, seed));
}

PlantedBiclique PlantBalancedBiclique(std::uint32_t num_left,
                                      std::uint32_t num_right,
                                      std::uint32_t k, Rng& rng,
                                      std::vector<Edge>& edges) {
  assert(k <= num_left && k <= num_right);
  PlantedBiclique planted;

  // Floyd's algorithm for a uniform k-subset of [0, n).
  const auto sample_subset = [&rng](std::uint32_t n, std::uint32_t count) {
    std::unordered_set<std::uint32_t> chosen;
    chosen.reserve(count * 2);
    std::vector<VertexId> out;
    out.reserve(count);
    for (std::uint32_t j = n - count; j < n; ++j) {
      std::uniform_int_distribution<std::uint32_t> dist(0, j);
      const std::uint32_t t = dist(rng);
      const std::uint32_t pick = chosen.insert(t).second ? t : j;
      if (pick != t) chosen.insert(pick);
      out.push_back(pick);
    }
    return out;
  };

  planted.left = sample_subset(num_left, k);
  planted.right = sample_subset(num_right, k);
  for (const VertexId l : planted.left) {
    for (const VertexId r : planted.right) {
      edges.emplace_back(l, r);
    }
  }
  return planted;
}

BipartiteGraph RandomSparseWithPlanted(std::uint32_t num_left,
                                       std::uint32_t num_right,
                                       std::uint64_t target_edges,
                                       std::uint32_t planted_k,
                                       double exponent, std::uint64_t seed) {
  std::vector<Edge> edges =
      ChungLuEdges(num_left, num_right, target_edges, exponent, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  PlantBalancedBiclique(num_left, num_right, planted_k, rng, edges);
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

BipartiteGraph RandomLeftRegularish(std::uint32_t num_left,
                                    std::uint32_t num_right,
                                    std::uint32_t min_degree,
                                    std::uint32_t max_degree,
                                    std::uint64_t seed) {
  assert(min_degree <= max_degree && max_degree <= num_right);
  Rng rng(seed);
  std::vector<Edge> edges;
  std::uniform_int_distribution<std::uint32_t> deg_dist(min_degree,
                                                        max_degree);
  std::vector<VertexId> pool(num_right);
  for (VertexId r = 0; r < num_right; ++r) pool[r] = r;
  for (VertexId l = 0; l < num_left; ++l) {
    const std::uint32_t d = deg_dist(rng);
    // Partial Fisher–Yates: the first d entries become l's neighbours.
    for (std::uint32_t i = 0; i < d; ++i) {
      std::uniform_int_distribution<std::uint32_t> pick(i, num_right - 1);
      std::swap(pool[i], pool[pick(rng)]);
      edges.emplace_back(l, pool[i]);
    }
  }
  return BipartiteGraph::FromEdges(num_left, num_right, std::move(edges));
}

}  // namespace mbb
