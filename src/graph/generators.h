#ifndef MBB_GRAPH_GENERATORS_H_
#define MBB_GRAPH_GENERATORS_H_

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace mbb {

/// Deterministic 64-bit generator used throughout; seeds are part of every
/// generator signature so experiments are reproducible.
using Rng = std::mt19937_64;

/// Draws indices with probability proportional to non-negative `weights`
/// (with a positive sum). A draw takes one `uniform_real_distribution`
/// value x in [0, total) and returns the first index whose cumulative
/// weight reaches x — exactly what `std::lower_bound` over all cumulative
/// weights returns — after a guide table narrows the search to the few
/// indices of x's bucket.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  std::uint32_t Sample(Rng& rng) const;

  /// The index a draw of `x` yields.
  std::uint32_t Index(double x) const;

  /// Running sums of the weights, in index order.
  std::span<const double> cumulative() const { return cumulative_; }

 private:
  std::size_t Bucket(double x) const;

  std::vector<double> cumulative_;
  std::vector<std::uint32_t> guide_;  // bucket -> first index; one sentinel
  double scale_ = 0.0;                // buckets per unit of weight
};

/// Uniform random bipartite graph: every pair of `[0,num_left) x
/// [0,num_right)` is an edge independently with probability `density`.
/// This mirrors the dense-graph workload of the paper's Table 4 (random
/// generation "similar to [25]", the nanoarchitecture defect model: a
/// crossbar where each crosspoint survives with probability `density`).
BipartiteGraph RandomUniform(std::uint32_t num_left, std::uint32_t num_right,
                             double density, std::uint64_t seed);

/// Sparse bipartite Chung–Lu graph with heavy-tailed expected degrees on
/// both sides (weights `w_i ∝ (i+1)^(-1/(exponent-1))`), targeting
/// `target_edges` distinct edges. Mirrors the skewed degree distributions
/// of the KONECT datasets used in the paper's Table 5.
BipartiteGraph RandomChungLu(std::uint32_t num_left, std::uint32_t num_right,
                             std::uint64_t target_edges, double exponent,
                             std::uint64_t seed);

/// The distinct edges `RandomChungLu` draws, in the order it accepts them.
/// Generators that add edges to a Chung–Lu background start from this list
/// and build their graph once.
std::vector<Edge> ChungLuEdges(std::uint32_t num_left, std::uint32_t num_right,
                               std::uint64_t target_edges, double exponent,
                               std::uint64_t seed);

/// Adds a complete `k x k` biclique between `k` randomly chosen vertices of
/// each side to `edges` (duplicates are fine; graph construction dedups).
/// Returns the chosen (left, right) vertex sets.
struct PlantedBiclique {
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};
PlantedBiclique PlantBalancedBiclique(std::uint32_t num_left,
                                      std::uint32_t num_right,
                                      std::uint32_t k, Rng& rng,
                                      std::vector<Edge>& edges);

/// Chung–Lu graph plus a planted `k x k` balanced biclique, the surrogate
/// recipe for the paper's real sparse datasets (see DESIGN.md,
/// "Substitutions").
BipartiteGraph RandomSparseWithPlanted(std::uint32_t num_left,
                                       std::uint32_t num_right,
                                       std::uint64_t target_edges,
                                       std::uint32_t planted_k,
                                       double exponent, std::uint64_t seed);

/// Random bipartite graph where all degrees are within `[min_degree,
/// max_degree]` on the left side (right side degrees fall out of the edge
/// assignment). Useful for constructing structured test inputs.
BipartiteGraph RandomLeftRegularish(std::uint32_t num_left,
                                    std::uint32_t num_right,
                                    std::uint32_t min_degree,
                                    std::uint32_t max_degree,
                                    std::uint64_t seed);

}  // namespace mbb

#endif  // MBB_GRAPH_GENERATORS_H_
