#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/biclique.h"
#include "test_util.h"

namespace mbb {
namespace {

TEST(Generators, UniformDensityDenseRegime) {
  const BipartiteGraph g = RandomUniform(100, 100, 0.8, 1);
  const double density = g.Density();
  EXPECT_NEAR(density, 0.8, 0.03);
}

TEST(Generators, UniformDensitySparseRegime) {
  const BipartiteGraph g = RandomUniform(500, 500, 0.01, 2);
  EXPECT_NEAR(g.Density(), 0.01, 0.002);
}

TEST(Generators, UniformExtremes) {
  const BipartiteGraph empty = RandomUniform(50, 50, 0.0, 3);
  EXPECT_EQ(empty.num_edges(), 0u);
  const BipartiteGraph full = RandomUniform(20, 20, 1.0, 4);
  EXPECT_EQ(full.num_edges(), 400u);
}

TEST(Generators, UniformDeterministicInSeed) {
  const BipartiteGraph a = RandomUniform(50, 60, 0.3, 77);
  const BipartiteGraph b = RandomUniform(50, 60, 0.3, 77);
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
  const BipartiteGraph c = RandomUniform(50, 60, 0.3, 78);
  EXPECT_NE(a.CollectEdges(), c.CollectEdges());
}

TEST(Generators, ChungLuHitsEdgeTarget) {
  const BipartiteGraph g = RandomChungLu(2000, 1500, 10000, 2.1, 5);
  EXPECT_GE(g.num_edges(), 9000u);
  EXPECT_LE(g.num_edges(), 10000u);
}

TEST(Generators, ChungLuIsHeavyTailed) {
  const BipartiteGraph g = RandomChungLu(5000, 5000, 20000, 2.1, 6);
  const double average = 2.0 * static_cast<double>(g.num_edges()) /
                         static_cast<double>(g.NumVertices());
  // Hubs should far exceed the average degree.
  EXPECT_GT(g.MaxDegree(), static_cast<std::uint32_t>(10 * average));
}

TEST(Generators, ChungLuEmptyInputs) {
  EXPECT_EQ(RandomChungLu(0, 10, 100, 2.1, 7).num_edges(), 0u);
  EXPECT_EQ(RandomChungLu(10, 10, 0, 2.1, 7).num_edges(), 0u);
}

TEST(Generators, PlantedBicliqueIsComplete) {
  std::vector<Edge> edges;
  Rng rng(9);
  const PlantedBiclique planted =
      PlantBalancedBiclique(100, 80, 6, rng, edges);
  EXPECT_EQ(planted.left.size(), 6u);
  EXPECT_EQ(planted.right.size(), 6u);
  const BipartiteGraph g = BipartiteGraph::FromEdges(100, 80, edges);
  Biclique b;
  b.left = planted.left;
  b.right = planted.right;
  EXPECT_TRUE(b.IsBicliqueIn(g));
}

TEST(Generators, PlantedVerticesAreDistinct) {
  std::vector<Edge> edges;
  Rng rng(10);
  const PlantedBiclique planted =
      PlantBalancedBiclique(10, 10, 10, rng, edges);
  std::vector<VertexId> left = planted.left;
  std::sort(left.begin(), left.end());
  EXPECT_EQ(std::unique(left.begin(), left.end()), left.end());
  EXPECT_EQ(left.front(), 0u);
  EXPECT_EQ(left.back(), 9u);  // k == n selects everything
}

TEST(Generators, SparseWithPlantedContainsPlant) {
  // The planted biclique must survive graph construction (dedup etc.):
  // the graph must contain a 5x5 biclique, hence minimum degree 5 within
  // it, hence a 5-core.
  const BipartiteGraph g = RandomSparseWithPlanted(300, 300, 900, 5, 2.1, 11);
  std::uint32_t at_least_five_left = 0;
  for (VertexId l = 0; l < g.num_left(); ++l) {
    at_least_five_left += g.Degree(Side::kLeft, l) >= 5 ? 1 : 0;
  }
  EXPECT_GE(at_least_five_left, 5u);
}

TEST(Generators, LeftRegularishDegreeBounds) {
  const BipartiteGraph g = RandomLeftRegularish(200, 50, 3, 7, 12);
  for (VertexId l = 0; l < g.num_left(); ++l) {
    EXPECT_GE(g.Degree(Side::kLeft, l), 3u);
    EXPECT_LE(g.Degree(Side::kLeft, l), 7u);
  }
}

TEST(Generators, LeftRegularishNeighborsDistinct) {
  // Partial Fisher-Yates must never assign duplicate neighbours.
  const BipartiteGraph g = RandomLeftRegularish(100, 10, 10, 10, 13);
  for (VertexId l = 0; l < g.num_left(); ++l) {
    EXPECT_EQ(g.Degree(Side::kLeft, l), 10u);
  }
}

// ---------------------------------------------------------------------------
// WeightedSampler: the guide-table draw must return exactly what a
// `std::lower_bound` over all cumulative weights returns, for every value,
// or the Chung–Lu generators would draw different graphs.
// ---------------------------------------------------------------------------

std::uint32_t FullLowerBound(std::span<const double> cumulative, double x) {
  return static_cast<std::uint32_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), x) -
      cumulative.begin());
}

// Values around every cumulative weight and every bucket edge, 0, and the
// total with its neighbour below.
void ExpectEdgeValuesMatch(const WeightedSampler& sampler) {
  const std::span<const double> cumulative = sampler.cumulative();
  const double total = cumulative.back();
  const auto check = [&](double x) {
    if (x < 0.0 || x > total) return;
    ASSERT_EQ(sampler.Index(x), FullLowerBound(cumulative, x)) << x;
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const double c : cumulative) {
    check(c);
    check(std::nextafter(c, 0.0));
    check(std::nextafter(c, inf));
  }
  const std::size_t buckets = cumulative.size();
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) * total /
                        static_cast<double>(buckets);
    check(edge);
    check(std::nextafter(edge, 0.0));
    check(std::nextafter(edge, inf));
  }
  check(0.0);
  check(std::nextafter(total, 0.0));
  check(total);
}

std::vector<double> TestPowerLawWeights(std::uint32_t n, double exponent) {
  std::vector<double> w(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -1.0 / (exponent - 1.0));
  }
  return w;
}

TEST(WeightedSamplerTest, GuideTableMatchesFullLowerBoundOnRandomDraws) {
  const WeightedSampler sampler(TestPowerLawWeights(20000, 2.1));
  const std::span<const double> cumulative = sampler.cumulative();
  Rng rng(17);
  std::uniform_real_distribution<double> dist(0.0, cumulative.back());
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = dist(rng);
    ASSERT_EQ(sampler.Index(x), FullLowerBound(cumulative, x)) << x;
  }
}

TEST(WeightedSamplerTest, GuideTableMatchesFullLowerBoundAtEdges) {
  ExpectEdgeValuesMatch(WeightedSampler(TestPowerLawWeights(20000, 2.1)));
  ExpectEdgeValuesMatch(WeightedSampler(TestPowerLawWeights(153, 2.1)));
  ExpectEdgeValuesMatch(WeightedSampler(TestPowerLawWeights(1000, 3.0)));
  ExpectEdgeValuesMatch(WeightedSampler({1.0}));
  // Zero weights repeat a cumulative value; the first index reaching it wins.
  ExpectEdgeValuesMatch(WeightedSampler({0.0, 2.0, 0.0, 0.0, 1.0, 0.0}));
  ExpectEdgeValuesMatch(WeightedSampler({1e-300, 1.0, 1e-300, 1e300}));
}

TEST(WeightedSamplerTest, SampleConsumesOneUniformDraw) {
  const WeightedSampler sampler(TestPowerLawWeights(5000, 2.1));
  Rng a(23);
  Rng b(23);
  std::uniform_real_distribution<double> dist(0.0,
                                              sampler.cumulative().back());
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(sampler.Sample(a), sampler.Index(dist(b)));
  }
}

// ---------------------------------------------------------------------------
// Output pins: edge counts and CSR digests recorded from the build that
// still sorted the whole edge list in `FromEdges`, searched all cumulative
// weights per Chung–Lu draw and deduplicated in an `std::unordered_set`.
// Every reference optimum, reduction pin and `--deterministic` witness
// depends on the generators drawing these exact graphs.
// ---------------------------------------------------------------------------

struct GraphPin {
  const char* name;
  BipartiteGraph graph;
  std::uint64_t edges;
  std::uint64_t digest;
};

void ExpectPins(const std::vector<GraphPin>& pins) {
  for (const GraphPin& pin : pins) {
    EXPECT_EQ(pin.graph.num_edges(), pin.edges) << pin.name;
    EXPECT_EQ(testing::CsrDigest(pin.graph), pin.digest) << pin.name;
  }
}

TEST(GeneratorPins, ChungLuGraphsAreUnchanged) {
  ExpectPins({
      {"2000x1500 e2.1", RandomChungLu(2000, 1500, 10000, 2.1, 5), 10000,
       9906003209718427622ULL},
      {"3000x800 e3.0", RandomChungLu(3000, 800, 12000, 3.0, 21), 12000,
       12248424829947827934ULL},
      // Target above |L|*|R|: clamped to the complete graph, which the
      // attempt budget reaches.
      {"clamped 12x10", RandomChungLu(12, 10, 500, 3.0, 4), 120,
       14703777738602213295ULL},
      // Complete-graph target with skewed weights: the attempt budget runs
      // out first.
      {"budget 40x30", RandomChungLu(40, 30, 1200, 2.1, 8), 1188,
       16232659966942677129ULL},
  });
}

TEST(GeneratorPins, OtherGeneratorsAreUnchanged) {
  ExpectPins({
      {"planted 300x300",
       RandomSparseWithPlanted(300, 300, 900, 5, 2.1, 11), 925,
       8317046054147010201ULL},
      {"uniform dense", RandomUniform(100, 100, 0.8, 1), 7991,
       7500009841538019957ULL},
      {"uniform sparse", RandomUniform(500, 500, 0.01, 2), 2561,
       6542784720966155976ULL},
      {"left-regularish", RandomLeftRegularish(200, 50, 3, 7, 12), 1027,
       2439837683712152037ULL},
  });
}

}  // namespace
}  // namespace mbb
