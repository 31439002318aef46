#include "graph/datasets.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/hbv_mbb.h"
#include "test_util.h"

namespace mbb {
namespace {

TEST(Datasets, RegistryHasThirtyEntries) {
  EXPECT_EQ(Table5Datasets().size(), 30u);
}

TEST(Datasets, ToughSubsetHasTwelveEntries) {
  EXPECT_EQ(ToughDatasets().size(), 12u);
  for (const DatasetSpec& d : ToughDatasets()) {
    EXPECT_TRUE(d.tough) << d.name;
  }
}

TEST(Datasets, NamesAreUnique) {
  std::set<std::string> names;
  for (const DatasetSpec& d : Table5Datasets()) {
    EXPECT_TRUE(names.insert(std::string(d.name)).second) << d.name;
  }
}

TEST(Datasets, FindDataset) {
  const DatasetSpec* jester = FindDataset("jester");
  ASSERT_NE(jester, nullptr);
  EXPECT_EQ(jester->num_right, 100u);
  EXPECT_EQ(jester->optimum, 100u);
  EXPECT_TRUE(jester->tough);
  EXPECT_EQ(FindDataset("no-such-dataset"), nullptr);
}

TEST(Datasets, SpecsAreSane) {
  for (const DatasetSpec& d : Table5Datasets()) {
    EXPECT_GT(d.num_left, 0u) << d.name;
    EXPECT_GT(d.num_right, 0u) << d.name;
    EXPECT_GT(d.density, 0.0) << d.name;
    EXPECT_LT(d.density, 1.0) << d.name;
    EXPECT_GT(d.optimum, 0u) << d.name;
    EXPECT_LE(d.optimum, std::min(d.num_left, d.num_right)) << d.name;
  }
}

TEST(Datasets, SurrogateScalesSides) {
  const DatasetSpec* spec = FindDataset("unicodelang");
  ASSERT_NE(spec, nullptr);
  const BipartiteGraph g = GenerateSurrogate(*spec, 0.5);
  EXPECT_EQ(g.num_left(), 127u);
  EXPECT_EQ(g.num_right(), 307u);
}

TEST(Datasets, SurrogateKeepsPlantedSizeUnderScaling) {
  const DatasetSpec* spec = FindDataset("unicodelang");
  ASSERT_NE(spec, nullptr);
  // Even at a tiny scale the sides never shrink below the planted optimum.
  const BipartiteGraph g = GenerateSurrogate(*spec, 0.001);
  EXPECT_GE(g.num_left(), spec->optimum);
  EXPECT_GE(g.num_right(), spec->optimum);
}

TEST(Datasets, SurrogateIsDeterministic) {
  const DatasetSpec* spec = FindDataset("moreno-crime-crime");
  ASSERT_NE(spec, nullptr);
  const BipartiteGraph a = GenerateSurrogate(*spec, 0.3);
  const BipartiteGraph b = GenerateSurrogate(*spec, 0.3);
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
  const BipartiteGraph c = GenerateSurrogate(*spec, 0.3, /*seed_mix=*/1);
  EXPECT_NE(a.CollectEdges(), c.CollectEdges());
}

TEST(Datasets, SurrogateContainsPlantedCore) {
  const DatasetSpec* spec = FindDataset("escorts");
  ASSERT_NE(spec, nullptr);
  const BipartiteGraph g = GenerateSurrogate(*spec, 0.2);
  // A planted optimum x optimum biclique forces at least `optimum`
  // vertices of degree >= optimum on each side.
  std::uint32_t heavy_left = 0;
  for (VertexId l = 0; l < g.num_left(); ++l) {
    heavy_left += g.Degree(Side::kLeft, l) >= spec->optimum ? 1 : 0;
  }
  EXPECT_GE(heavy_left, spec->optimum);
}

TEST(Datasets, CrownDecoysDoNotBeatPlantedOptimum) {
  // github (optimum 12, tough) carries three (k+3)-crown decoys whose own
  // maximum balanced biclique is only ⌊(k+3)/2⌋; the planted biclique must
  // remain the optimum and force the pipeline into step 3.
  const DatasetSpec* spec = FindDataset("github");
  ASSERT_NE(spec, nullptr);
  const BipartiteGraph g = GenerateSurrogate(*spec, 0.1);
  const MbbResult result = HbvMbb(g);
  EXPECT_EQ(result.best.BalancedSize(), spec->optimum);
  EXPECT_EQ(result.stats.terminated_step, 3);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
}

TEST(Datasets, NonToughDecoyTerminatesAtBridge) {
  // youtube (optimum 12, not tough) carries one (k+2)-crown: the matched
  // partner falls out of the vertex-centred subgraph, so the bridge prunes
  // everything and the pipeline certifies at step 2.
  const DatasetSpec* spec = FindDataset("youtube-groupmemberships");
  ASSERT_NE(spec, nullptr);
  const BipartiteGraph g = GenerateSurrogate(*spec, 0.1);
  const MbbResult result = HbvMbb(g);
  EXPECT_EQ(result.best.BalancedSize(), spec->optimum);
  EXPECT_EQ(result.stats.terminated_step, 2);
}

TEST(Datasets, EdgeTargetMatchesDensity) {
  const DatasetSpec* spec = FindDataset("opsahl-ucforum");
  ASSERT_NE(spec, nullptr);
  const std::uint64_t target = SurrogateEdgeTarget(*spec, 1.0);
  const double expected =
      spec->density * spec->num_left * spec->num_right;
  EXPECT_NEAR(static_cast<double>(target), expected, expected * 0.01 + 1);
}


TEST(Datasets, SurrogatePinsAreUnchanged) {
  // Edge counts and CSR digests recorded from the build that still sorted
  // the whole edge list in `FromEdges` and built each surrogate twice
  // (background graph, then background plus plant and decoys). The
  // benchmark's reference optima and the reduction pins assume these exact
  // graphs.
  struct Pin {
    const char* dataset;
    double scale;
    std::uint64_t edges;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"reuters", 0.05, 32933, 11066756513128450841ULL},
      {"discogs-style", 0.05, 14955, 12701610123241496660ULL},
      {"jester", 0.05, 58352, 11429295797136338252ULL},
      {"unicodelang", 1.0, 140, 1285726487442111472ULL},
  };
  for (const Pin& pin : pins) {
    const DatasetSpec* spec = FindDataset(pin.dataset);
    ASSERT_NE(spec, nullptr) << pin.dataset;
    const BipartiteGraph g = GenerateSurrogate(*spec, pin.scale);
    EXPECT_EQ(g.num_edges(), pin.edges) << pin.dataset;
    EXPECT_EQ(testing::CsrDigest(g), pin.digest) << pin.dataset;
  }
}

}  // namespace
}  // namespace mbb
