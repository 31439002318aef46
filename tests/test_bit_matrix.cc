/// BitMatrix arena + BitRow/BitSpan view tests: layout invariants
/// (alignment, stride), randomized equivalence against a
/// std::vector<bool> mirror, view semantics (Resize/CopyFrom/fused ops,
/// FindNext at word boundaries, the zero tail), the SearchContext frame
/// arena, and a DenseSubgraph round-trip regression over the substrate.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "engine/search_context.h"
#include "graph/bit_matrix.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"
#include "test_util.h"

namespace mbb {
namespace {

/// True when `row` holds exactly the bits of `reference` (same size too).
bool Matches(BitSpan row, const std::vector<bool>& reference) {
  if (row.size() != reference.size()) return false;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (row.Test(i) != reference[i]) return false;
  }
  return true;
}

/// A 1-row arena of `bits` bits with exactly `set` set.
BitMatrix RowOf(std::size_t bits, std::initializer_list<std::size_t> set) {
  BitMatrix m(1, bits);
  for (const std::size_t i : set) m.Row(0).Set(i);
  return m;
}

TEST(BitMatrix, LayoutInvariants) {
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 128u, 129u, 191u, 255u,
                                 256u, 257u, 511u, 512u, 513u}) {
    BitMatrix m(5, bits);
    EXPECT_EQ(m.rows(), 5u);
    EXPECT_EQ(m.bits_per_row(), bits);
    const std::size_t words = BitWords(bits);
    EXPECT_GE(m.stride_words() * 64, bits);
    if (words <= BitMatrix::kTightWordLimit) {
      // Narrow rows use the tight adaptive stride: the smallest power of
      // two holding the row, so a row is naturally aligned to its own
      // size and never straddles a cache-line boundary.
      EXPECT_EQ(m.stride_words(), std::bit_ceil(words));
      for (std::size_t r = 0; r < m.rows(); ++r) {
        const std::uintptr_t start =
            reinterpret_cast<std::uintptr_t>(m.RowWords(r));
        EXPECT_EQ(start % (m.stride_words() * sizeof(std::uint64_t)), 0u);
        EXPECT_LE(start % BitMatrix::kAlignment +
                      m.stride_words() * sizeof(std::uint64_t),
                  BitMatrix::kAlignment)
            << "tight row straddles a cache line";
      }
    } else {
      EXPECT_EQ(m.stride_words() % BitMatrix::kStrideWordMultiple, 0u);
      for (std::size_t r = 0; r < m.rows(); ++r) {
        // Every wide row starts on its own cache line.
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.RowWords(r)) %
                      BitMatrix::kAlignment,
                  0u);
      }
    }
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(m.Row(r).Count(), 0u) << "rows must start zeroed";
    }
  }
}

TEST(BitMatrix, CopyIsDeep) {
  BitMatrix m(3, 100);
  m.Row(1).Set(42);
  BitMatrix copy = m;
  copy.Row(1).Reset(42);
  copy.Row(2).Set(7);
  EXPECT_TRUE(m.Row(1).Test(42));
  EXPECT_FALSE(m.Row(2).Test(7));
  EXPECT_FALSE(copy.Row(1).Test(42));
}

/// Randomized equivalence: drive identical op sequences through BitMatrix
/// rows and a vector<bool> mirror, comparing all rows after every step.
TEST(BitMatrix, RandomOpsMatchVectorBoolMirror) {
  std::mt19937_64 rng(7);
  // 40/64 exercise the 1-word tight stride, 130 the 4-word one (3 words
  // rounded to the next power of two), 200 the tight limit exactly, and
  // 500 the cache-line stride of wide rows.
  for (const std::size_t bits : {40u, 64u, 130u, 200u, 500u}) {
    const std::size_t rows = 8;
    BitMatrix m(rows, bits);
    std::vector<std::vector<bool>> mirror(rows, std::vector<bool>(bits));

    for (int step = 0; step < 300; ++step) {
      const std::size_t r = rng() % rows;
      const std::size_t other = rng() % rows;
      switch (rng() % 6) {
        case 0: {
          const std::size_t i = rng() % bits;
          m.Row(r).Set(i);
          mirror[r][i] = true;
          break;
        }
        case 1: {
          const std::size_t i = rng() % bits;
          m.Row(r).Reset(i);
          mirror[r][i] = false;
          break;
        }
        case 2:
          if (r != other) {
            BitRow row = m.Row(r);
            std::size_t expected = 0;
            for (std::size_t i = 0; i < bits; ++i) {
              mirror[r][i] = mirror[r][i] && mirror[other][i];
              expected += mirror[r][i] ? 1 : 0;
            }
            EXPECT_EQ(row.AndCountAssign(m.Row(other)), expected);
          }
          break;
        case 3:
          if (r != other) {
            m.Row(r).AssignAndNot(m.Row(r), m.Row(other));
            for (std::size_t i = 0; i < bits; ++i) {
              mirror[r][i] = mirror[r][i] && !mirror[other][i];
            }
          }
          break;
        case 4: {
          std::size_t expected = 0;
          for (std::size_t i = 0; i < bits; ++i) {
            expected += mirror[r][i] && mirror[other][i] ? 1 : 0;
          }
          EXPECT_EQ(m.Row(r).CountAnd(m.Row(other)), expected);
          break;
        }
        default: {
          std::size_t count = 0;
          int first = -1;
          for (std::size_t i = 0; i < bits; ++i) {
            if (!mirror[r][i]) continue;
            if (count++ == 0) first = static_cast<int>(i);
          }
          EXPECT_EQ(m.Row(r).Count(), count);
          EXPECT_EQ(m.Row(r).FindFirst(), first);
          break;
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(Matches(m.Row(r), mirror[r]));
    }
  }
}

TEST(BitRowView, ResizeWithinCapacityMatchesVectorResize) {
  BitMatrix arena(1, 512);
  BitRow row = arena.EmptyRow(0);
  std::vector<bool> reference;
  std::mt19937_64 rng(13);
  const std::size_t sizes[] = {0, 64, 63, 65, 500, 1, 128, 127, 512};
  for (const std::size_t bits : sizes) {
    const bool fill = rng() & 1;
    row.Resize(bits, fill);
    reference.resize(bits, fill);
    EXPECT_TRUE(Matches(row, reference))
        << "after Resize(" << bits << ", " << fill << ")";
    EXPECT_EQ(row.Count(), static_cast<std::size_t>(std::count(
                               reference.begin(), reference.end(), true)))
        << "bits past the size must stay zero";
    // Mutate a few bits so the next resize starts from shared state.
    for (int j = 0; j < 3 && bits > 0; ++j) {
      const std::size_t i = rng() % bits;
      row.Assign(i, j % 2 == 0);
      reference[i] = j % 2 == 0;
    }
  }
}

TEST(BitRowView, CopyFromAndFusedOps) {
  BitMatrix arena(5, 256);
  BitRow a = arena.EmptyRow(3);
  BitRow b = arena.EmptyRow(4);
  a.Resize(200);
  b.Resize(200);
  std::vector<bool> a_and_b(200);
  std::vector<bool> a_not_b(200);
  for (std::size_t i = 0; i < 200; ++i) {
    if (i % 3 == 0) a.Set(i);
    if (i % 2 == 0) b.Set(i);
    a_and_b[i] = i % 3 == 0 && i % 2 == 0;
    a_not_b[i] = i % 3 == 0 && i % 2 != 0;
  }
  const std::size_t and_count = 34;  // multiples of 6 below 200

  BitRow dst = arena.EmptyRow(0);
  dst.CopyFrom(a);
  EXPECT_EQ(dst.size(), 200u);
  EXPECT_TRUE(dst.ContentEquals(a));

  // Fused and-with-count == separate ops.
  EXPECT_EQ(dst.AndCountAssign(b), and_count);
  EXPECT_TRUE(Matches(dst, a_and_b));

  BitRow out = arena.EmptyRow(1);
  EXPECT_EQ(out.AssignAndCount(a, b), and_count);
  EXPECT_TRUE(Matches(out, a_and_b));

  out.AssignAndNot(a, b);
  EXPECT_TRUE(Matches(out, a_not_b));

  // A row resized smaller then reused must not leak stale high words.
  BitRow reused = arena.EmptyRow(2);
  reused.Resize(256, true);
  reused.Resize(10);
  EXPECT_EQ(reused.Count(), 10u);
  reused.Resize(200);
  EXPECT_EQ(reused.Count(), 10u) << "grown region must arrive zeroed";
}

TEST(BitRowView, EmptyViewsAreInert) {
  const BitSpan empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Count(), 0u);
  EXPECT_TRUE(empty.None());
  EXPECT_EQ(empty.FindFirst(), -1);
  EXPECT_EQ(empty.FindNext(static_cast<std::size_t>(-1)), -1);
}

TEST(BitRowView, TailBitsStayZeroAfterSetAllAndShrink) {
  // 70 bits = 2 words; the upper 58 bits of word 1 must stay clear so
  // Count is exact.
  BitMatrix arena(1, 128);
  BitRow row = arena.EmptyRow(0);
  row.Resize(70);
  row.SetAll();
  EXPECT_EQ(row.Count(), 70u);
  row.Resize(128, false);
  EXPECT_EQ(row.Count(), 70u);
  for (std::size_t i = 70; i < 128; ++i) EXPECT_FALSE(row.Test(i));

  row.SetAll();
  row.Resize(33);
  EXPECT_EQ(row.Count(), 33u);
  row.Resize(100, false);
  EXPECT_EQ(row.Count(), 33u) << "a shrink must clear the dropped bits";
  row.ResetAll();
  EXPECT_TRUE(row.None());
}

TEST(BitRowView, FindFirstAndNext) {
  const BitMatrix m = RowOf(200, {7, 64, 199});
  const BitSpan b = m.Row(0);
  EXPECT_EQ(b.FindFirst(), 7);
  EXPECT_EQ(b.FindNext(7), 64);
  EXPECT_EQ(b.FindNext(64), 199);
  EXPECT_EQ(b.FindNext(199), -1);
  EXPECT_EQ(b.FindNext(0), 7);
}

TEST(BitRowView, FindNextWordBoundaries) {
  // Every transition around a 64-bit word edge: the probe index, the target
  // bit, or both sit on a boundary.
  const BitMatrix m =
      RowOf(256, {0, 62, 63, 64, 65, 127, 128, 191, 192, 255});
  const BitSpan b = m.Row(0);
  EXPECT_EQ(b.FindNext(62), 63);
  EXPECT_EQ(b.FindNext(63), 64);   // probe on the last bit of word 0
  EXPECT_EQ(b.FindNext(64), 65);   // probe on the first bit of word 1
  EXPECT_EQ(b.FindNext(65), 127);
  EXPECT_EQ(b.FindNext(127), 128);
  EXPECT_EQ(b.FindNext(128), 191);
  EXPECT_EQ(b.FindNext(192), 255);
  EXPECT_EQ(b.FindNext(255), -1);  // probe on the final bit
}

TEST(BitRowView, FindNextBoundaryRegression) {
  // Regression: with exactly one word, FindNext(63) must not read past the
  // word array or wrap; with more words it must continue into word 1.
  BitMatrix one_word(1, 64);
  one_word.Row(0).SetAll();
  EXPECT_EQ(one_word.Row(0).FindNext(63), -1);
  const BitMatrix two_words = RowOf(65, {64});
  EXPECT_EQ(two_words.Row(0).FindNext(63), 64);

  // Out-of-range probes are safe, including the SIZE_MAX sentinel a caller
  // produces by converting a -1 "no previous bit" int: the increment must
  // not wrap around to bit 0.
  const BitMatrix m = RowOf(128, {0, 127});
  const BitSpan b = m.Row(0);
  EXPECT_EQ(b.FindNext(127), -1);
  EXPECT_EQ(b.FindNext(128), -1);
  EXPECT_EQ(b.FindNext(1000), -1);
  EXPECT_EQ(b.FindNext(static_cast<std::size_t>(-1)), -1);
}

TEST(BitRowView, ContentEquality) {
  BitMatrix m(2, 64);
  BitRow a = m.Row(0);
  BitRow b = m.Row(1);
  a.Set(10);
  b.Set(11);
  EXPECT_FALSE(a.ContentEquals(b));
  b.Set(10);
  b.Reset(11);
  EXPECT_TRUE(a.ContentEquals(b));
  // Same bits, different sizes: not equal.
  const BitMatrix wider = RowOf(65, {10});
  EXPECT_FALSE(a.ContentEquals(wider.Row(0)));
}

TEST(BitRowView, ForEachAndToVector) {
  const std::vector<std::uint32_t> expected = {0, 63, 64, 128, 299};
  const BitMatrix m = RowOf(300, {0, 63, 64, 128, 299});
  const BitSpan b = m.Row(0);
  EXPECT_EQ(b.ToVector(), expected);
  std::vector<std::uint32_t> seen;
  b.ForEach([&seen](std::size_t i) {
    seen.push_back(static_cast<std::uint32_t>(i));
  });
  EXPECT_EQ(seen, expected);
}

/// Randomized cross-check of the read-side queries against
/// std::vector<bool>.
class BitSpanRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitSpanRandomTest, MatchesReference) {
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 1 + rng() % 500;
  BitMatrix m(2, n);
  BitRow a = m.Row(0);
  BitRow b = m.Row(1);
  std::vector<bool> ra(n, false);
  std::vector<bool> rb(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng() & 1) {
      a.Set(i);
      ra[i] = true;
    }
    if (rng() & 1) {
      b.Set(i);
      rb[i] = true;
    }
  }
  std::size_t expect_and = 0;
  std::vector<std::uint32_t> expect_bits;
  for (std::size_t i = 0; i < n; ++i) {
    expect_and += (ra[i] && rb[i]) ? 1 : 0;
    if (ra[i]) expect_bits.push_back(static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(a.CountAnd(b), expect_and);
  EXPECT_EQ(a.ToVector(), expect_bits);

  // Iteration agrees with the reference.
  std::size_t iterated = 0;
  a.ForEach([&](std::size_t i) {
    EXPECT_TRUE(ra[i]);
    ++iterated;
  });
  EXPECT_EQ(iterated, expect_bits.size());

  // FindNext chain visits exactly the set bits.
  std::vector<std::uint32_t> chain;
  for (int i = a.FindFirst(); i >= 0;
       i = a.FindNext(static_cast<std::size_t>(i))) {
    chain.push_back(static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(chain, expect_bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitSpanRandomTest,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(SearchContextFrames, PrepareGrowsCapacityAndKeepsPointersStable) {
  SearchContext ctx;
  EXPECT_EQ(ctx.FrameCapacityBits(), 0u)
      << "stride undecided before first use";
  ctx.PrepareFrames(100);
  EXPECT_EQ(ctx.FrameCapacityBits(), 128u)
      << "adaptive stride: a 100-bit subgraph carves 2-word frames";
  ctx.PrepareFrames(40);
  EXPECT_EQ(ctx.FrameCapacityBits(), 128u) << "no shrink";

  SearchContext::BranchFrame& f0 = ctx.Frame(0);
  f0.ca.Resize(100);
  f0.ca.SetAll();
  const std::uint64_t* words_before = f0.ca.words();
  // Growing the pool across slab boundaries must not move earlier frames.
  ctx.Frame(3 * SearchContext::kLevelsPerSlab);
  EXPECT_EQ(&ctx.Frame(0), &f0);
  EXPECT_EQ(f0.ca.words(), words_before);
  EXPECT_EQ(f0.ca.Count(), 100u);

  // Growing the stride re-carves the pool (documented: only between
  // searches) and widens every frame's capacity.
  ctx.PrepareFrames(2000);
  EXPECT_GE(ctx.FrameCapacityBits(), 2000u);
  EXPECT_EQ(ctx.FrameCount(), 0u);
  SearchContext::BranchFrame& wide = ctx.Frame(2);
  wide.cb.Resize(2000, true);
  EXPECT_EQ(wide.cb.Count(), 2000u);
}

/// A context used without PrepareFrames keeps the historical fixed
/// layout: one cache line (512 bits) per frame row.
TEST(SearchContextFrames, UnpreparedContextDefaultsToOneLineFrames) {
  SearchContext ctx;
  SearchContext::BranchFrame& f = ctx.Frame(0);
  EXPECT_EQ(ctx.FrameCapacityBits(), 512u);
  f.ca.Resize(512, true);
  EXPECT_EQ(f.ca.Count(), 512u);
}

/// Adjacent recursion levels must be usable concurrently (the branch step
/// copies parent frames into child frames).
TEST(SearchContextFrames, FramesAreDisjoint) {
  SearchContext ctx;
  SearchContext::BranchFrame& parent = ctx.Frame(0);
  SearchContext::BranchFrame& child = ctx.Frame(1);
  parent.ca.Resize(300);
  parent.ca.SetAll();
  parent.cb.Resize(300);
  parent.cb.SetAll();
  child.ca.Resize(300);
  child.ca.ResetAll();
  child.cb.Resize(300);
  child.cb.ResetAll();
  EXPECT_EQ(parent.ca.Count(), 300u);
  EXPECT_EQ(parent.cb.Count(), 300u);
  child.ca.CopyFrom(parent.ca);
  child.ca.Reset(7);
  EXPECT_EQ(parent.ca.Count(), 300u);
  EXPECT_EQ(child.ca.Count(), 299u);
}

/// DenseSubgraph over the arena substrate: rows, cached degrees, and edge
/// counts must agree with the origin graph, and ToOriginal must round-trip.
TEST(DenseSubgraphArena, RoundTripRegression) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const BipartiteGraph g = RandomUniform(37, 21, 0.3, seed);
    const DenseSubgraph s = DenseSubgraph::Whole(g);
    ASSERT_EQ(s.num_left(), g.num_left());
    ASSERT_EQ(s.num_right(), g.num_right());

    std::uint64_t edges = 0;
    for (VertexId l = 0; l < g.num_left(); ++l) {
      EXPECT_EQ(s.LeftDegree(l), g.Degree(Side::kLeft, l));
      EXPECT_EQ(s.LeftRow(l).Count(), s.LeftDegree(l));
      for (VertexId r = 0; r < g.num_right(); ++r) {
        const bool edge = g.HasEdge(l, r);
        EXPECT_EQ(s.HasEdge(l, r), edge);
        EXPECT_EQ(s.LeftRow(l).Test(r), edge);
        EXPECT_EQ(s.RightRow(r).Test(l), edge);
        edges += edge ? 1 : 0;
      }
    }
    for (VertexId r = 0; r < g.num_right(); ++r) {
      EXPECT_EQ(s.RightDegree(r), g.Degree(Side::kRight, r));
    }
    EXPECT_EQ(s.CountEdges(), edges);

    Biclique local;
    local.left = {0, 2};
    local.right = {1, 3};
    const Biclique original = s.ToOriginal(local);
    EXPECT_EQ(original.left, local.left) << "identity build keeps ids";
    EXPECT_EQ(original.right, local.right);
  }
}

/// Degree caches must be correct for the canonicalized (swapped-side)
/// builds the sparse pipeline produces.
TEST(DenseSubgraphArena, SwappedSideBuildKeepsDegrees) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  std::vector<VertexId> rights = {0, 1, 2, 3};
  std::vector<VertexId> lefts = {1, 2, 3};
  // Local-left = global right side.
  const DenseSubgraph s = DenseSubgraph::Build(g, rights, lefts,
                                               Side::kRight);
  ASSERT_EQ(s.num_left(), 4u);
  ASSERT_EQ(s.num_right(), 3u);
  for (VertexId i = 0; i < s.num_left(); ++i) {
    std::uint32_t expected = 0;
    for (VertexId j = 0; j < s.num_right(); ++j) {
      expected += g.HasEdge(lefts[j], rights[i]) ? 1 : 0;
    }
    EXPECT_EQ(s.LeftDegree(i), expected);
  }
}

}  // namespace
}  // namespace mbb
