/// Kernel-layer tests: scalar vs SIMD cross-checks at exhaustive word
/// boundaries, fused-kernel semantics (including aliasing), dispatch
/// policy control, and whole-solver determinism with SIMD forced on/off.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "engine/registry.h"
#include "graph/bit_ops.h"
#include "graph/bit_matrix.h"
#include "graph/generators.h"
#include "test_util.h"

namespace mbb {
namespace {

using bitops::DispatchPolicy;

/// Word-boundary sizes, in bits: empty, sub-word, exact word multiples,
/// one-past boundaries, and a multi-word size that exercises both the
/// 4-word SIMD main loop and its scalar tail.
const std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 511};

/// Random words with the tail beyond `bits` cleared (the invariant every
/// view owner maintains).
std::vector<std::uint64_t> RandomWords(std::size_t bits,
                                       std::mt19937_64& rng) {
  std::vector<std::uint64_t> words(BitWords(bits), 0);
  for (std::uint64_t& w : words) w = rng();
  const std::size_t used = bits & 63;
  if (used != 0 && !words.empty()) {
    words.back() &= (std::uint64_t{1} << used) - 1;
  }
  return words;
}

/// Word-by-word reference popcount of `a & b`.
std::size_t ReferenceCount(const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

class ScopedPolicy {
 public:
  explicit ScopedPolicy(DispatchPolicy policy)
      : saved_(bitops::GetDispatchPolicy()) {
    bitops::SetDispatchPolicy(policy);
  }
  ~ScopedPolicy() { bitops::SetDispatchPolicy(saved_); }

 private:
  DispatchPolicy saved_;
};

/// Mirrors the dispatch layer's env-knob semantics: set and not "0".
bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

TEST(BitOpsDispatch, PolicyControlsActiveName) {
  {
    ScopedPolicy forced(DispatchPolicy::kForceScalar);
    EXPECT_STREQ(bitops::ActiveDispatchName(), "scalar");
    EXPECT_EQ(bitops::GetDispatchPolicy(), DispatchPolicy::kForceScalar);
  }
  // kAuto resolves to AVX2 when the build + CPU allow it, unless
  // MBB_FORCE_SCALAR pins it (the CI forced-downgrade leg runs the whole
  // suite that way).
  const char* expected =
      bitops::SimdAvailable() && !EnvFlagSet("MBB_FORCE_SCALAR") ? "avx2"
                                                                 : "scalar";
  ScopedPolicy automatic(DispatchPolicy::kAuto);
  EXPECT_STREQ(bitops::ActiveDispatchName(), expected);
}

TEST(BitOpsKernels, ScalarMatchesReferenceAtWordBoundaries) {
  std::mt19937_64 rng(11);
  for (const std::size_t bits : kBoundarySizes) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<std::uint64_t> a = RandomWords(bits, rng);
      const std::vector<std::uint64_t> b = RandomWords(bits, rng);
      const std::size_t words = a.size();
      EXPECT_EQ(bitops::scalar::CountAnd(a.data(), b.data(), words),
                ReferenceCount(a, b));
      EXPECT_EQ(bitops::scalar::Count(a.data(), words),
                ReferenceCount(a, a));
    }
  }
}

/// Every kernel, scalar vs SIMD, at every boundary size. Skipped (trivially
/// green) when the binary has no SIMD backend — the CI scalar leg.
TEST(BitOpsKernels, SimdMatchesScalarAtWordBoundaries) {
  if (!bitops::SimdAvailable()) {
    GTEST_SKIP() << "no SIMD backend compiled in / CPU support";
  }
#ifdef MBB_HAVE_AVX2
  std::mt19937_64 rng(29);
  for (const std::size_t bits : kBoundarySizes) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<std::uint64_t> a = RandomWords(bits, rng);
      const std::vector<std::uint64_t> b = RandomWords(bits, rng);
      const std::size_t words = a.size();

      EXPECT_EQ(bitops::avx2::Count(a.data(), words),
                bitops::scalar::Count(a.data(), words));
      EXPECT_EQ(bitops::avx2::CountAnd(a.data(), b.data(), words),
                bitops::scalar::CountAnd(a.data(), b.data(), words));


      std::vector<std::uint64_t> scalar_out(words, 0xdeadbeef);
      std::vector<std::uint64_t> simd_out(words, 0xdeadbeef);
      bitops::scalar::AndInto(scalar_out.data(), a.data(), b.data(), words);
      bitops::avx2::AndInto(simd_out.data(), a.data(), b.data(), words);
      EXPECT_EQ(scalar_out, simd_out);

      const std::size_t scalar_count = bitops::scalar::AndCountInto(
          scalar_out.data(), a.data(), b.data(), words);
      const std::size_t simd_count = bitops::avx2::AndCountInto(
          simd_out.data(), a.data(), b.data(), words);
      EXPECT_EQ(scalar_out, simd_out);
      EXPECT_EQ(scalar_count, simd_count);
      EXPECT_EQ(simd_count, ReferenceCount(a, b));

      bitops::scalar::AndNotInto(scalar_out.data(), a.data(), b.data(),
                                 words);
      bitops::avx2::AndNotInto(simd_out.data(), a.data(), b.data(), words);
      EXPECT_EQ(scalar_out, simd_out);
    }
  }
#endif
}

/// The in-place forms alias dst == a; both backends must handle that.
TEST(BitOpsKernels, FusedKernelsSupportAliasedDestination) {
  std::mt19937_64 rng(41);
  for (const std::size_t bits : {65u, 511u}) {
    const std::vector<std::uint64_t> a = RandomWords(bits, rng);
    const std::vector<std::uint64_t> b = RandomWords(bits, rng);
    const std::size_t words = a.size();
    const std::size_t expected = ReferenceCount(a, b);

    std::vector<std::uint64_t> aliased = a;
    EXPECT_EQ(bitops::AndCountInto(aliased.data(), aliased.data(), b.data(),
                                   words),
              expected);
    std::vector<std::uint64_t> reference(words);
    bitops::scalar::AndInto(reference.data(), a.data(), b.data(), words);
    EXPECT_EQ(aliased, reference);

    {
      ScopedPolicy forced(DispatchPolicy::kForceScalar);
      aliased = a;
      EXPECT_EQ(bitops::AndCountInto(aliased.data(), aliased.data(),
                                     b.data(), words),
                expected);
      EXPECT_EQ(aliased, reference);
    }
  }
}

/// The inline small-size fast path and the dispatch path must agree with
/// the row-level operations end to end.
TEST(BitOpsKernels, RowOpsMatchUnderBothPolicies) {
  std::mt19937_64 rng(53);
  for (const std::size_t bits : kBoundarySizes) {
    BitMatrix m(4, bits);  // a, b, a & b under kAuto, a & b under scalar
    BitRow a = m.Row(0);
    BitRow b = m.Row(1);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng() & 1) a.Set(i);
      if (rng() & 1) b.Set(i);
    }
    std::size_t auto_count_and;
    BitRow auto_and = m.Row(2);
    {
      ScopedPolicy p(DispatchPolicy::kAuto);
      auto_count_and = a.CountAnd(b);
      auto_and.AssignAnd(a, b);
    }
    ScopedPolicy p(DispatchPolicy::kForceScalar);
    EXPECT_EQ(a.CountAnd(b), auto_count_and);
    BitRow scalar_and = m.Row(3);
    scalar_and.AssignAnd(a, b);
    EXPECT_TRUE(scalar_and.ContentEquals(auto_and));
    EXPECT_EQ(auto_and.Count(), auto_count_and);
  }
}

/// Acceptance gate: every registry solver is bit-identical — optimum size,
/// witness biclique, and search counters — under the scalar kernels and
/// under whatever kAuto resolves to (AVX2 on capable hardware). The paper
/// example and 20 random 12x12 G(n,p) instances have one-word rows, which
/// stay on the inline path; the wide instances (>= 129 vertices per side,
/// so rows of 3+ words) reach the dispatched kernels. `brute` is capped at
/// 24 vertices per side and sits those out.
TEST(SimdDeterminism, AllRegistrySolversAgreeAcrossDispatchPaths) {
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(testing::PaperExampleGraph());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const double p = 0.25 + 0.03 * static_cast<double>(seed % 5);
    graphs.push_back(RandomUniform(12, 12, p, seed));
  }
  const std::size_t first_wide = graphs.size();
  graphs.push_back(RandomUniform(130, 140, 0.06, 31));
  graphs.push_back(RandomUniform(200, 150, 0.05, 32));

  for (const std::string& name : SolverRegistry::Instance().Names()) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      if (name == "brute" && i >= first_wide) continue;
      MbbResult baseline;
      {
        ScopedPolicy forced(DispatchPolicy::kForceScalar);
        baseline = SolverRegistry::Solve(name, graphs[i]);
      }
      ScopedPolicy automatic(DispatchPolicy::kAuto);
      const MbbResult result = SolverRegistry::Solve(name, graphs[i]);
      const std::string where = "solver " + name + " on instance " +
                                std::to_string(i) + " under " +
                                bitops::ActiveDispatchName();
      EXPECT_EQ(result.best.BalancedSize(), baseline.best.BalancedSize())
          << where;
      EXPECT_EQ(result.best.left, baseline.best.left) << where;
      EXPECT_EQ(result.best.right, baseline.best.right) << where;
      EXPECT_EQ(result.stats.recursions, baseline.stats.recursions) << where;
      EXPECT_EQ(result.stats.leaves, baseline.stats.leaves) << where;
      EXPECT_EQ(result.stats.bound_prunes, baseline.stats.bound_prunes)
          << where;
      EXPECT_EQ(result.stats.matching_prunes, baseline.stats.matching_prunes)
          << where;
      EXPECT_EQ(result.stats.poly_cases, baseline.stats.poly_cases) << where;
    }
  }
}

}  // namespace
}  // namespace mbb
