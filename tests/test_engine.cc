/// Tests for the unified solver engine: the `SolverRegistry` mechanics,
/// the `SolverOptions` resource plumbing (limits, initial bound, stats
/// sink), equivalence between registry dispatch and the direct-call entry
/// points, and the pooled `SearchContext` arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/basic_bb.h"
#include "core/dense_mbb.h"
#include "core/hbv_mbb.h"
#include "core/size_constrained.h"
#include "engine/registry.h"
#include "engine/search_context.h"
#include "engine/solver.h"
#include "test_util.h"

namespace mbb {
namespace {

TEST(SolverRegistry, AllRequiredNamesRegistered) {
  const SolverRegistry& registry = SolverRegistry::Instance();
  for (const char* name :
       {"dense", "hbv", "basic", "extbbclq", "imbea", "fmbe", "pols",
        "sbmnas", "adapted", "brute", "auto", "bd1", "bd2", "bd3", "bd4",
        "bd5", "adp1", "adp2", "adp3", "adp4", "sizecon", "topk"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_EQ(registry.Get(name).Name(), name);
  }
}

TEST(SolverRegistry, UnknownNameFindsNullAndGetThrows) {
  const SolverRegistry& registry = SolverRegistry::Instance();
  EXPECT_EQ(registry.Find("no-such-solver"), nullptr);
  EXPECT_FALSE(registry.Contains("no-such-solver"));
  EXPECT_THROW(registry.Get("no-such-solver"), std::out_of_range);
}

TEST(SolverRegistry, ExactnessClassification) {
  const SolverRegistry& registry = SolverRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    const bool heuristic = name == "pols" || name == "sbmnas";
    EXPECT_EQ(registry.Get(name).IsExact(), !heuristic) << name;
  }
}

TEST(SolverRegistry, RegistrationShadowsPreviousEntry) {
  // A solver that stamps a marker into the stats so the two registrations
  // are distinguishable.
  class MarkerSolver final : public MbbSolver {
   public:
    explicit MarkerSolver(std::uint64_t marker) : marker_(marker) {}
    std::string_view Name() const override { return "shadow-test"; }
    bool IsExact() const override { return true; }
    MbbResult Solve(const BipartiteGraph&,
                    const SolverOptions&) const override {
      MbbResult result;
      result.stats.recursions = marker_;
      return result;
    }

   private:
    std::uint64_t marker_;
  };

  const BipartiteGraph g = testing::PaperExampleGraph();
  SolverRegistry::Instance().Register(
      "shadow-test", [] { return std::make_unique<MarkerSolver>(1); });
  EXPECT_TRUE(SolverRegistry::Instance().Contains("shadow-test"));
  // Force instantiation so re-registration must also reset the cache.
  EXPECT_EQ(SolverRegistry::Solve("shadow-test", g).stats.recursions, 1u);

  // Latest registration wins and replaces the cached instance.
  SolverRegistry::Instance().Register(
      "shadow-test", [] { return std::make_unique<MarkerSolver>(2); });
  EXPECT_EQ(SolverRegistry::Solve("shadow-test", g).stats.recursions, 2u);
}

TEST(SolverRegistry, MatchesDirectCallPathsOnPaperExample) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  const DenseSubgraph dense = testing::WholeGraphDense(g);

  EXPECT_EQ(SolverRegistry::Solve("dense", g).best.BalancedSize(),
            DenseMbbSolve(dense).best.BalancedSize());
  EXPECT_EQ(SolverRegistry::Solve("basic", g).best.BalancedSize(),
            BasicBbSolve(dense).best.BalancedSize());
  EXPECT_EQ(SolverRegistry::Solve("hbv", g).best.BalancedSize(),
            HbvMbb(g).best.BalancedSize());
  EXPECT_EQ(SolverRegistry::Solve("auto", g).best.BalancedSize(),
            FindMaximumBalancedBiclique(g).best.BalancedSize());

  // The breakdown presets mirror HbvOptions::BdN().
  EXPECT_EQ(SolverRegistry::Solve("bd3", g).best.BalancedSize(),
            HbvMbb(g, HbvOptions::Bd3()).best.BalancedSize());

  // Search statistics flow through unchanged for the dense path.
  const MbbResult via_registry = SolverRegistry::Solve("dense", g);
  const MbbResult direct = DenseMbbSolve(dense);
  EXPECT_EQ(via_registry.stats.recursions, direct.stats.recursions);
  EXPECT_EQ(via_registry.stats.bound_prunes, direct.stats.bound_prunes);
}

TEST(SolverOptions, LimitsSubsumeSearchLimitsPlumbing) {
  SolverOptions options;
  EXPECT_FALSE(options.Limits().has_deadline);
  EXPECT_EQ(options.Limits().max_recursions, 0u);

  options.time_limit_seconds = 60.0;
  options.max_recursions = 123;
  const SearchLimits limits = options.Limits();
  EXPECT_TRUE(limits.has_deadline);
  EXPECT_FALSE(limits.DeadlinePassed());
  EXPECT_EQ(limits.max_recursions, 123u);

  EXPECT_TRUE(SolverOptions::WithTimeout(30.0).Limits().has_deadline);
}

TEST(SolverOptions, RecursionCapFiresThroughRegistry) {
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.6, 11);
  SolverOptions options;
  options.max_recursions = 5;
  const MbbResult r = SolverRegistry::Solve("dense", g, options);
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(r.stats.timed_out);
}

TEST(SolverOptions, EveryExactSolverReportsWhyItStoppedEarly) {
  // A solve that gives up exactness must say which limit fired: the server
  // reads `stop_cause` to answer a cancelled query and count it.
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.6, 11);
  const SolverRegistry& registry = SolverRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    if (!registry.Get(name).IsExact() || name == "brute") continue;

    SolverOptions capped;
    capped.max_recursions = 1;
    const MbbResult r_cap = SolverRegistry::Solve(name, g, capped);
    if (!r_cap.exact) {
      EXPECT_NE(r_cap.stats.stop_cause, StopCause::kNone) << name;
    }

    SolverOptions cancelled;
    cancelled.stop_token = std::make_shared<StopToken>();
    cancelled.stop_token->RequestStop(StopCause::kExternal);
    const MbbResult r_stop = SolverRegistry::Solve(name, g, cancelled);
    if (!r_stop.exact) {
      EXPECT_EQ(r_stop.stats.stop_cause, StopCause::kExternal) << name;
    }
  }
}

TEST(SolverOptions, InitialBoundSuppressesSmallerResults) {
  const BipartiteGraph g = testing::PaperExampleGraph();  // optimum 2
  SolverOptions options;
  options.initial_bound = 2;
  EXPECT_TRUE(SolverRegistry::Solve("dense", g, options).best.Empty());
  EXPECT_TRUE(SolverRegistry::Solve("basic", g, options).best.Empty());
  options.initial_bound = 1;
  EXPECT_EQ(SolverRegistry::Solve("dense", g, options).best.BalancedSize(),
            2u);
}

TEST(SolverOptions, StatsSinkAccumulatesAcrossRuns) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  SearchStats sink;
  SolverOptions options;
  options.stats_sink = &sink;
  const MbbResult first = SolverRegistry::Solve("dense", g, options);
  EXPECT_EQ(sink.recursions, first.stats.recursions);
  const MbbResult second = SolverRegistry::Solve("dense", g, options);
  EXPECT_EQ(sink.recursions,
            first.stats.recursions + second.stats.recursions);
}

TEST(VariantSolvers, SizeconMatchesParetoFrontierOracle) {
  // The (a, b) decision answered by `sizecon` must agree with the
  // exhaustively computed Pareto frontier: an (a, b)-biclique exists iff
  // some maximal instance (x, y) dominates it.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(8, 9, 0.45, seed);
    const DenseSubgraph dense = testing::WholeGraphDense(g);
    const auto frontier = MaximalBicliqueInstances(dense);
    for (std::uint32_t a = 1; a <= 4; ++a) {
      for (std::uint32_t b = 1; b <= 4; ++b) {
        SolverOptions options;
        options.size_a = a;
        options.size_b = b;
        const MbbResult result = SolverRegistry::Solve("sizecon", g, options);
        bool oracle = false;
        for (const auto& [x, y] : frontier) {
          if (x >= a && y >= b) oracle = true;
        }
        EXPECT_EQ(!result.best.Empty(), oracle)
            << "seed " << seed << " a=" << a << " b=" << b;
        if (!result.best.Empty()) {
          EXPECT_TRUE(result.best.IsBicliqueIn(g));
          EXPECT_GE(result.best.left.size(), a);
          EXPECT_GE(result.best.right.size(), b);
        }
        EXPECT_TRUE(result.exact);
      }
    }
  }
}

TEST(VariantSolvers, SizeconBalancedDiagonalMatchesBrute) {
  // On the diagonal (a == b == k) the decision coincides with "is the MBB
  // at least k", which brute force answers directly.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(10, 10, 0.5, seed);
    const std::uint32_t optimum =
        SolverRegistry::Solve("brute", g).best.BalancedSize();
    for (std::uint32_t k = 1; k <= optimum + 1; ++k) {
      SolverOptions options;
      options.size_a = k;
      options.size_b = k;
      const MbbResult result = SolverRegistry::Solve("sizecon", g, options);
      EXPECT_EQ(!result.best.Empty(), k <= optimum)
          << "seed " << seed << " k=" << k;
    }
  }
}

TEST(VariantSolvers, TopKFirstEntryMatchesBruteAndPoolIsDisjoint) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(10, 10, 0.5, seed);
    const std::uint32_t optimum =
        SolverRegistry::Solve("brute", g).best.BalancedSize();
    SolverOptions options;
    options.top_k = 3;
    const MbbResult result = SolverRegistry::Solve("topk", g, options);
    ASSERT_TRUE(result.exact);
    ASSERT_FALSE(result.pool.empty());
    EXPECT_EQ(result.pool.front().BalancedSize(), optimum);
    EXPECT_EQ(result.best.BalancedSize(), optimum);
    EXPECT_LE(result.pool.size(), 3u);

    std::vector<bool> left_used(g.num_left(), false);
    std::vector<bool> right_used(g.num_right(), false);
    std::uint32_t previous = optimum;
    for (const Biclique& biclique : result.pool) {
      EXPECT_TRUE(biclique.IsBicliqueIn(g));
      EXPECT_LE(biclique.BalancedSize(), previous);  // largest first
      previous = biclique.BalancedSize();
      for (const VertexId v : biclique.left) {
        EXPECT_FALSE(left_used[v]) << "left vertex reused: " << v;
        left_used[v] = true;
      }
      for (const VertexId v : biclique.right) {
        EXPECT_FALSE(right_used[v]) << "right vertex reused: " << v;
        right_used[v] = true;
      }
    }
  }
}

TEST(VariantSolvers, TopKSecondEntryIsOptimalOnThePeeledGraph) {
  // After removing the first biclique's vertices, the second entry must be
  // the brute-force optimum of the remaining induced graph.
  const BipartiteGraph g = testing::RandomGraph(9, 9, 0.55, 3);
  SolverOptions options;
  options.top_k = 2;
  const MbbResult result = SolverRegistry::Solve("topk", g, options);
  ASSERT_EQ(result.pool.size(), 2u);

  std::vector<VertexId> left_alive;
  std::vector<VertexId> right_alive;
  for (VertexId v = 0; v < g.num_left(); ++v) {
    if (std::find(result.pool[0].left.begin(), result.pool[0].left.end(), v) ==
        result.pool[0].left.end()) {
      left_alive.push_back(v);
    }
  }
  for (VertexId v = 0; v < g.num_right(); ++v) {
    if (std::find(result.pool[0].right.begin(),
                  result.pool[0].right.end(),
                  v) == result.pool[0].right.end()) {
      right_alive.push_back(v);
    }
  }
  const InducedSubgraph peeled = g.Induce(left_alive, right_alive);
  EXPECT_EQ(result.pool[1].BalancedSize(),
            SolverRegistry::Solve("brute", peeled.graph).best.BalancedSize());
}

TEST(SearchContext, FramesGrowOnDemandAndStayStable) {
  SearchContext ctx;
  EXPECT_EQ(ctx.FrameCount(), 0u);
  SearchContext::BranchFrame& f0 = ctx.Frame(0);
  SearchContext::BranchFrame& f3 = ctx.Frame(3);
  EXPECT_EQ(ctx.FrameCount(), 4u);
  f0.ca.Resize(64);
  f0.ca.SetAll();
  f3.ca.Resize(10);
  // Growing the pool must not invalidate earlier frames (deque storage).
  ctx.Frame(40);
  EXPECT_EQ(ctx.FrameCount(), 41u);
  EXPECT_EQ(&ctx.Frame(0), &f0);
  EXPECT_EQ(f0.ca.Count(), 64u);
}

TEST(SearchContext, MatchingScratchRecyclesRows) {
  SearchContext ctx;
  SearchContext::MatchingScratch& m = ctx.matching();
  m.BeginRound();
  m.NextRow().push_back(7);
  m.NextRow().push_back(9);
  EXPECT_EQ(m.rows_used, 2u);
  m.BeginRound();
  EXPECT_EQ(m.rows_used, 0u);
  std::vector<std::uint32_t>& row = m.NextRow();
  EXPECT_TRUE(row.empty());  // recycled row comes back cleared
  EXPECT_EQ(m.adj.size(), 2u);
}

TEST(SearchContext, SharedContextGivesIdenticalResults) {
  // Reusing one arena across many searches must not change any outcome.
  SearchContext shared;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(14, 14, 0.5, seed);
    const DenseSubgraph dense = testing::WholeGraphDense(g);
    const MbbResult fresh = DenseMbbSolve(dense);
    const MbbResult pooled = DenseMbbSolve(dense, {}, 0, &shared);
    EXPECT_EQ(fresh.best.BalancedSize(), pooled.best.BalancedSize());
    EXPECT_EQ(fresh.stats.recursions, pooled.stats.recursions);
    const MbbResult basic_fresh = BasicBbSolve(dense);
    const MbbResult basic_pooled = BasicBbSolve(dense, {}, 0, &shared);
    EXPECT_EQ(basic_fresh.best.BalancedSize(),
              basic_pooled.best.BalancedSize());
    EXPECT_EQ(basic_fresh.stats.recursions, basic_pooled.stats.recursions);
  }
}

}  // namespace
}  // namespace mbb
