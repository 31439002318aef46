/// Tests for the unified solver engine: the `SolverRegistry` mechanics,
/// the `SolverOptions` resource plumbing (limits, initial bound, stats
/// sink), equivalence between registry dispatch and the direct-call entry
/// points, and the pooled `SearchContext` arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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
  // reads `stop_cause` to answer a cancelled query and count it, and the
  // eval tables read `timed_out` to print the timeout marker.
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.6, 11);
  const SolverRegistry& registry = SolverRegistry::Instance();
  for (const std::string& name : registry.Names()) {
    if (!registry.Get(name).IsExact() || name == "brute") continue;

    SolverOptions capped;
    capped.max_recursions = 1;
    const MbbResult r_cap = SolverRegistry::Solve(name, g, capped);
    if (!r_cap.exact) {
      EXPECT_NE(r_cap.stats.stop_cause, StopCause::kNone) << name;
      EXPECT_TRUE(r_cap.stats.timed_out) << name;
    }

    SolverOptions cancelled;
    cancelled.stop_token = std::make_shared<StopToken>();
    cancelled.stop_token->RequestStop(StopCause::kExternal);
    const MbbResult r_stop = SolverRegistry::Solve(name, g, cancelled);
    if (!r_stop.exact) {
      EXPECT_EQ(r_stop.stats.stop_cause, StopCause::kExternal) << name;
      EXPECT_TRUE(r_stop.stats.timed_out) << name;
    }
  }
}

TEST(SolverOptions, PreTrippedStopSkipsEveryStep2Centre) {
  // Step 1 does not solve this graph, so the solve reaches step 2. A stop
  // requested before the solve starts must end the scan before its first
  // centre, not after the last one.
  const BipartiteGraph g = testing::RandomGraph(200, 200, 0.05, 1);
  ASSERT_GT(SolverRegistry::Solve("hbv", g).stats.subgraphs_total, 0u);

  SolverOptions options;
  options.stop_token = std::make_shared<StopToken>();
  options.stop_token->RequestStop(StopCause::kExternal);
  const MbbResult r = SolverRegistry::Solve("hbv", g, options);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.stats.stop_cause, StopCause::kExternal);
  EXPECT_GT(r.stats.subgraphs_total, 0u);
  EXPECT_EQ(r.stats.subgraphs_skipped, r.stats.subgraphs_total);
  EXPECT_EQ(r.stats.subgraphs_searched, 0u);
  EXPECT_EQ(r.stats.terminated_step, 2);
  EXPECT_TRUE(r.best.IsBicliqueIn(g));
}

TEST(SolverOptions, DeadlineMidStep2CountsEveryCentreOnce) {
  // bd4's degree order is cheap, step 1 does not solve this graph and
  // step 3 has few survivors, so the step-2 scan takes most of the solve:
  // a deadline at a fraction of the full solve time stops the scan after
  // it kept some centres for step 3. Those must count as skipped, like
  // the centres the scan never reached.
  const BipartiteGraph g = testing::RandomGraph(800, 800, 0.05, 1);
  for (const std::uint32_t threads : {1u, 4u}) {
    SolverOptions options;
    options.num_threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const MbbResult full = SolverRegistry::Solve("bd4", g, options);
    const std::chrono::duration<double> full_time =
        std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(full.exact);
    ASSERT_EQ(full.stats.terminated_step, 3);
    bool stopped_mid_scan = false;
    for (const double fraction : {0.25, 0.5, 0.75}) {
      options.time_limit_seconds = fraction * full_time.count();
      const MbbResult r = SolverRegistry::Solve("bd4", g, options);
      const SearchStats& s = r.stats;
      EXPECT_TRUE(r.best.IsBicliqueIn(g));
      EXPECT_EQ(s.subgraphs_pruned_size + s.subgraphs_pruned_degeneracy +
                    s.subgraphs_searched + s.subgraphs_skipped,
                s.subgraphs_total)
          << "threads " << threads << " fraction " << fraction;
      if (r.exact) continue;
      EXPECT_EQ(s.stop_cause, StopCause::kDeadline);
      EXPECT_TRUE(s.timed_out);
      if (s.terminated_step == 2 && s.subgraphs_skipped > 0 &&
          s.subgraphs_skipped < s.subgraphs_total) {
        stopped_mid_scan = true;
      }
    }
    EXPECT_TRUE(stopped_mid_scan) << "threads " << threads;
  }
}

TEST(VariantSolvers, AdaptedIsAnAliasOfAdp3) {
  std::vector<BipartiteGraph> graphs = {
      testing::PaperExampleGraph(), testing::RandomGraph(20, 20, 0.4, 7),
      testing::RandomGraph(24, 24, 0.5, 3),
      testing::RandomGraph(30, 30, 0.3, 11)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const BipartiteGraph& g = graphs[i];
    for (const std::uint32_t threads : {1u, 4u}) {
      SolverOptions options;
      options.num_threads = threads;
      options.deterministic = threads > 1;
      const MbbResult alias = SolverRegistry::Solve("adapted", g, options);
      const MbbResult adp3 = SolverRegistry::Solve("adp3", g, options);
      EXPECT_EQ(alias.best.left, adp3.best.left) << "graph " << i;
      EXPECT_EQ(alias.best.right, adp3.best.right) << "graph " << i;
      EXPECT_EQ(alias.exact, adp3.exact) << "graph " << i;
      EXPECT_TRUE(alias.stats == adp3.stats)
          << "graph " << i << " threads " << threads;
    }
  }
}

TEST(VariantSolvers, FmbeFanOutIsDeterministic) {
  // FMBE's scopes used to snapshot the live shared bound even under
  // `deterministic`, so at four workers this graph's counters varied from
  // run to run (recursions 647, 685 or 725).
  const BipartiteGraph g = testing::RandomGraph(40, 40, 0.15, 5);
  for (const char* name : {"fmbe", "adp1", "adp3"}) {
    SolverOptions options;
    options.num_threads = 4;
    options.deterministic = true;
    const MbbResult first = SolverRegistry::Solve(name, g, options);
    for (int run = 1; run < 20; ++run) {
      const MbbResult again = SolverRegistry::Solve(name, g, options);
      EXPECT_EQ(again.best.left, first.best.left) << name << " run " << run;
      EXPECT_EQ(again.best.right, first.best.right) << name << " run " << run;
      EXPECT_TRUE(again.stats == first.stats) << name << " run " << run;
    }
  }
}

TEST(SolverOptions, InitialBoundSuppressesSmallerResults) {
  // Every exact plain-MBB solver; `sizecon`, `topk` and `brute` ignore the
  // bound by contract (see `SolverOptions::initial_bound`).
  const char* kPlainMbb[] = {
      "dense", "basic", "hbv",     "bd1",  "bd2",  "bd3",  "bd4",
      "bd5",   "auto",  "extbbclq", "imbea", "fmbe", "adapted", "adp1",
      "adp2",  "adp3",  "adp4"};
  for (const BipartiteGraph& g :
       {testing::PaperExampleGraph(), testing::RandomGraph(20, 20, 0.4, 7)}) {
    const std::uint32_t optimum = SolverRegistry::Solve("brute", g)
                                      .best.BalancedSize();
    ASSERT_GT(optimum, 1u);
    for (const char* name : kPlainMbb) {
      SolverOptions options;
      options.initial_bound = optimum;
      EXPECT_TRUE(SolverRegistry::Solve(name, g, options).best.Empty())
          << name << ": nothing beats bound " << optimum;
      options.initial_bound = optimum - 1;
      EXPECT_EQ(SolverRegistry::Solve(name, g, options).best.BalancedSize(),
                optimum)
          << name << " at bound " << optimum - 1;
    }
  }
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

TEST(VariantSolvers, SizeconReportsItsSearchStats) {
  // sizecon's counters reach the engine result like every exact key's,
  // and a fired limit carries its cause there.
  const BipartiteGraph g = testing::RandomGraph(40, 40, 0.8, 3);
  SolverOptions options;
  options.size_a = SolverRegistry::Solve("dense", g).best.BalancedSize() + 1;
  options.size_b = options.size_a;
  const MbbResult full = SolverRegistry::Solve("sizecon", g, options);
  EXPECT_TRUE(full.best.Empty());
  EXPECT_TRUE(full.exact);
  EXPECT_GT(full.stats.recursions, 1u);
  EXPECT_GT(full.stats.matching_prunes, 0u);
  EXPECT_EQ(full.stats.stop_cause, StopCause::kNone);

  options.max_recursions = full.stats.recursions - 1;
  const MbbResult capped = SolverRegistry::Solve("sizecon", g, options);
  EXPECT_FALSE(capped.exact);
  EXPECT_TRUE(capped.stats.timed_out);
  EXPECT_EQ(capped.stats.stop_cause, StopCause::kRecursionCap);
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
