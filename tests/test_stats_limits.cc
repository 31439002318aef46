/// Tests for the shared stats/limits plumbing and the umbrella header.

#include "mbb.h"  // umbrella: everything must compile together

#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "test_util.h"

namespace mbb {
namespace {

TEST(SearchStats, MergeAccumulatesCounters) {
  SearchStats a;
  a.recursions = 10;
  a.leaves = 2;
  a.bound_prunes = 3;
  a.matching_prunes = 1;
  a.reduction_removed = 5;
  a.reduction_promoted = 6;
  a.poly_cases = 7;
  a.depth_sum = 40;
  a.max_depth = 9;
  a.subgraphs_total = 11;
  a.subgraphs_searched = 4;
  a.terminated_step = 2;

  SearchStats b;
  b.recursions = 1;
  b.max_depth = 20;
  b.terminated_step = 1;
  b.timed_out = true;

  a.Merge(b);
  EXPECT_EQ(a.recursions, 11u);
  EXPECT_EQ(a.max_depth, 20u);          // max, not sum
  EXPECT_EQ(a.terminated_step, 2);      // max
  EXPECT_TRUE(a.timed_out);             // sticky
  EXPECT_EQ(a.depth_sum, 40u);
  EXPECT_EQ(a.subgraphs_total, 11u);
}

TEST(SearchStats, MergeSumsSkippedAndKeepsFirstStopCause) {
  SearchStats a;
  a.subgraphs_skipped = 2;
  a.stop_cause = StopCause::kDeadline;
  SearchStats b;
  b.subgraphs_skipped = 3;
  b.stop_cause = StopCause::kRecursionCap;
  a.Merge(b);
  EXPECT_EQ(a.subgraphs_skipped, 5u);
  EXPECT_EQ(a.stop_cause, StopCause::kDeadline);  // first cause wins

  SearchStats c;  // a cause merges into a still-clean sink
  c.Merge(b);
  EXPECT_EQ(c.stop_cause, StopCause::kRecursionCap);
}

TEST(SearchStats, AverageDepth) {
  SearchStats s;
  EXPECT_DOUBLE_EQ(s.AverageDepth(), 0.0);  // no division by zero
  s.recursions = 4;
  s.depth_sum = 10;
  EXPECT_DOUBLE_EQ(s.AverageDepth(), 2.5);
}

TEST(SearchLimits, NoneNeverFires) {
  const SearchLimits limits = SearchLimits::None();
  EXPECT_FALSE(limits.has_deadline);
  EXPECT_FALSE(limits.DeadlinePassed());
  EXPECT_EQ(limits.max_recursions, 0u);
}

TEST(SearchLimits, FromSecondsFuturePastSemantics) {
  EXPECT_FALSE(SearchLimits::FromSeconds(60.0).DeadlinePassed());
  EXPECT_TRUE(SearchLimits::FromSeconds(-0.001).DeadlinePassed());
}

TEST(SearchLimits, CheckStopReportsRecursionCap) {
  SearchLimits limits;
  limits.max_recursions = 10;
  EXPECT_EQ(limits.CheckStop(10), StopCause::kNone);
  EXPECT_EQ(limits.CheckStop(11), StopCause::kRecursionCap);
}

TEST(SearchLimits, ExternalStopTokenFiresOffPollBoundary) {
  SearchLimits limits;
  limits.stop_token = std::make_shared<StopToken>();
  // The clock is only read at poll boundaries, but a tripped token must be
  // observed on every check — that is what makes the parallel stop prompt.
  EXPECT_EQ(limits.CheckStop(5), StopCause::kNone);
  limits.stop_token->RequestStop(StopCause::kExternal);
  EXPECT_EQ(limits.CheckStop(5), StopCause::kExternal);
}

TEST(SearchLimits, DeadlineObservationTripsTheSharedToken) {
  SearchLimits limits = SearchLimits::FromSeconds(-1.0);
  limits.stop_token = std::make_shared<StopToken>();
  // Off the poll boundary the clock is not read, token still clean.
  EXPECT_EQ(limits.CheckStop(2), StopCause::kNone);
  // On the boundary the deadline is observed and broadcast.
  EXPECT_EQ(limits.CheckStop(1), StopCause::kDeadline);
  EXPECT_TRUE(limits.stop_token->StopRequested());
  EXPECT_EQ(limits.stop_token->cause(), StopCause::kDeadline);

  // A sibling sharing the token (no deadline of its own) stops too, at any
  // recursion count.
  SearchLimits sibling;
  sibling.stop_token = limits.stop_token;
  EXPECT_EQ(sibling.CheckStop(7), StopCause::kDeadline);
}

TEST(SearchLimits, SingleThreadPollIntervalSemanticsUnchanged) {
  // Without a token, a passed deadline is only noticed at poll boundaries
  // (recursions ≡ 1 mod kDeadlinePollInterval) — the original contract.
  const SearchLimits limits = SearchLimits::FromSeconds(-1.0);
  EXPECT_EQ(limits.CheckStop(2), StopCause::kNone);
  EXPECT_EQ(limits.CheckStop(1), StopCause::kDeadline);
  EXPECT_EQ(limits.CheckStop(SearchLimits::kDeadlinePollInterval + 1),
            StopCause::kDeadline);
}

TEST(MbbResult, DefaultIsExactAndEmpty) {
  const MbbResult r;
  EXPECT_TRUE(r.exact);
  EXPECT_TRUE(r.best.Empty());
  EXPECT_EQ(r.stats.terminated_step, 0);
}

TEST(UmbrellaHeader, AllEntryPointsVisible) {
  // Compile-and-run smoke across every public solver on one small graph.
  const BipartiteGraph g = testing::PaperExampleGraph();
  const DenseSubgraph s = testing::WholeGraphDense(g);
  EXPECT_EQ(FindMaximumBalancedBiclique(g).best.BalancedSize(), 2u);
  EXPECT_EQ(DenseMbbSolve(s).best.BalancedSize(), 2u);
  EXPECT_EQ(BasicBbSolve(s).best.BalancedSize(), 2u);
  EXPECT_EQ(HbvMbb(g).best.BalancedSize(), 2u);
  EXPECT_EQ(ExtBbclqSolve(g).best.BalancedSize(), 2u);
  EXPECT_EQ(ImbeaSolve(g).best.BalancedSize(), 2u);
  EXPECT_EQ(FmbeSolve(g).best.BalancedSize(), 2u);
  EXPECT_EQ(AdpSolve(g, AdpVariant::kAdp1).best.BalancedSize(), 2u);
  EXPECT_EQ(BruteForceMbbSize(g), 2u);
  EXPECT_LE(PolsSolve(g).BalancedSize(), 2u);
  EXPECT_LE(SbmnasSolve(g).BalancedSize(), 2u);
  EXPECT_GE(MvbBalancedUpperBound(g), 2u);
  EXPECT_TRUE(FindSizeConstrainedBiclique(s, 2, 2).has_value());
  EXPECT_EQ(ComputeCores(g).degeneracy, 2u);
  EXPECT_EQ(ComputeBicores(g).bidegeneracy, 4u);
  EXPECT_GE(HopcroftKarp(g).size, 1u);
}

TEST(HbvStats, SubgraphAccountingIsConsistent) {
  // total == pruned-by-size + pruned-by-degeneracy + searched (+survivors
  // re-filtered — counted inside pruned buckets), across random graphs.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(25, 25, 0.25, seed);
    const MbbResult r = HbvMbb(g);
    if (r.stats.terminated_step < 2) continue;
    EXPECT_GE(r.stats.subgraphs_total,
              r.stats.subgraphs_pruned_size +
                  r.stats.subgraphs_pruned_degeneracy +
                  r.stats.subgraphs_searched -
                  // verification re-checks count into the pruned buckets a
                  // second time; allow that overlap
                  r.stats.subgraphs_searched);
  }
}

TEST(ExternalCancellation, SecondThreadStopsARunningSolve) {
  // A serving front end cancels a query by tripping the request's token
  // from another thread while the solver is deep in its recursion. The
  // solve must return promptly, report the external cause, and leave its
  // SearchContext reusable for the next query.
  const BipartiteGraph hard = testing::RandomGraph(72, 72, 0.90, 7);
  SearchContext context;
  SolverOptions options;
  options.stop_token = std::make_shared<StopToken>();
  options.context = &context;

  std::thread canceller([token = options.stop_token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token->RequestStop(StopCause::kExternal);
  });
  const auto start = std::chrono::steady_clock::now();
  const MbbResult cancelled = SolverRegistry::Solve("dense", hard, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();

  EXPECT_FALSE(cancelled.exact);
  EXPECT_EQ(cancelled.stats.stop_cause, StopCause::kExternal);
  // The token is observed at every limit check, so the return is prompt
  // even though the uncancelled solve runs for seconds (bound is generous
  // for the sanitizer legs).
  EXPECT_LT(seconds, 10.0);

  // The aborted search must not leak state into the pooled context: the
  // same arena must produce the exact answer on the next query.
  const BipartiteGraph small = testing::RandomGraph(24, 24, 0.5, 11);
  SolverOptions reuse;
  reuse.context = &context;
  const MbbResult after = SolverRegistry::Solve("dense", small, reuse);
  const MbbResult fresh = SolverRegistry::Solve("dense", small, {});
  EXPECT_TRUE(after.exact);
  EXPECT_EQ(after.best.BalancedSize(), fresh.best.BalancedSize());
}

TEST(ExternalCancellation, TokenTrippedBeforeTheSolveShortCircuits) {
  const BipartiteGraph g = testing::RandomGraph(40, 40, 0.6, 3);
  SolverOptions options;
  options.stop_token = std::make_shared<StopToken>();
  options.stop_token->RequestStop(StopCause::kExternal);
  const MbbResult r = SolverRegistry::Solve("dense", g, options);
  EXPECT_FALSE(r.exact);
  EXPECT_EQ(r.stats.stop_cause, StopCause::kExternal);
  EXPECT_TRUE(r.best.Empty());
}

TEST(DenseMbbStats, MatchingPrunesAreCounted) {
  const BipartiteGraph g = testing::RandomGraph(32, 32, 0.85, 3);
  const MbbResult r = DenseMbbSolve(testing::WholeGraphDense(g));
  EXPECT_GT(r.stats.matching_prunes, 0u);
  DenseMbbOptions no_matching;
  no_matching.use_matching_bound = false;
  const MbbResult r2 =
      DenseMbbSolve(testing::WholeGraphDense(g), no_matching);
  EXPECT_EQ(r2.stats.matching_prunes, 0u);
  EXPECT_EQ(r.best.BalancedSize(), r2.best.BalancedSize());
  // The bound should reduce work substantially on dense inputs.
  EXPECT_LT(r.stats.recursions, r2.stats.recursions);
}

}  // namespace
}  // namespace mbb
