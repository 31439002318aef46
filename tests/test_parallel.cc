/// Tests for the parallel execution layer: the worker pool, the shared
/// stop-token / incumbent primitives, that the verifyMBB fan-out returns
/// the same best balanced size at every thread count as with one worker,
/// and exact one-worker counters and witnesses of the sparse pipeline.

#include "engine/parallel.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/bridge_mbb.h"
#include "core/hbv_mbb.h"
#include "core/verify_mbb.h"
#include "engine/registry.h"
#include "test_util.h"

namespace mbb {
namespace {

// ---------------------------------------------------------------------------
// Worker pool.
// ---------------------------------------------------------------------------

TEST(EffectiveThreadCount, ClampsToItemsAndFloorsAtOne) {
  EXPECT_EQ(EffectiveThreadCount(1, 10), 1u);
  EXPECT_EQ(EffectiveThreadCount(4, 10), 4u);
  EXPECT_EQ(EffectiveThreadCount(4, 2), 2u);   // never more than items
  EXPECT_EQ(EffectiveThreadCount(4, 0), 1u);   // floor at one
  EXPECT_GE(EffectiveThreadCount(0, 1000), 1u);  // 0 = hardware threads
}

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> counts(kItems);
  ParallelFor(8, kItems, [&](std::size_t worker, std::size_t item) {
    EXPECT_LT(worker, 8u);
    counts[item].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, SingleWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(1, 5, [&](std::size_t worker, std::size_t item) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(item);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, WorkerIndexClampedToItemCount) {
  std::atomic<int> total{0};
  ParallelFor(8, 3, [&](std::size_t worker, std::size_t) {
    EXPECT_LT(worker, 3u);  // only as many workers as items
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, ZeroItemsIsANoOp) {
  ParallelFor(4, 0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, FirstExceptionPropagatesAfterJoin) {
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(4, 64,
                  [&](std::size_t, std::size_t item) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (item == 0) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Shared primitives under contention (the TSan job exercises these hard).
// ---------------------------------------------------------------------------

TEST(SharedBound, RaiseToIsMonotone) {
  SharedBound bound(3);
  EXPECT_EQ(bound.Load(), 3u);
  EXPECT_EQ(bound.RaiseTo(5), 5u);
  EXPECT_EQ(bound.RaiseTo(4), 5u);  // lowering is a no-op
  EXPECT_EQ(bound.Load(), 5u);
}

TEST(SharedBound, ConcurrentRaisesKeepTheMaximum) {
  SharedBound bound(0);
  ParallelFor(8, 800, [&](std::size_t, std::size_t item) {
    bound.RaiseTo(static_cast<std::uint32_t>(item));
  });
  EXPECT_EQ(bound.Load(), 799u);
}

TEST(StopToken, FirstCauseWinsUnderConcurrency) {
  StopToken token;
  EXPECT_FALSE(token.StopRequested());
  EXPECT_EQ(token.cause(), StopCause::kNone);
  ParallelFor(8, 64, [&](std::size_t, std::size_t item) {
    token.RequestStop(item % 2 == 0 ? StopCause::kDeadline
                                    : StopCause::kExternal);
  });
  EXPECT_TRUE(token.StopRequested());
  const StopCause cause = token.cause();
  EXPECT_TRUE(cause == StopCause::kDeadline || cause == StopCause::kExternal);
}

// ---------------------------------------------------------------------------
// Determinism: verify at T workers == verify at one worker.
// ---------------------------------------------------------------------------

std::uint32_t BridgeThenVerifyBestSize(const BipartiteGraph& g,
                                       std::uint32_t num_threads) {
  const BridgeOutcome bridge = BridgeMbb(g, 0, {});
  if (bridge.survivors.empty()) return bridge.best_size;
  VerifyOptions options;
  options.num_threads = num_threads;
  const VerifyOutcome verify =
      VerifyMbb(g, bridge.best_size, bridge.survivors, options);
  EXPECT_TRUE(verify.exact);
  return verify.best_size;
}

TEST(ParallelVerify, PaperExampleAgreesAtEveryThreadCount) {
  const BipartiteGraph g = testing::PaperExampleGraph();
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(BridgeThenVerifyBestSize(g, threads), 2u) << threads;
    HbvOptions options;
    options.num_threads = threads;
    EXPECT_EQ(HbvMbb(g, options).best.BalancedSize(), 2u) << threads;
  }
}

TEST(ParallelVerify, MatchesSequentialOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(
        10 + seed % 6, 10 + (seed * 7) % 6,
        0.3 + 0.05 * static_cast<double>(seed % 5), seed);
    const std::uint32_t sequential = BridgeThenVerifyBestSize(g, 1);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      EXPECT_EQ(BridgeThenVerifyBestSize(g, threads), sequential)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelVerify, ParallelBicliqueIsValidAndOptimal) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(12, 12, 0.4, seed + 500);
    const std::uint32_t optimum = BruteForceMbbSize(g);
    const BridgeOutcome bridge = BridgeMbb(g, 0, {});
    VerifyOptions options;
    options.num_threads = 4;
    const VerifyOutcome verify =
        VerifyMbb(g, bridge.best_size, bridge.survivors, options);
    EXPECT_EQ(verify.best_size, optimum) << seed;
    if (verify.improved) {
      EXPECT_TRUE(verify.best.IsBicliqueIn(g));
      EXPECT_EQ(verify.best.BalancedSize(), verify.best_size);
    }
  }
}

TEST(ParallelVerify, RegistryHonoursNumThreads) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = testing::RandomGraph(14, 14, 0.35, seed + 900);
    const std::uint32_t optimum = BruteForceMbbSize(g);
    for (const std::uint32_t threads : {1u, 8u}) {
      SolverOptions options;
      options.num_threads = threads;
      const MbbResult result = SolverRegistry::Solve("hbv", g, options);
      EXPECT_EQ(result.best.BalancedSize(), optimum)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(result.exact);
    }
  }
}

TEST(ParallelVerify, AutoThreadCountSmoke) {
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.3, 11);
  const std::uint32_t sequential = BridgeThenVerifyBestSize(g, 1);
  EXPECT_EQ(BridgeThenVerifyBestSize(g, 0), sequential);  // 0 = hardware
}

// ---------------------------------------------------------------------------
// Shared stop behaviour of the fan-out.
// ---------------------------------------------------------------------------

TEST(ParallelVerify, PreTrippedStopTokenSkipsEverySurvivor) {
  const BipartiteGraph g = testing::RandomGraph(16, 16, 0.4, 21);
  BridgeOptions bridge_options;
  bridge_options.use_local_heuristic = false;
  const BridgeOutcome bridge = BridgeMbb(g, 0, bridge_options);
  ASSERT_GE(bridge.survivors.size(), 2u);
  VerifyOptions options;
  options.num_threads = 4;
  options.dense.limits.stop_token = std::make_shared<StopToken>();
  options.dense.limits.stop_token->RequestStop(StopCause::kExternal);
  const VerifyOutcome out =
      VerifyMbb(g, bridge.best_size, bridge.survivors, options);
  EXPECT_FALSE(out.exact);
  EXPECT_FALSE(out.improved);
  EXPECT_EQ(out.stats.subgraphs_searched, 0u);
  EXPECT_EQ(out.stats.subgraphs_skipped, bridge.survivors.size());
  EXPECT_EQ(out.stats.stop_cause, StopCause::kExternal);
}

TEST(ParallelVerify, RecursionCapAbortsTheWholeFanOut) {
  const BipartiteGraph g = testing::RandomGraph(16, 16, 0.45, 33);
  BridgeOptions bridge_options;
  bridge_options.use_local_heuristic = false;
  const BridgeOutcome bridge = BridgeMbb(g, 0, bridge_options);
  ASSERT_GE(bridge.survivors.size(), 4u);
  VerifyOptions options;
  options.num_threads = 4;
  options.dense.limits.max_recursions = 1;
  const VerifyOutcome out =
      VerifyMbb(g, bridge.best_size, bridge.survivors, options);
  ASSERT_FALSE(out.exact);
  EXPECT_EQ(out.stats.stop_cause, StopCause::kRecursionCap);
  // The first capped search aborts the scan (sequential semantics): the
  // fan-out must not run a capped search per survivor. Searches that
  // complete exactly before any cap fires don't trip the token, so the
  // bound is "strictly fewer than all", not "one per worker".
  EXPECT_LT(out.stats.subgraphs_searched, bridge.survivors.size());
  EXPECT_GT(out.stats.subgraphs_skipped, 0u);
  EXPECT_EQ(out.stats.subgraphs_pruned_size +
                out.stats.subgraphs_pruned_degeneracy +
                out.stats.subgraphs_searched + out.stats.subgraphs_skipped,
            bridge.survivors.size());
}

TEST(ParallelVerify, DeadlineSkipsAreAccountedAcrossWorkers) {
  const BipartiteGraph g = testing::RandomGraph(16, 16, 0.45, 33);
  BridgeOptions bridge_options;
  bridge_options.use_local_heuristic = false;
  const BridgeOutcome bridge = BridgeMbb(g, 0, bridge_options);
  ASSERT_GE(bridge.survivors.size(), 2u);
  VerifyOptions options;
  options.num_threads = 4;
  options.dense.limits = SearchLimits::FromSeconds(-1.0);
  const VerifyOutcome out =
      VerifyMbb(g, bridge.best_size, bridge.survivors, options);
  EXPECT_FALSE(out.exact);
  EXPECT_TRUE(out.stats.timed_out);
  EXPECT_EQ(out.stats.stop_cause, StopCause::kDeadline);
  // Every survivor lands in exactly one bucket even under concurrency.
  EXPECT_EQ(out.stats.subgraphs_pruned_size +
                out.stats.subgraphs_pruned_degeneracy +
                out.stats.subgraphs_searched + out.stats.subgraphs_skipped,
            bridge.survivors.size());
}

// ---------------------------------------------------------------------------
// One-worker pins: exact counters and witnesses of the step-2/step-3 scans
// at one thread. The values are recorded, not derived, so any drift in
// one-worker pruning, scan order or reduction order shows up here, not
// just a change of the optimum.
// ---------------------------------------------------------------------------

struct ScanPin {
  std::uint64_t total;
  std::uint64_t pruned_size;
  std::uint64_t pruned_degeneracy;
  std::uint64_t searched;
  std::uint64_t skipped;
  std::uint64_t recursions;
  std::vector<VertexId> left;
  std::vector<VertexId> right;
};

void ExpectPinned(const SearchStats& stats, const Biclique& best,
                  const ScanPin& pin, const std::string& label) {
  EXPECT_EQ(stats.subgraphs_total, pin.total) << label;
  EXPECT_EQ(stats.subgraphs_pruned_size, pin.pruned_size) << label;
  EXPECT_EQ(stats.subgraphs_pruned_degeneracy, pin.pruned_degeneracy)
      << label;
  EXPECT_EQ(stats.subgraphs_searched, pin.searched) << label;
  EXPECT_EQ(stats.subgraphs_skipped, pin.skipped) << label;
  EXPECT_EQ(stats.recursions, pin.recursions) << label;
  EXPECT_EQ(best.left, pin.left) << label;
  EXPECT_EQ(best.right, pin.right) << label;
}

TEST(OneWorkerPin, SparsePipelineCountersAndWitnesses) {
  struct Case {
    const char* algo;
    bool deterministic;
    std::uint32_t n;
    double density;
    std::uint64_t seed;
    ScanPin pin;
  };
  const std::vector<VertexId> a_left = {50, 58, 37, 62};
  const std::vector<VertexId> a_right = {1, 3, 24, 69};
  const std::vector<VertexId> b_left = {34, 31, 42, 47, 55};
  const std::vector<VertexId> b_right = {40, 1, 26, 18, 22};
  const Case cases[] = {
      {"hbv", false, 80, 0.25, 3, {160, 79, 12, 69, 0, 1249, a_left, a_right}},
      {"bd2", false, 80, 0.25, 3, {160, 79, 0, 81, 0, 1261, a_left, a_right}},
      {"hbv", true, 80, 0.25, 3, {160, 79, 12, 69, 0, 1249, a_left, a_right}},
      {"hbv", false, 60, 0.3, 2, {120, 64, 41, 15, 0, 85, b_left, b_right}},
      {"bd2", false, 60, 0.3, 2, {120, 64, 0, 56, 0, 126, b_left, b_right}},
      // At one worker the deterministic scans prune against the live
      // incumbent; frozen snapshots would move one centre from the size
      // bucket to the degeneracy bucket here.
      {"hbv", true, 60, 0.3, 2, {120, 64, 41, 15, 0, 85, b_left, b_right}},
  };
  for (const Case& c : cases) {
    const BipartiteGraph g =
        testing::RandomGraph(c.n, c.n, c.density, c.seed);
    SolverOptions options;
    options.num_threads = 1;
    options.deterministic = c.deterministic;
    const MbbResult result = SolverRegistry::Solve(c.algo, g, options);
    const std::string label = std::string(c.algo) +
                              (c.deterministic ? " det " : " ") +
                              std::to_string(c.n);
    EXPECT_TRUE(result.exact) << label;
    ExpectPinned(result.stats, result.best, c.pin, label);
  }
}

TEST(OneWorkerPin, RecursionCappedVerify) {
  const BipartiteGraph g = testing::RandomGraph(80, 80, 0.25, 3);
  BridgeOptions bridge_options;
  bridge_options.use_local_heuristic = false;
  const BridgeOutcome bridge = BridgeMbb(g, 0, bridge_options);
  ASSERT_EQ(bridge.survivors.size(), 85u);
  VerifyOptions options;
  options.dense.limits.max_recursions = 30;
  const VerifyOutcome out =
      VerifyMbb(g, bridge.best_size, bridge.survivors, options);
  EXPECT_FALSE(out.exact);
  EXPECT_EQ(out.stats.stop_cause, StopCause::kRecursionCap);
  EXPECT_EQ(out.best_size, 3u);
  ExpectPinned(out.stats, out.best,
               {0, 0, 0, 2, 83, 54, {2, 8, 77}, {47, 35, 72}}, "verify");
}

}  // namespace
}  // namespace mbb
