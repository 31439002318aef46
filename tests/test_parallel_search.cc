/// Tests for work-stealing subtree parallelism inside a single search: the
/// StealDeque / StealScheduler primitives, the parallel denseMBB driver
/// (same best size as the sequential recursion at every thread count, and
/// in deterministic mode the same *biclique* and the same traversal), and
/// the parallel bridge scan.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bridge_mbb.h"
#include "core/dense_mbb.h"
#include "engine/parallel.h"
#include "graph/bit_ops.h"
#include "test_util.h"

namespace mbb {
namespace {

using mbb::testing::PaperExampleGraph;
using mbb::testing::RandomGraph;
using mbb::testing::WholeGraphDense;

constexpr std::uint32_t kThreadCounts[] = {1, 2, 4, 8};

/// Restores the kernel dispatch policy on scope exit (same idiom as
/// test_bit_ops.cc), so a forced-scalar block can't leak into other tests.
class ScopedPolicy {
 public:
  explicit ScopedPolicy(bitops::DispatchPolicy policy)
      : saved_(bitops::GetDispatchPolicy()) {
    bitops::SetDispatchPolicy(policy);
  }
  ~ScopedPolicy() { bitops::SetDispatchPolicy(saved_); }

 private:
  bitops::DispatchPolicy saved_;
};

// ---------------------------------------------------------------------------
// StealDeque.
// ---------------------------------------------------------------------------

TEST(StealDeque, OwnerPopsLifo) {
  StealDeque d;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    d.PushBottom([&order, i](std::size_t) { order.push_back(i); });
  }
  StealDeque::Task task;
  while (d.PopBottom(task)) task(0);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(StealDeque, ThiefStealsFifo) {
  StealDeque d;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    d.PushBottom([&order, i](std::size_t) { order.push_back(i); });
  }
  StealDeque::Task task;
  while (d.StealTop(task)) task(0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(StealDeque, OppositeEndsMeetInTheMiddle) {
  StealDeque d;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    d.PushBottom([&order, i](std::size_t) { order.push_back(i); });
  }
  StealDeque::Task task;
  ASSERT_TRUE(d.StealTop(task));   // oldest
  task(0);
  ASSERT_TRUE(d.PopBottom(task));  // newest
  task(0);
  ASSERT_TRUE(d.StealTop(task));
  task(0);
  ASSERT_TRUE(d.PopBottom(task));
  task(0);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  EXPECT_FALSE(d.StealTop(task));
}

TEST(StealDeque, EmptyPopAndStealFail) {
  StealDeque d;
  StealDeque::Task task;
  EXPECT_FALSE(d.PopBottom(task));
  EXPECT_FALSE(d.StealTop(task));
  d.PushBottom([](std::size_t) {});
  EXPECT_TRUE(d.PopBottom(task));
  EXPECT_FALSE(d.PopBottom(task));
}

TEST(StealDeque, ConcurrentThievesRunEveryTaskExactlyOnce) {
  StealDeque d;
  constexpr int kTasks = 2000;
  std::vector<std::atomic<int>> runs(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    d.PushBottom([&runs, i](std::size_t) {
      runs[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> thieves;
  for (int t = 0; t < 4; ++t) {
    thieves.emplace_back([&d] {
      StealDeque::Task task;
      while (d.StealTop(task)) task(1);
    });
  }
  {
    StealDeque::Task task;
    while (d.PopBottom(task)) task(0);
  }
  for (std::thread& t : thieves) t.join();
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
  StealDeque::Task task;
  EXPECT_FALSE(d.StealTop(task));
}

// ---------------------------------------------------------------------------
// StealScheduler.
// ---------------------------------------------------------------------------

TEST(StealScheduler, RunsEveryTaskIncludingNestedSpawns) {
  StealScheduler scheduler(4);
  std::atomic<int> runs{0};
  // Tasks that ran on a worker other than the one that spawned them.
  std::atomic<int> stolen{0};
  for (int i = 0; i < 8; ++i) {
    scheduler.Spawn(0, [&](std::size_t worker) {
      runs.fetch_add(1, std::memory_order_relaxed);
      if (worker != 0) stolen.fetch_add(1, std::memory_order_relaxed);
      scheduler.Spawn(worker, [&, worker](std::size_t child_worker) {
        runs.fetch_add(1, std::memory_order_relaxed);
        if (child_worker != worker) {
          stolen.fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  scheduler.Run();
  EXPECT_EQ(runs.load(), 16);
  EXPECT_LE(stolen.load(), runs.load());
}

TEST(StealScheduler, SingleWorkerRunsInline) {
  StealScheduler scheduler(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> runs{0};
  scheduler.Spawn(0, [&](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    runs.fetch_add(1);
  });
  scheduler.Run();
  EXPECT_EQ(runs.load(), 1);
}

TEST(StealScheduler, EmptyRunTerminates) {
  StealScheduler scheduler(4);
  scheduler.Run();  // no tasks: workers must all observe "done" and exit
  EXPECT_EQ(scheduler.idle_workers(), 0u);
}

TEST(StealScheduler, CountsIdleWorkers) {
  StealScheduler scheduler(2);
  std::size_t seen = 0;
  scheduler.Spawn(0, [&](std::size_t) {
    // One long task: the other worker finds nothing to run or steal.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (scheduler.idle_workers() < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    seen = scheduler.idle_workers();
  });
  scheduler.Run();
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(scheduler.idle_workers(), 0u);
}

TEST(StealScheduler, PropagatesFirstException) {
  StealScheduler scheduler(2);
  std::atomic<int> survivors{0};
  scheduler.Spawn(0, [](std::size_t) { throw std::runtime_error("boom"); });
  scheduler.Spawn(0, [&survivors](std::size_t) { survivors.fetch_add(1); });
  EXPECT_THROW(scheduler.Run(), std::runtime_error);
  // The non-throwing task still ran (the scheduler drains, not unwinds).
  EXPECT_EQ(survivors.load(), 1);
}

// ---------------------------------------------------------------------------
// Parallel denseMBB: size parity with the sequential recursion.
// ---------------------------------------------------------------------------

DenseMbbOptions ParallelOptions(std::uint32_t threads, bool deterministic,
                                std::uint32_t spawn_depth = 4) {
  DenseMbbOptions options;
  options.num_threads = threads;
  // Explicit spawn depth: the auto policy keeps test-sized instances
  // sequential, and these tests exist to exercise the forking paths.
  options.spawn_depth = spawn_depth;
  options.deterministic = deterministic;
  return options;
}

TEST(ParallelDense, PaperExampleMatchesSequentialAtEveryThreadCount) {
  const BipartiteGraph g = PaperExampleGraph();
  const DenseSubgraph dense = WholeGraphDense(g);
  const std::uint32_t sequential = DenseMbbSolve(dense).best.BalancedSize();
  EXPECT_EQ(sequential, 2u);  // ({3,4},{9,10})
  for (const std::uint32_t threads : kThreadCounts) {
    for (const bool deterministic : {false, true}) {
      const MbbResult result =
          DenseMbbSolve(dense, ParallelOptions(threads, deterministic));
      EXPECT_EQ(result.best.BalancedSize(), sequential)
          << "threads=" << threads << " det=" << deterministic;
      EXPECT_TRUE(result.exact);
      EXPECT_TRUE(result.best.IsBicliqueIn(g));
    }
  }
}

TEST(ParallelDense, RandomGraphsMatchSequentialSize) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    // Densities cycling through 0.6 / 0.75 / 0.9 — poly-case heavy, branch
    // heavy, and reduction heavy instances respectively.
    const double density = 0.6 + 0.15 * static_cast<double>(seed % 3);
    const BipartiteGraph g = RandomGraph(24, 24, density, seed);
    const DenseSubgraph dense = WholeGraphDense(g);
    const std::uint32_t sequential = DenseMbbSolve(dense).best.BalancedSize();
    for (const std::uint32_t threads : kThreadCounts) {
      for (const bool deterministic : {false, true}) {
        const MbbResult result =
            DenseMbbSolve(dense, ParallelOptions(threads, deterministic));
        EXPECT_EQ(result.best.BalancedSize(), sequential)
            << "seed=" << seed << " threads=" << threads
            << " det=" << deterministic;
        EXPECT_TRUE(result.exact);
        EXPECT_TRUE(result.best.IsBicliqueIn(g));
      }
    }
  }
}

TEST(ParallelDense, AnchoredMatchesSequentialSize) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const BipartiteGraph g = RandomGraph(24, 24, 0.8, seed);
    const DenseSubgraph dense = WholeGraphDense(g);
    const std::uint32_t sequential =
        DenseMbbSolveAnchored(dense, /*anchor=*/0).best.BalancedSize();
    for (const std::uint32_t threads : kThreadCounts) {
      const MbbResult result = DenseMbbSolveAnchored(
          dense, /*anchor=*/0, ParallelOptions(threads, /*det=*/false));
      EXPECT_EQ(result.best.BalancedSize(), sequential)
          << "seed=" << seed << " threads=" << threads;
      if (result.best.BalancedSize() > 0) {
        // The anchored contract: vertex 0 participates.
        EXPECT_NE(std::find(result.best.left.begin(), result.best.left.end(),
                            VertexId{0}),
                  result.best.left.end());
      }
    }
  }
}

TEST(ParallelDense, OnDemandDonationMatchesSequential) {
  // Large enough that the auto policy enables the task layer (>= 64
  // candidates) and idle workers make the running search donate pending
  // inclusion branches; small enough to repeat under TSan.
  const struct {
    std::uint32_t n;
    double density;
    std::uint64_t seed;
  } instances[] = {{56, 0.92, 19}, {60, 0.92, 5},  {56, 0.92, 30},
                   {60, 0.92, 2},  {56, 0.92, 13}, {56, 0.92, 34},
                   {60, 0.92, 10}, {56, 0.92, 1},  {56, 0.90, 40},
                   {64, 0.92, 3}};
  std::uint64_t spawned = 0;
  for (const auto& instance : instances) {
    const BipartiteGraph g = RandomGraph(instance.n, instance.n,
                                         instance.density, instance.seed);
    const DenseSubgraph dense = WholeGraphDense(g);
    const std::uint32_t sequential = DenseMbbSolve(dense).best.BalancedSize();
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      DenseMbbOptions options;
      options.num_threads = threads;
      const MbbResult result = DenseMbbSolve(dense, options);
      EXPECT_EQ(result.best.BalancedSize(), sequential)
          << instance.n << "x" << instance.n << " d" << instance.density
          << " seed=" << instance.seed << " threads=" << threads;
      EXPECT_TRUE(result.exact);
      EXPECT_TRUE(result.best.IsBicliqueIn(g))
          << "seed=" << instance.seed << " threads=" << threads;
      EXPECT_LE(result.stats.tasks_stolen, result.stats.tasks_spawned);
      spawned += result.stats.tasks_spawned;
    }
  }
  // Donation depends on timing run by run, but over 30 solves some worker
  // must have gone idle while a search still had a pending branch.
  EXPECT_GT(spawned, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic mode: bit-identical results and traversals across thread
// counts (the T=1 reference also runs through the task driver).
// ---------------------------------------------------------------------------

TEST(ParallelDense, DeterministicWitnessInvariantAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BipartiteGraph g = RandomGraph(24, 24, 0.75, seed);
    const DenseSubgraph dense = WholeGraphDense(g);
    const MbbResult reference =
        DenseMbbSolve(dense, ParallelOptions(1, /*det=*/true));
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      const MbbResult result =
          DenseMbbSolve(dense, ParallelOptions(threads, /*det=*/true));
      EXPECT_EQ(result.best.left, reference.best.left)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(result.best.right, reference.best.right)
          << "seed=" << seed << " threads=" << threads;
      // The whole traversal — not just the answer — is thread-count
      // invariant: every task prunes against its spawn-time snapshot, so
      // the per-task search trees are fixed.
      EXPECT_EQ(result.stats.recursions, reference.stats.recursions)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(result.stats.leaves, reference.stats.leaves);
      EXPECT_EQ(result.stats.tasks_spawned, reference.stats.tasks_spawned);
    }
  }
}

TEST(ParallelDense, DeterministicWitnessInvariantAcrossDispatchBackends) {
  if (!bitops::SimdAvailable()) GTEST_SKIP() << "scalar-only host";
  const BipartiteGraph g = RandomGraph(24, 24, 0.8, 42);
  const DenseSubgraph dense = WholeGraphDense(g);
  MbbResult simd;
  MbbResult scalar;
  {
    ScopedPolicy policy(bitops::DispatchPolicy::kAuto);
    simd = DenseMbbSolve(dense, ParallelOptions(4, /*det=*/true));
  }
  {
    ScopedPolicy policy(bitops::DispatchPolicy::kForceScalar);
    scalar = DenseMbbSolve(dense, ParallelOptions(4, /*det=*/true));
  }
  EXPECT_EQ(simd.best.left, scalar.best.left);
  EXPECT_EQ(simd.best.right, scalar.best.right);
  EXPECT_EQ(simd.stats.recursions, scalar.stats.recursions);
}

// ---------------------------------------------------------------------------
// Stats accounting and limit plumbing in the parallel driver.
// ---------------------------------------------------------------------------

TEST(ParallelDense, TaskCountersAccount) {
  const BipartiteGraph g = RandomGraph(24, 24, 0.8, 5);
  const DenseSubgraph dense = WholeGraphDense(g);

  // Sequential runs must not spawn, with or without a spawn depth: one
  // worker has nobody to donate to.
  for (const MbbResult& sequential :
       {DenseMbbSolve(dense),
        DenseMbbSolve(dense, ParallelOptions(1, /*det=*/false))}) {
    EXPECT_EQ(sequential.stats.tasks_spawned, 0u);
    EXPECT_EQ(sequential.stats.tasks_stolen, 0u);
  }

  // The deterministic task tree is forked whatever the timing.
  const MbbResult tree = DenseMbbSolve(dense, ParallelOptions(4, /*det=*/true));
  EXPECT_GT(tree.stats.tasks_spawned, 0u);
  EXPECT_LE(tree.stats.tasks_stolen, tree.stats.tasks_spawned);

  // On demand, whether any worker went idle in time is a timing property,
  // so only the accounting identity holds run by run.
  const MbbResult on_demand =
      DenseMbbSolve(dense, ParallelOptions(4, /*det=*/false));
  EXPECT_LE(on_demand.stats.tasks_stolen, on_demand.stats.tasks_spawned);
}

TEST(ParallelDense, PreTrippedStopTokenAbortsEveryTask) {
  const BipartiteGraph g = RandomGraph(24, 24, 0.8, 9);
  const DenseSubgraph dense = WholeGraphDense(g);
  DenseMbbOptions options = ParallelOptions(4, /*det=*/false);
  options.limits.stop_token = std::make_shared<StopToken>();
  options.limits.stop_token->RequestStop(StopCause::kExternal);
  const MbbResult result = DenseMbbSolve(dense, options);
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kExternal);
}

TEST(ParallelDense, RecursionCapMakesResultInexact) {
  const BipartiteGraph g = RandomGraph(24, 24, 0.8, 11);
  const DenseSubgraph dense = WholeGraphDense(g);
  DenseMbbOptions options = ParallelOptions(4, /*det=*/false);
  options.limits.max_recursions = 3;
  const MbbResult result = DenseMbbSolve(dense, options);
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kRecursionCap);
}

TEST(ParallelDense, ZeroSpawnDepthStaysSequential) {
  const BipartiteGraph g = RandomGraph(24, 24, 0.8, 3);
  const DenseSubgraph dense = WholeGraphDense(g);
  DenseMbbOptions options;
  options.num_threads = 4;
  options.spawn_depth = 0;  // auto resolves to 0 below 64 candidates
  const MbbResult result = DenseMbbSolve(dense, options);
  EXPECT_EQ(result.stats.tasks_spawned, 0u);
  EXPECT_EQ(result.best.BalancedSize(),
            DenseMbbSolve(dense).best.BalancedSize());
}

// ---------------------------------------------------------------------------
// Parallel bridge scan (step 2).
// ---------------------------------------------------------------------------

BridgeOptions BridgeWith(std::uint32_t threads, bool deterministic) {
  BridgeOptions options;
  options.num_threads = threads;
  options.deterministic = deterministic;
  return options;
}

TEST(ParallelBridge, SurvivorsAndSizeMatchSequential) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const BipartiteGraph g = RandomGraph(60, 60, 0.12, seed);
    const BridgeOutcome sequential = BridgeMbb(g, 0, BridgeWith(1, false));
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      for (const bool deterministic : {false, true}) {
        const BridgeOutcome parallel =
            BridgeMbb(g, 0, BridgeWith(threads, deterministic));
        EXPECT_EQ(parallel.best_size, sequential.best_size)
            << "seed=" << seed << " threads=" << threads;
        ASSERT_EQ(parallel.survivors.size(), sequential.survivors.size())
            << "seed=" << seed << " threads=" << threads;
        // The survivor set is a function of the final bound, so it must
        // match centre for centre, in rank order.
        for (std::size_t i = 0; i < parallel.survivors.size(); ++i) {
          EXPECT_EQ(parallel.survivors[i].same_side[0],
                    sequential.survivors[i].same_side[0]);
        }
        // Accounting identity over the parallel shards.
        const SearchStats& s = parallel.stats;
        EXPECT_EQ(s.subgraphs_total, s.subgraphs_pruned_size +
                                         s.subgraphs_pruned_degeneracy +
                                         s.subgraphs_searched);
      }
    }
  }
}

TEST(ParallelBridge, DeterministicWitnessMatchesSequential) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const BipartiteGraph g = RandomGraph(60, 60, 0.15, seed);
    const BridgeOutcome sequential = BridgeMbb(g, 0, BridgeWith(1, false));
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      const BridgeOutcome parallel =
          BridgeMbb(g, 0, BridgeWith(threads, /*deterministic=*/true));
      EXPECT_EQ(parallel.improved, sequential.improved) << "seed=" << seed;
      EXPECT_EQ(parallel.best.left, sequential.best.left)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(parallel.best.right, sequential.best.right)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelBridge, PaperExampleAtEveryThreadCount) {
  const BipartiteGraph g = PaperExampleGraph();
  const BridgeOutcome sequential = BridgeMbb(g, 0, BridgeWith(1, false));
  for (const std::uint32_t threads : kThreadCounts) {
    const BridgeOutcome parallel = BridgeMbb(g, 0, BridgeWith(threads, true));
    EXPECT_EQ(parallel.best_size, sequential.best_size);
    EXPECT_EQ(parallel.survivors.size(), sequential.survivors.size());
  }
}

}  // namespace
}  // namespace mbb
