/// Tests for the robustness layer: the deterministic fault-injection
/// registry, per-solve memory budgets, anytime degradation (SolveAnytime),
/// the serve watchdog, and the hardened transports. Each test arms its own
/// fault spec and the fixture disarms between tests — the registry is
/// process-global.

#include "engine/faults.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dense_mbb.h"
#include "engine/budget.h"
#include "engine/degrade.h"
#include "engine/parallel.h"
#include "engine/registry.h"
#include "serve/net.h"
#include "serve/server.h"
#include "test_util.h"

namespace mbb {
namespace {

using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;

class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::Reset(); }
  void TearDown() override { faults::Reset(); }
};

// --- Spec parsing and trigger rules ---------------------------------------

TEST_F(FaultsTest, ConfigureAcceptsTheDocumentedGrammar) {
  std::string error;
  EXPECT_TRUE(faults::Configure(
      "seed=42;alloc.bit_matrix:p=0.05;serve.worker_stall:nth=3,ms=200",
      &error))
      << error;
  EXPECT_TRUE(faults::Armed());
  EXPECT_FALSE(faults::ActiveSpec().empty());
  EXPECT_TRUE(faults::Configure("", &error)) << error;
  EXPECT_FALSE(faults::Armed());
}

TEST_F(FaultsTest, ConfigureRejectsMalformedSpecs) {
  const char* bad_specs[] = {
      "no.such.point:nth=1",        // unknown point
      "alloc.bit_matrix",           // missing trigger
      "alloc.bit_matrix:p=0",       // p out of (0, 1]
      "alloc.bit_matrix:p=1.5",     //
      "alloc.bit_matrix:nth=0",     // nth is 1-based
      "alloc.bit_matrix:every=0",   //
      "alloc.bit_matrix:wat=1",     // unknown param
      "seed=banana",                // non-numeric seed
  };
  for (const char* spec : bad_specs) {
    std::string error;
    EXPECT_FALSE(faults::Configure(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // A failed Configure leaves the previous (empty) configuration armed.
  EXPECT_FALSE(faults::Armed());
  // Unknown-point errors name the known points so specs are discoverable.
  std::string error;
  faults::Configure("no.such.point:nth=1", &error);
  EXPECT_NE(error.find("alloc.bit_matrix"), std::string::npos);
}

TEST_F(FaultsTest, NthTriggerFiresExactlyOnce) {
  ASSERT_TRUE(faults::Configure("worker.task:nth=3"));
  std::vector<bool> fired;
  for (int hit = 0; hit < 6; ++hit) {
    fired.push_back(faults::Triggered("worker.task"));
  }
  const std::vector<bool> expected = {false, false, true,
                                      false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(faults::HitCount("worker.task"), 6u);
  EXPECT_EQ(faults::FireCount("worker.task"), 1u);
  // An unarmed point records nothing even while the registry is armed.
  EXPECT_FALSE(faults::Triggered("alloc.csr"));
  EXPECT_EQ(faults::HitCount("alloc.csr"), 0u);
}

TEST_F(FaultsTest, EveryAndCountCompose) {
  ASSERT_TRUE(faults::Configure("worker.task:every=2,count=2"));
  std::vector<bool> fired;
  for (int hit = 0; hit < 8; ++hit) {
    fired.push_back(faults::Triggered("worker.task"));
  }
  // Fires on hits 2 and 4, then the count cap stops it.
  const std::vector<bool> expected = {false, true, false, true,
                                      false, false, false, false};
  EXPECT_EQ(fired, expected);
}

TEST_F(FaultsTest, ProbabilisticScheduleReplaysBitIdentically) {
  const std::string spec = "seed=7;worker.task:p=0.5";
  ASSERT_TRUE(faults::Configure(spec));
  std::vector<bool> first;
  for (int hit = 0; hit < 256; ++hit) {
    first.push_back(faults::Triggered("worker.task"));
  }
  faults::Reset();
  ASSERT_TRUE(faults::Configure(spec));
  std::vector<bool> second;
  for (int hit = 0; hit < 256; ++hit) {
    second.push_back(faults::Triggered("worker.task"));
  }
  EXPECT_EQ(first, second);
  // p=0.5 over 256 draws: both outcomes must occur.
  EXPECT_GT(faults::FireCount("worker.task"), 0u);
  EXPECT_LT(faults::FireCount("worker.task"), 256u);

  // A different seed produces a different schedule.
  faults::Reset();
  ASSERT_TRUE(faults::Configure("seed=8;worker.task:p=0.5"));
  std::vector<bool> reseeded;
  for (int hit = 0; hit < 256; ++hit) {
    reseeded.push_back(faults::Triggered("worker.task"));
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(FaultsTest, ReapplyingTheActiveSpecKeepsCounters) {
  ASSERT_TRUE(faults::Configure("worker.task:nth=2"));
  EXPECT_FALSE(faults::Triggered("worker.task"));
  // Per-solve plumbing re-applies the same spec; the pending nth=2 state
  // must survive, otherwise hit 2 below would never fire.
  ASSERT_TRUE(faults::Configure("worker.task:nth=2"));
  EXPECT_TRUE(faults::Triggered("worker.task"));
}

TEST_F(FaultsTest, ScopedSuspendMasksInjection) {
  ASSERT_TRUE(faults::Configure("worker.task:every=1"));
  EXPECT_TRUE(faults::Triggered("worker.task"));
  {
    faults::ScopedSuspend suspend;
    EXPECT_FALSE(faults::Armed());
    for (int i = 0; i < 4; ++i) {
      EXPECT_FALSE(faults::Triggered("worker.task"));
    }
    {
      faults::ScopedSuspend nested;  // suspension nests
      EXPECT_FALSE(faults::Triggered("worker.task"));
    }
    EXPECT_FALSE(faults::Triggered("worker.task"));
  }
  EXPECT_TRUE(faults::Triggered("worker.task"));
}

TEST_F(FaultsTest, KnownPointsCoverTheInjectedSubsystems) {
  const std::vector<std::string> points = faults::KnownPoints();
  for (const char* expected :
       {"alloc.bit_matrix", "alloc.search_context", "alloc.csr",
        "worker.task", "worker.start", "serve.worker_stall",
        "net.write.drop", "net.write.transient", "net.read.disconnect",
        "cache.insert"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), expected),
              points.end())
        << expected;
  }
}

// --- Memory budgets -------------------------------------------------------

TEST_F(FaultsTest, MemoryBudgetChargesReleasesAndTrips) {
  MemoryBudget budget(1000);
  budget.Charge(600);
  budget.Charge(300);
  EXPECT_EQ(budget.used(), 900u);
  EXPECT_EQ(budget.peak(), 900u);
  budget.Release(500);
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_EQ(budget.peak(), 900u);
  try {
    budget.Charge(700);
    FAIL() << "charge past the limit must throw";
  } catch (const ResourceExhaustedError& e) {
    EXPECT_EQ(e.requested_bytes(), 700u);
    EXPECT_EQ(e.used_bytes(), 400u);
    EXPECT_EQ(e.limit_bytes(), 1000u);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
  // A refused charge leaves usage unchanged and marks exhaustion.
  EXPECT_EQ(budget.used(), 400u);
  EXPECT_TRUE(budget.exhausted());
  budget.Charge(600);  // exactly to the limit is fine
  EXPECT_EQ(budget.used(), 1000u);
}

TEST_F(FaultsTest, BudgetScopeInstallsAndRestores) {
  EXPECT_EQ(MemoryBudget::Current(), nullptr);
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  {
    MemoryBudgetScope scope(budget);
    EXPECT_EQ(MemoryBudget::Current(), budget);
    {
      MemoryBudgetScope unmetered(nullptr);
      EXPECT_EQ(MemoryBudget::Current(), nullptr);
    }
    EXPECT_EQ(MemoryBudget::Current(), budget);
  }
  EXPECT_EQ(MemoryBudget::Current(), nullptr);
}

TEST_F(FaultsTest, BudgetFollowsWorkOntoEveryWorker) {
  auto budget = std::make_shared<MemoryBudget>(1 << 20);
  const MemoryBudgetScope scope(budget);

  // Every item, on whichever worker claims it, meters against the
  // caller's budget; each one-byte charge lands in the caller's usage.
  std::atomic<int> foreign{0};
  ParallelFor(4, 64, [&](std::size_t, std::size_t) {
    if (MemoryBudget::Current() != budget) foreign.fetch_add(1);
    MemoryBudget::Current()->Charge(1);
  });
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(budget->used(), 64u);

  // The same holds for scheduler tasks, nested spawns included.
  StealScheduler scheduler(4);
  const auto charge = [&](std::size_t) {
    if (MemoryBudget::Current() != budget) foreign.fetch_add(1);
    MemoryBudget::Current()->Charge(1);
  };
  for (int i = 0; i < 8; ++i) {
    scheduler.Spawn(0, [&](std::size_t worker) {
      charge(worker);
      scheduler.Spawn(worker, charge);
    });
  }
  scheduler.Run();
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(budget->used(), 64u + 16u);
  budget->Release(budget->used());
}

TEST_F(FaultsTest, TinyBudgetDegradesSolveAndReleasesCleanly) {
  const BipartiteGraph g = testing::RandomGraph(120, 120, 0.3, 11);
  SolverOptions options;
  options.memory_budget_bytes = 2048;  // far below one adjacency bit-matrix
  const MbbResult degraded = SolveAnytime("dense", g, options);
  EXPECT_FALSE(degraded.exact);
  EXPECT_EQ(degraded.stats.stop_cause, StopCause::kResourceExhausted);
  // The fallback incumbent is a real biclique of the input graph.
  EXPECT_TRUE(degraded.best.IsBicliqueIn(g));
  EXPECT_GT(degraded.best.BalancedSize(), 0u);

  // A generous budget changes nothing about the answer, and the peak meter
  // proves the charges flowed through the arenas.
  options.memory_budget_bytes = 1ull << 30;
  const MbbResult exact = SolveAnytime("dense", g, options);
  EXPECT_TRUE(exact.exact);
  EXPECT_GT(exact.stats.arena_bytes_peak, 0u);
  const MbbResult reference = SolverRegistry::Solve("dense", g);
  EXPECT_EQ(exact.best.BalancedSize(), reference.best.BalancedSize());
}

TEST_F(FaultsTest, InjectedAllocationFailureYieldsAnytimeResult) {
  ASSERT_TRUE(faults::Configure("alloc.bit_matrix:nth=1"));
  const BipartiteGraph g = testing::RandomGraph(24, 24, 0.5, 3);
  const MbbResult result = SolveAnytime("dense", g, SolverOptions());
  EXPECT_FALSE(result.exact);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kResourceExhausted);
  EXPECT_TRUE(result.best.IsBicliqueIn(g));
  EXPECT_GT(result.best.BalancedSize(), 0u);
  EXPECT_EQ(faults::FireCount("alloc.bit_matrix"), 1u);

  // The nth=1 trigger is spent: the same solve now runs to the exact
  // answer, proving the failure left no poisoned state behind.
  const MbbResult retry = SolveAnytime("dense", g, SolverOptions());
  EXPECT_TRUE(retry.exact);
}

TEST_F(FaultsTest, WorkerTaskFaultPropagatesAsSolverError) {
  ASSERT_TRUE(faults::Configure("worker.task:every=1"));
  bool threw = false;
  try {
    ParallelFor(1, 4, [](std::size_t, std::size_t) {});
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("worker.task"), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

TEST_F(FaultsTest, WorkerTaskFiresOncePerItemAndPerSubtreeTask) {
  // A trigger that never fires: only the hit counter moves.
  ASSERT_TRUE(faults::Configure("worker.task:nth=1000000000"));
  const auto hits = [] { return faults::HitCount("worker.task"); };

  std::uint64_t before = hits();
  ParallelFor(4, 10, [](std::size_t, std::size_t) {});
  EXPECT_EQ(hits() - before, 10u);
  before = hits();
  ParallelFor(1, 7, [](std::size_t, std::size_t) {});
  EXPECT_EQ(hits() - before, 7u);

  // The denseMBB subtree driver: one hit per forked subtree plus the root.
  const DenseSubgraph dense =
      testing::WholeGraphDense(RandomUniform(48, 48, 0.85, 7));
  const struct {
    std::uint32_t threads;
    bool deterministic;
  } runs[] = {{1, true}, {4, true}, {4, false}};
  for (const auto& run : runs) {
    DenseMbbOptions options;
    options.num_threads = run.threads;
    options.spawn_depth = 4;
    options.deterministic = run.deterministic;
    before = hits();
    const MbbResult result = DenseMbbSolve(dense, options);
    EXPECT_EQ(hits() - before, result.stats.tasks_spawned + 1)
        << "threads=" << run.threads << " det=" << run.deterministic;
    // The deterministic task tree does not depend on timing.
    if (run.deterministic) EXPECT_EQ(result.stats.tasks_spawned, 23u);
  }
}

TEST_F(FaultsTest, WorkerStartFailureLeavesNoTaskBehind) {
  // Reference first, with nothing armed.
  const DenseSubgraph dense =
      testing::WholeGraphDense(RandomUniform(48, 48, 0.85, 7));
  DenseMbbOptions options;
  options.num_threads = 1;
  options.spawn_depth = 4;
  options.deterministic = true;
  const MbbResult reference = DenseMbbSolve(dense, options);

  // The second of three worker starts fails: workers 0 and 1 run, and the
  // claim loops seeded on workers 2 and 3 are stolen.
  ASSERT_TRUE(faults::Configure("worker.start:nth=2"));
  std::vector<std::atomic<int>> runs(100);
  ParallelFor(4, runs.size(), [&](std::size_t, std::size_t item) {
    runs[item].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t item = 0; item < runs.size(); ++item) {
    EXPECT_EQ(runs[item].load(), 1) << "item " << item;
  }
  // No start is attempted after the failed one.
  EXPECT_EQ(faults::HitCount("worker.start"), 2u);
  EXPECT_EQ(faults::FireCount("worker.start"), 1u);

  faults::Reset();
  ASSERT_TRUE(faults::Configure("worker.start:nth=2"));
  options.num_threads = 4;
  const MbbResult result = DenseMbbSolve(dense, options);
  EXPECT_EQ(faults::FireCount("worker.start"), 1u);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.best.left, reference.best.left);
  EXPECT_EQ(result.best.right, reference.best.right);
}

// --- Serving: degraded answers, watchdog, chaos-facing counters -----------

ServerOptions FaultServer(std::uint32_t workers = 1) {
  ServerOptions options;
  options.num_workers = workers;
  options.cache_capacity = 16;
  return options;
}

Request SolveRequest(std::string id, const BipartiteGraph& g,
                     std::string algo = "auto") {
  Request request;
  request.id = std::move(id);
  request.algo = std::move(algo);
  request.graph = g;
  return request;
}

TEST_F(FaultsTest, ServerDegradesOnInjectedBadAllocAndKeepsServing) {
  ServerOptions options = FaultServer();
  options.fault_spec = "alloc.bit_matrix:nth=1";
  Server server(options);
  const BipartiteGraph g = testing::RandomGraph(24, 24, 0.5, 5);

  Request request = SolveRequest("exhausted", g, "dense");
  request.use_cache = false;
  const Response degraded = server.SubmitAndWait(request);
  ASSERT_TRUE(degraded.ok) << degraded.error;
  EXPECT_FALSE(degraded.exact);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.stop_cause, "resource_exhausted");
  EXPECT_GT(degraded.size, 0u);

  // The acceptance bar: the pool survived, the next request is exact.
  request.id = "after";
  const Response after = server.SubmitAndWait(request);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_TRUE(after.exact);
  EXPECT_FALSE(after.degraded);

  const auto counters = server.Counters();
  EXPECT_EQ(counters.resource_exhausted, 1u);
  EXPECT_EQ(counters.degraded_answers, 1u);
  EXPECT_EQ(counters.solver_faults, 0u);
}

TEST_F(FaultsTest, DegradedSizeconNeverBreaksItsFloor) {
  // A sizecon witness must meet |A| >= a and |B| >= b. The greedy fallback
  // cannot promise that, so an exhausted sizecon solve answers empty —
  // both through SolveAnytime and through the server.
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.4, 7);
  SolverOptions solver_options;
  solver_options.size_a = 6;
  solver_options.size_b = 2;
  ASSERT_TRUE(faults::Configure("alloc.bit_matrix:nth=1"));
  const MbbResult direct = SolveAnytime("sizecon", g, solver_options);
  EXPECT_EQ(direct.stats.stop_cause, StopCause::kResourceExhausted);
  EXPECT_TRUE(direct.best.Empty());

  faults::Reset();  // re-arm the same spec for the server
  ServerOptions options = FaultServer();
  options.fault_spec = "alloc.bit_matrix:nth=1";
  Server server(options);
  Request request = SolveRequest("sizecon", g, "sizecon");
  request.size_a = 6;
  request.size_b = 2;
  request.use_cache = false;
  const Response response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.exact);
  EXPECT_EQ(response.stop_cause, "resource_exhausted");
  EXPECT_EQ(response.size, 0u);
  EXPECT_TRUE(response.left.empty());
  EXPECT_TRUE(response.right.empty());
}

TEST_F(FaultsTest, ServerTurnsWorkerFaultIntoStructuredError) {
  ServerOptions options = FaultServer();
  options.fault_spec = "worker.task:every=1";
  Server server(options);
  const BipartiteGraph g = testing::RandomGraph(40, 40, 0.5, 9);

  Request request = SolveRequest("faulted", g, "hbv");
  request.use_cache = false;
  // The worker.task sites live in the parallel phases; two solver threads
  // route the bridge scan through ParallelFor.
  request.threads = 2;
  const Response faulted = server.SubmitAndWait(request);
  EXPECT_FALSE(faulted.ok);
  EXPECT_NE(faulted.error.find("solver failed"), std::string::npos);
  EXPECT_EQ(server.Counters().solver_faults, 1u);

  // Disarm and prove the worker survived its own exception.
  faults::Reset();
  request.id = "recovered";
  const Response recovered = server.SubmitAndWait(request);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.exact);
}

TEST_F(FaultsTest, CacheInsertFaultCostsTheHitNotTheAnswer) {
  ServerOptions options = FaultServer();
  options.fault_spec = "cache.insert:nth=1";
  Server server(options);
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.4, 13);

  const Response first = server.SubmitAndWait(SolveRequest("first", g));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(first.exact);
  EXPECT_EQ(server.Counters().cache_insert_failures, 1u);

  // The failed insert means this is a miss again — and this time the
  // insert succeeds, so the third round hits.
  const Response second = server.SubmitAndWait(SolveRequest("second", g));
  EXPECT_EQ(second.cache, "miss");
  const Response third = server.SubmitAndWait(SolveRequest("third", g));
  EXPECT_EQ(third.cache, "hit");
}

TEST_F(FaultsTest, ExpiredInQueueCarriesHeuristicIncumbent) {
  ServerOptions options = FaultServer(1);
  options.cache_capacity = 0;
  // First job stalls the lone worker long enough for the second job's
  // deadline to lapse while it waits in the queue.
  options.fault_spec = "serve.worker_stall:nth=1,ms=150";
  Server server(options);

  std::promise<Response> stalled_promise;
  auto stalled_future = stalled_promise.get_future();
  server.Submit(SolveRequest("stalled", testing::RandomGraph(8, 8, 0.5, 1)),
                [&](const Response& r) { stalled_promise.set_value(r); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  Request expired = SolveRequest("expired", testing::CompleteBipartite(6, 6));
  expired.deadline_ms = 20;
  const Response response = server.SubmitAndWait(expired);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.exact);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.stop_cause, "deadline");
  // On K(6,6) even the greedy incumbent is a real biclique of size > 0.
  EXPECT_GT(response.size, 0u);
  EXPECT_EQ(response.left.size(), response.right.size());

  EXPECT_TRUE(stalled_future.get().ok);
  const auto counters = server.Counters();
  EXPECT_EQ(counters.expired_in_queue, 1u);
  EXPECT_GE(counters.degraded_answers, 1u);
}

TEST_F(FaultsTest, WatchdogAbandonsAStalledWorkerAndPoolRecovers) {
  ServerOptions options = FaultServer(1);
  options.cache_capacity = 0;
  options.watchdog_poll_ms = 5;
  options.watchdog_stall_ms = 40;
  // The worker goes quiet for 400ms without ever polling its stop token —
  // exactly the failure mode the watchdog exists for.
  options.fault_spec = "serve.worker_stall:nth=1,ms=400";
  Server server(options);

  // The deadline must outlast the worker's pickup, even on a loaded host:
  // a job picked up after its deadline is kept off the deadline backstop,
  // so nothing trips and the worker answers late with the greedy. 100ms
  // still lapses long before the 400ms stall ends (trip at ~140ms).
  Request stuck = SolveRequest("stuck", testing::RandomGraph(10, 10, 0.5, 7));
  stuck.deadline_ms = 100;
  const Response abandoned = server.SubmitAndWait(stuck);
  EXPECT_FALSE(abandoned.ok);
  EXPECT_EQ(abandoned.stop_cause, "watchdog");
  EXPECT_NE(abandoned.error.find("watchdog"), std::string::npos);

  // The replacement worker answers the next request exactly.
  const Response next =
      server.SubmitAndWait(SolveRequest("next", testing::RandomGraph(10, 10, 0.5, 7)));
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_TRUE(next.exact);

  server.Shutdown();  // joins the zombie worker; its late answer is dropped
  const auto counters = server.Counters();
  EXPECT_EQ(counters.watchdog_abandoned, 1u);
  EXPECT_GE(counters.watchdog_deadline_trips, 1u);
  EXPECT_EQ(counters.dropped_responses, 1u);
}

TEST_F(FaultsTest, WatchdogLeavesAHealthySlowSolveAlone) {
  // A solve that keeps polling its (tripped) token while unwinding must
  // not be abandoned: the heartbeat refreshes the stall window.
  ServerOptions options = FaultServer(1);
  options.cache_capacity = 0;
  options.watchdog_poll_ms = 5;
  options.watchdog_stall_ms = 60;
  Server server(options);

  Request hard = SolveRequest("hard", testing::UnfinishableDenseGraph(3),
                              "dense");
  hard.deadline_ms = 5;
  hard.use_cache = false;
  const Response response = server.SubmitAndWait(hard);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.exact);
  EXPECT_EQ(response.stop_cause, "deadline");
  EXPECT_EQ(server.Counters().watchdog_abandoned, 0u);
}

TEST_F(FaultsTest, ExpiredJobKeepsItsGreedyAnswerUnderTheWatchdog) {
  // A job whose deadline has lapsed before its solve starts is answered by
  // the greedy incumbent, which never polls its token (~35 ms on this
  // graph in a release build on a 4-core x86 host). The watchdog's
  // deadline backstop must not take that for a stalled worker.
  ServerOptions options = FaultServer(1);
  options.cache_capacity = 0;
  options.watchdog_poll_ms = 1;
  options.watchdog_stall_ms = 10;
  // Holds the job past its deadline before the expiry check.
  options.fault_spec = "serve.worker_stall:nth=1,ms=2";
  Server server(options);

  Request request =
      SolveRequest("expired", RandomUniform(1500, 1500, 0.5, 1));
  request.deadline_ms = 1;
  request.use_cache = false;
  const Response response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.stop_cause, "deadline");
  EXPECT_GT(response.size, 0u);
  server.Shutdown();
  const auto counters = server.Counters();
  EXPECT_EQ(counters.expired_in_queue, 1u);
  EXPECT_EQ(counters.watchdog_abandoned, 0u);
}

TEST_F(FaultsTest, BackstopTripDuringPreSolveStallKeepsTheGreedyAnswer) {
  // The worker picks the job up before its deadline, so it sits under the
  // watchdog's deadline backstop, then stalls 550 ms before its solve. The
  // backstop trips the token at ~400 ms (deadline + stall bound); the
  // worker wakes at 550 ms, well before the stall clock would abandon it
  // (~700 ms). A deadline trip is no cancel: the job is expired and gets
  // the greedy answer.
  ServerOptions options = FaultServer(1);
  options.cache_capacity = 0;
  options.watchdog_poll_ms = 5;
  options.watchdog_stall_ms = 300;
  options.fault_spec = "serve.worker_stall:nth=1,ms=550";
  Server server(options);

  Request request =
      SolveRequest("tripped", RandomUniform(60, 60, 0.5, 1), "auto");
  request.deadline_ms = 100;
  request.use_cache = false;
  const Response response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_FALSE(response.exact);
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.stop_cause, "deadline");
  EXPECT_GT(response.size, 0u);
  server.Shutdown();
  const auto counters = server.Counters();
  EXPECT_EQ(counters.watchdog_deadline_trips, 1u);
  EXPECT_EQ(counters.expired_in_queue, 1u);
  EXPECT_EQ(counters.cancelled, 0u);
  EXPECT_EQ(counters.watchdog_abandoned, 0u);
}

// --- Transports -----------------------------------------------------------

/// Minimal blocking loopback client for the TCP front end.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    return ::send(fd_, framed.data(), framed.size(), 0) ==
           static_cast<ssize_t>(framed.size());
  }

  /// Reads up to the first newline; "" on EOF/timeout.
  std::string ReadLine(int timeout_ms = 5000) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string line;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return "";
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(FaultsTest, TransientWriteFailuresAreRetriedTransparently) {
  Server server(FaultServer());
  serve::SocketFrontEnd sockets(server);
  std::string error;
  ASSERT_TRUE(sockets.ListenTcp(0, &error)) << error;
  ASSERT_TRUE(faults::Configure("net.write.transient:nth=1"));

  TcpClient client(sockets.tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"id":"q1","random":[10,10,0.5,3]})"));
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"id\":\"q1\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  // The client can see the bytes before the server thread returns from
  // the write and tallies the retry; give the counter a moment to land.
  for (int i = 0; i < 400 && server.Counters().write_retries == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.Counters().write_retries, 1u);
  EXPECT_EQ(server.Counters().client_disconnects, 0u);
  sockets.Stop();
}

TEST_F(FaultsTest, DroppedWriteCountsOneDisconnectAndServingContinues) {
  Server server(FaultServer());
  serve::SocketFrontEnd sockets(server);
  std::string error;
  ASSERT_TRUE(sockets.ListenTcp(0, &error)) << error;
  // The first write in the process fails hard (a vanished client); the
  // nth=1 trigger leaves every later write untouched.
  ASSERT_TRUE(faults::Configure("net.write.drop:nth=1"));

  {
    TcpClient ghost(sockets.tcp_port());
    ASSERT_TRUE(ghost.connected());
    ASSERT_TRUE(ghost.SendLine(R"({"id":"ghost","random":[8,8,0.5,1]})"));
    // The answer was computed but the write was dropped: no line arrives.
    EXPECT_EQ(ghost.ReadLine(500), "");
  }
  // The front end survived; a fresh connection is served normally.
  TcpClient client(sockets.tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"id":"q2","random":[8,8,0.5,1]})"));
  const std::string line = client.ReadLine();
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(server.Counters().client_disconnects, 1u);
  sockets.Stop();
}

TEST_F(FaultsTest, InjectedReadDisconnectClosesOnlyThatConnection) {
  Server server(FaultServer());
  serve::SocketFrontEnd sockets(server);
  std::string error;
  ASSERT_TRUE(sockets.ListenTcp(0, &error)) << error;
  ASSERT_TRUE(faults::Configure("net.read.disconnect:nth=1"));

  TcpClient dropped(sockets.tcp_port());
  ASSERT_TRUE(dropped.connected());
  // The injected disconnect fires before the first read: EOF, no response.
  EXPECT_EQ(dropped.ReadLine(2000), "");
  EXPECT_EQ(server.Counters().client_disconnects, 1u);

  TcpClient client(sockets.tcp_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"id":"q3","random":[8,8,0.5,2]})"));
  EXPECT_NE(client.ReadLine().find("\"ok\":true"), std::string::npos);
  sockets.Stop();
}

}  // namespace
}  // namespace mbb
