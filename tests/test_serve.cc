/// Tests for the serving layer: the JSON codec, the wire protocol, the
/// result cache (exact / isomorphic / fallback semantics), hardness
/// features, and the Server's scheduling, cancellation, deadline, and
/// admission-control behaviour. Everything runs in-process — the Server is
/// exercised through the same Submit/HandleLine surface the stdio and
/// socket front ends use.

#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/registry.h"
#include "graph/canonical.h"
#include "serve/hardness.h"
#include "serve/json.h"
#include "serve/result_cache.h"
#include "test_util.h"

namespace mbb {
namespace {

using serve::Json;
using serve::ParseJson;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;

BipartiteGraph Relabel(const BipartiteGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VertexId> left_perm(g.num_left());
  std::vector<VertexId> right_perm(g.num_right());
  for (VertexId v = 0; v < g.num_left(); ++v) left_perm[v] = v;
  for (VertexId v = 0; v < g.num_right(); ++v) right_perm[v] = v;
  std::shuffle(left_perm.begin(), left_perm.end(), rng);
  std::shuffle(right_perm.begin(), right_perm.end(), rng);
  std::vector<Edge> edges;
  for (const Edge& e : g.CollectEdges()) {
    edges.emplace_back(left_perm[e.first], right_perm[e.second]);
  }
  return BipartiteGraph::FromEdges(g.num_left(), g.num_right(),
                                   std::move(edges));
}

// --- JSON codec -----------------------------------------------------------

TEST(ServeJson, ParsesScalarsObjectsAndEscapes) {
  Json value;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"a": [1, -2.5e1, true, null], "s": "q\u0041\n\"x\""})", &value,
      &error))
      << error;
  ASSERT_TRUE(value.is_object());
  const Json* a = value.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->AsArray().size(), 4u);
  EXPECT_EQ(a->AsArray()[0].AsDouble(), 1.0);
  EXPECT_EQ(a->AsArray()[1].AsDouble(), -25.0);
  EXPECT_TRUE(a->AsArray()[2].AsBool());
  EXPECT_TRUE(a->AsArray()[3].is_null());
  EXPECT_EQ(value.GetString("s"), "qA\n\"x\"");
}

TEST(ServeJson, RejectsMalformedInput) {
  Json value;
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "01", "+1", "1.", "nul", "\"\\q\"",
        "{\"a\":1} trailing", "\"unterminated", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_FALSE(ParseJson(bad, &value, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeJson, DepthCapStopsHostileNesting) {
  std::string deep(5000, '[');
  deep += std::string(5000, ']');
  Json value;
  std::string error;
  EXPECT_FALSE(ParseJson(deep, &value, &error));
}

TEST(ServeJson, DumpRoundTripsAndIsDeterministic) {
  Json value;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"b": 2, "a": [1, "x"], "c": true})", &value,
                        &error));
  const std::string dump = value.Dump();
  // std::map ordering: keys come out sorted regardless of input order.
  EXPECT_EQ(dump, R"({"a":[1,"x"],"b":2,"c":true})");
  Json reparsed;
  ASSERT_TRUE(ParseJson(dump, &reparsed, &error));
  EXPECT_EQ(reparsed.Dump(), dump);
}

// --- Protocol -------------------------------------------------------------

TEST(ServeProtocol, ParsesSolveRequestWithInlineEdges) {
  Request request;
  std::string error;
  ASSERT_TRUE(serve::ParseRequestLine(
      R"({"id":"q1","algo":"dense","edges":[[0,0],[0,1],[2,1]],)"
      R"("deadline_ms":250,"threads":2,"cache":false})",
      &request, &error))
      << error;
  EXPECT_EQ(request.kind, Request::Kind::kSolve);
  EXPECT_EQ(request.id, "q1");
  EXPECT_EQ(request.algo, "dense");
  EXPECT_EQ(request.graph.num_left(), 3u);
  EXPECT_EQ(request.graph.num_right(), 2u);
  EXPECT_EQ(request.graph.num_edges(), 3u);
  EXPECT_EQ(request.deadline_ms, 250.0);
  EXPECT_EQ(request.threads, 2u);
  EXPECT_FALSE(request.use_cache);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  Request request;
  std::string error;
  const char* bad_lines[] = {
      "not json at all",
      R"({"id":"x"})",                                   // no graph source
      R"({"id":"x","edges":[[0,0]],"random":[2,2,0.5,1]})",  // two sources
      R"({"id":"x","edges":[[0]]})",                     // bad pair
      R"({"id":"x","edges":[[0,-1]]})",                  // negative id
      R"({"id":"x","edges":[[0,0]],"num_left":0})",      // sides too small
      R"({"id":"x","random":[4,4,1.5,1]})",              // density > 1
      R"({"id":"x","cmd":"explode"})",                   // unknown cmd
      R"({"id":"x","cmd":"cancel"})",                    // cancel sans target
      R"({"id":"x","edges":[[0,0]],"threads":-1})",      // negative int
      R"({"id":"x","edge_list":"1 2\nbroken"})",         // truncated line
  };
  for (const char* line : bad_lines) {
    EXPECT_FALSE(serve::ParseRequestLine(line, &request, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ServeProtocol, RejectsDeadlinesPastTheClockRange) {
  // A deadline past ~9.2e12 ms overflows the steady-clock arithmetic that
  // turns it into a time point, so the query used to expire at once. Such
  // values are refused with a structured error instead.
  Request request;
  std::string error;
  for (const char* line :
       {R"({"id":"x","random":[20,20,0.4,7],"deadline_ms":1e300})",
        R"({"id":"x","random":[20,20,0.4,7],"deadline_ms":1e13})"}) {
    EXPECT_FALSE(serve::ParseRequestLine(line, &request, &error)) << line;
    EXPECT_NE(error.find("deadline_ms"), std::string::npos) << error;
  }
  ASSERT_TRUE(serve::ParseRequestLine(
      R"({"id":"x","random":[20,20,0.4,7],"deadline_ms":1e12})", &request,
      &error))
      << error;
  EXPECT_EQ(request.deadline_ms, 1e12);

  // End to end: the server answers the line with an error, not with an
  // expired, degraded solve.
  Server server{ServerOptions()};
  Response response;
  EXPECT_TRUE(server.HandleLine(
      R"({"id":"x","random":[20,20,0.4,7],"deadline_ms":1e300})",
      [&response](const Response& r) { response = r; }));
  server.Drain();
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.degraded);
  EXPECT_NE(response.error.find("deadline_ms"), std::string::npos);
}

TEST(ServeProtocol, SerializedResponseIsValidJson) {
  Response response;
  response.id = "q9";
  response.size = 3;
  response.left = {1, 2, 3};
  response.right = {4, 5, 6};
  response.cache = "miss";
  response.queue_ms = 1.25;
  response.solve_ms = 3.5;
  response.recursions = 42;
  Json parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(serve::SerializeResponse(response), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.GetString("id"), "q9");
  EXPECT_TRUE(parsed.GetBool("ok"));
  EXPECT_EQ(parsed.GetNumber("size"), 3.0);
  EXPECT_EQ(parsed.Find("left")->AsArray().size(), 3u);
  EXPECT_EQ(parsed.GetString("cache"), "miss");
}

// --- Result cache ---------------------------------------------------------

TEST(ServeCache, ExactHitRequiresSameLabelledGraph) {
  serve::ResultCache cache(8);
  const BipartiteGraph g = testing::RandomGraph(12, 12, 0.4, 1);
  const BipartiteGraph relabelled = Relabel(g, 99);
  MbbResult result;
  result.best.left = {0, 1};
  result.best.right = {2, 3};
  const std::uint64_t canonical = CanonicalGraphHash(g);
  cache.Insert(g, canonical, ExactGraphHash(g), "exact", result);

  auto exact = cache.Find(g, canonical, ExactGraphHash(g), "exact");
  EXPECT_EQ(exact.kind, serve::ResultCache::HitKind::kExact);
  EXPECT_EQ(exact.result.best.BalancedSize(), 2u);

  // Same structure, different labels: only a warm bound, never a result.
  ASSERT_EQ(CanonicalGraphHash(relabelled), canonical);
  auto iso = cache.Find(relabelled, canonical, ExactGraphHash(relabelled),
                        "exact");
  EXPECT_EQ(iso.kind, serve::ResultCache::HitKind::kIsomorphic);
  EXPECT_EQ(iso.warm_bound, 2u);

  // A different algorithm class sees nothing.
  auto other = cache.Find(g, canonical, ExactGraphHash(g), "topk:5");
  EXPECT_EQ(other.kind, serve::ResultCache::HitKind::kMiss);
}

TEST(ServeCache, LruEvictionAndCapacityZero) {
  serve::ResultCache cache(2);
  MbbResult result;
  std::vector<BipartiteGraph> graphs;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    graphs.push_back(testing::RandomGraph(10, 10, 0.3, seed));
  }
  for (const BipartiteGraph& g : graphs) {
    cache.Insert(g, CanonicalGraphHash(g), ExactGraphHash(g), "exact",
                 result);
  }
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  // Graph 0 was the least recently used and must be gone.
  auto lookup = cache.Find(graphs[0], CanonicalGraphHash(graphs[0]),
                           ExactGraphHash(graphs[0]), "exact");
  EXPECT_NE(lookup.kind, serve::ResultCache::HitKind::kExact);

  serve::ResultCache disabled(0);
  disabled.Insert(graphs[0], 1, 1, "exact", result);
  EXPECT_EQ(disabled.Size(), 0u);
}

// --- Hardness features ----------------------------------------------------

TEST(ServeHardness, FeaturesTrackInstanceDifficulty) {
  const BipartiteGraph easy = testing::RandomGraph(20, 20, 0.05, 1);
  const BipartiteGraph hard = testing::RandomGraph(40, 40, 0.9, 1);
  const auto easy_features = serve::ComputeHardness(easy);
  const auto hard_features = serve::ComputeHardness(hard);
  EXPECT_GT(hard_features.balanced_h_index, easy_features.balanced_h_index);
  EXPECT_GT(hard_features.expected_cost, easy_features.expected_cost);
  EXPECT_LE(easy_features.balanced_h_index, 20u);

  const BipartiteGraph empty = BipartiteGraph::FromEdges(0, 0, {});
  const auto empty_features = serve::ComputeHardness(empty);
  EXPECT_EQ(empty_features.num_edges, 0u);
  EXPECT_EQ(empty_features.balanced_h_index, 0u);
}

// --- Server ---------------------------------------------------------------

ServerOptions SmallServer(std::uint32_t workers = 2) {
  ServerOptions options;
  options.num_workers = workers;
  options.cache_capacity = 16;
  return options;
}

TEST(ServeServer, SolvesAndMatchesDirectRegistryAnswer) {
  Server server(SmallServer());
  const BipartiteGraph g = testing::RandomGraph(24, 24, 0.5, 5);
  Request request;
  request.id = "q1";
  request.algo = "auto";
  request.graph = g;
  const Response response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.exact);
  EXPECT_EQ(response.cache, "miss");
  const MbbResult direct = SolverRegistry::Solve("auto", g);
  EXPECT_EQ(response.size, direct.best.BalancedSize());
  EXPECT_EQ(response.left.size(), response.right.size());
}

TEST(ServeServer, RepeatQueryIsAnExactCacheHit) {
  Server server(SmallServer());
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.4, 9);
  Request request;
  request.algo = "auto";
  request.graph = g;
  request.id = "first";
  const Response cold = server.SubmitAndWait(request);
  request.id = "second";
  const Response hit = server.SubmitAndWait(request);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(cold.cache, "miss");
  EXPECT_EQ(hit.cache, "hit");
  EXPECT_EQ(hit.size, cold.size);
  EXPECT_EQ(hit.recursions, 0u);
  EXPECT_EQ(server.Counters().answered_from_cache, 1u);
  // Any exact solver shares the cache class: `dense` reuses `auto`'s entry.
  request.id = "third";
  request.algo = "dense";
  const Response cross = server.SubmitAndWait(request);
  EXPECT_EQ(cross.cache, "hit");
  EXPECT_EQ(cross.size, cold.size);

  request.id = "bypass";
  request.use_cache = false;
  const Response bypass = server.SubmitAndWait(request);
  EXPECT_EQ(bypass.cache, "bypass");
  EXPECT_EQ(bypass.size, cold.size);
}

TEST(ServeServer, IsomorphicQueryWarmStartsAndStaysExact) {
  Server server(SmallServer());
  const BipartiteGraph g = testing::RandomGraph(22, 22, 0.5, 13);
  Request request;
  request.algo = "auto";
  request.graph = g;
  request.id = "original";
  const Response cold = server.SubmitAndWait(request);
  ASSERT_TRUE(cold.ok);

  request.id = "relabelled";
  request.graph = Relabel(g, 123);
  const Response warm = server.SubmitAndWait(request);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache, "warm");
  EXPECT_TRUE(warm.exact);
  // Isomorphs have the same optimum; the warm start must not change it.
  EXPECT_EQ(warm.size, cold.size);
  EXPECT_EQ(server.CacheCounters().isomorphic_hits, 1u);
}

TEST(ServeServer, UnknownAlgoAndOverloadAreRejected) {
  ServerOptions options = SmallServer(1);
  options.queue_capacity = 1;
  Server server(options);

  Request bad;
  bad.id = "bad";
  bad.algo = "no-such-solver";
  bad.graph = testing::RandomGraph(4, 4, 0.5, 1);
  const Response rejected = server.SubmitAndWait(bad);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("unknown algo"), std::string::npos);

  // Saturate: one hard job occupies the worker, one fills the queue; the
  // next must be bounced with an "overloaded" error, not buffered.
  std::atomic<int> done{0};
  Request hard;
  hard.algo = "dense";
  hard.graph = testing::UnfinishableDenseGraph(3);
  hard.use_cache = false;
  hard.id = "hard-0";
  server.Submit(hard, [&](const Response&) { done.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hard.id = "hard-1";
  server.Submit(hard, [&](const Response&) { done.fetch_add(1); });

  Request extra = hard;
  extra.id = "hard-2";
  const Response overloaded = server.SubmitAndWait(extra);
  EXPECT_FALSE(overloaded.ok);
  EXPECT_NE(overloaded.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(server.Counters().rejected_overloaded, 1u);

  // Cancel the saturating jobs and let the server wind down promptly.
  EXPECT_TRUE(server.Cancel("hard-0"));
  EXPECT_TRUE(server.Cancel("hard-1"));
  server.Drain();
  EXPECT_EQ(done.load(), 2);
}

TEST(ServeServer, CancelStopsQueuedAndRunningJobs) {
  Server server(SmallServer(1));
  Request hard;
  hard.algo = "dense";
  hard.graph = testing::UnfinishableDenseGraph(7);
  hard.use_cache = false;

  hard.id = "running";
  std::promise<Response> running_promise;
  auto running_future = running_promise.get_future();
  server.Submit(hard, [&](const Response& r) { running_promise.set_value(r); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  hard.id = "queued";
  std::promise<Response> queued_promise;
  auto queued_future = queued_promise.get_future();
  server.Submit(hard, [&](const Response& r) { queued_promise.set_value(r); });

  EXPECT_TRUE(server.Cancel("queued"));
  EXPECT_TRUE(server.Cancel("running"));
  EXPECT_FALSE(server.Cancel("never-existed"));

  const Response running = running_future.get();
  const Response queued = queued_future.get();
  EXPECT_TRUE(running.ok);
  EXPECT_FALSE(running.exact);
  EXPECT_EQ(running.stop_cause, "external");
  EXPECT_TRUE(queued.ok);
  EXPECT_FALSE(queued.exact);
  EXPECT_EQ(queued.stop_cause, "external");
  EXPECT_GE(server.Counters().cancelled, 2u);

  // A cancelled id is gone: cancelling again reports no live job.
  server.Drain();
  EXPECT_FALSE(server.Cancel("running"));
}

TEST(ServeServer, ShortDeadlineReturnsInexactWithCause) {
  Server server(SmallServer(1));
  Request hard;
  hard.id = "deadline";
  hard.algo = "dense";
  hard.graph = testing::UnfinishableDenseGraph(5);
  hard.deadline_ms = 5;
  hard.use_cache = false;
  const Response response = server.SubmitAndWait(hard);
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.exact);
  EXPECT_EQ(response.stop_cause, "deadline");

  // Inexact answers must not poison the cache for later exact queries.
  Request with_cache = hard;
  with_cache.id = "deadline-cached";
  with_cache.use_cache = true;
  const Response second = server.SubmitAndWait(with_cache);
  EXPECT_FALSE(second.exact);
  EXPECT_EQ(server.CacheCounters().insertions, 0u);
}

TEST(ServeServer, SjfRunsCheapQueriesFirstUnlessFifo) {
  // One worker, occupied by a blocker; an expensive and a cheap job are
  // queued behind it. Shortest-expected-job-first must run the cheap one
  // first; with starvation_ms = 0 (strict FIFO) order is submission order.
  for (const bool fifo : {false, true}) {
    ServerOptions options = SmallServer(1);
    options.cache_capacity = 0;
    options.starvation_ms = fifo ? 0.0 : 60000.0;
    Server server(options);

    Request blocker;
    blocker.id = "blocker";
    blocker.algo = "dense";
    blocker.graph = testing::UnfinishableDenseGraph(11);
    std::promise<Response> blocker_promise;
    auto blocker_future = blocker_promise.get_future();
    server.Submit(blocker,
                  [&](const Response& r) { blocker_promise.set_value(r); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::mutex order_mutex;
    std::vector<std::string> order;
    auto record = [&](const Response& r) {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(r.id);
    };
    Request expensive;
    expensive.id = "expensive";
    expensive.algo = "dense";
    expensive.graph = testing::RandomGraph(48, 48, 0.9, 13);
    expensive.deadline_ms = 50;
    server.Submit(expensive, record);
    Request cheap;
    cheap.id = "cheap";
    cheap.algo = "auto";
    cheap.graph = testing::RandomGraph(6, 6, 0.5, 13);
    server.Submit(cheap, record);

    server.Cancel("blocker");
    blocker_future.get();
    server.Drain();
    ASSERT_EQ(order.size(), 2u);
    if (fifo) {
      EXPECT_EQ(order[0], "expensive") << "strict FIFO must keep order";
    } else {
      EXPECT_EQ(order[0], "cheap") << "SJF must run the cheap query first";
    }
  }
}

TEST(ServeServer, HandleLineDispatchesAllCommands) {
  Server server(SmallServer());
  std::mutex responses_mutex;
  std::vector<Response> responses;
  auto collect = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(responses_mutex);
    responses.push_back(r);
  };

  EXPECT_TRUE(server.HandleLine(
      R"({"id":"q1","random":[12,12,0.5,3]})", collect));
  EXPECT_TRUE(server.HandleLine("this is not json", collect));
  EXPECT_TRUE(server.HandleLine(
      R"({"id":"c1","cmd":"cancel","target":"nope"})", collect));
  EXPECT_TRUE(server.HandleLine(R"({"id":"s1","cmd":"stats"})", collect));
  EXPECT_FALSE(server.HandleLine(R"({"cmd":"shutdown"})", collect));
  server.Drain();

  std::lock_guard<std::mutex> lock(responses_mutex);
  ASSERT_EQ(responses.size(), 5u);
  bool saw_solve = false, saw_parse_error = false, saw_cancel_miss = false,
       saw_stats = false;
  for (const Response& r : responses) {
    if (r.id == "q1") {
      saw_solve = r.ok && r.size > 0;
    } else if (r.id == "c1") {
      saw_cancel_miss = !r.ok;
    } else if (r.id == "s1") {
      saw_stats = r.ok && r.has_payload &&
                  r.payload.Find("cache") != nullptr;
    } else if (!r.ok) {
      saw_parse_error = true;
    }
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_parse_error);
  EXPECT_TRUE(saw_cancel_miss);
  EXPECT_TRUE(saw_stats);
}

TEST(ServeServer, ShutdownAnswersEveryQueuedJob) {
  ServerOptions options = SmallServer(1);
  options.cache_capacity = 0;
  Server server(options);
  std::atomic<int> answered{0};
  Request hard;
  hard.algo = "dense";
  hard.graph = testing::UnfinishableDenseGraph(17);
  for (int i = 0; i < 4; ++i) {
    hard.id = "job-" + std::to_string(i);
    server.Submit(hard, [&](const Response&) { answered.fetch_add(1); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Shutdown();
  // Every accepted request got a response: the running one (cancelled by
  // shutdown) and the queued ones (rejected).
  EXPECT_EQ(answered.load(), 4);
}

TEST(ServeServer, DrainAndShutdownDeliverExactlyOneResponseEach) {
  // The core serving invariant under concurrent submit/cancel/teardown:
  // every accepted request is answered exactly once — no lost callbacks,
  // no double delivery. Run under TSan in CI.
  ServerOptions options = SmallServer(2);
  options.cache_capacity = 0;
  Server server(options);

  constexpr int kDrainJobs = 12;
  constexpr int kShutdownJobs = 8;
  std::vector<std::atomic<int>> answers(kDrainJobs + kShutdownJobs);
  for (auto& count : answers) count.store(0);

  // Phase 1: two submitter threads race a canceller, then Drain().
  std::thread submit_even([&] {
    for (int i = 0; i < kDrainJobs; i += 2) {
      Request request;
      request.id = "drain-" + std::to_string(i);
      request.graph = testing::RandomGraph(14, 14, 0.5, i);
      if (i % 4 == 0) request.deadline_ms = 5;
      server.Submit(request,
                    [&answers, i](const Response&) { answers[i]++; });
    }
  });
  std::thread submit_odd([&] {
    for (int i = 1; i < kDrainJobs; i += 2) {
      Request request;
      request.id = "drain-" + std::to_string(i);
      request.algo = "dense";
      request.graph = testing::RandomGraph(32, 32, 0.8, i);
      server.Submit(request,
                    [&answers, i](const Response&) { answers[i]++; });
    }
  });
  std::thread canceller([&] {
    for (int i = 0; i < kDrainJobs; ++i) {
      server.Cancel("drain-" + std::to_string(i));  // may miss; that's fine
    }
  });
  submit_even.join();
  submit_odd.join();
  canceller.join();
  server.Drain();
  for (int i = 0; i < kDrainJobs; ++i) {
    EXPECT_EQ(answers[i].load(), 1) << "drain-" << i;
  }

  // Phase 2: queue hard jobs, then Shutdown() while they run. Shutdown
  // cancels the running solves and rejects the queued ones — but each
  // still gets its single response.
  for (int i = 0; i < kShutdownJobs; ++i) {
    const int slot = kDrainJobs + i;
    Request request;
    request.id = "shutdown-" + std::to_string(i);
    request.algo = "dense";
    request.graph = testing::UnfinishableDenseGraph(100 + i);
    server.Submit(request,
                  [&answers, slot](const Response&) { answers[slot]++; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Shutdown();
  for (int i = 0; i < kShutdownJobs; ++i) {
    EXPECT_EQ(answers[kDrainJobs + i].load(), 1) << "shutdown-" << i;
  }

  // After Shutdown the server stays answerable: submissions are rejected
  // with a structured error, not silence.
  const Response late = server.SubmitAndWait([] {
    Request request;
    request.id = "late";
    request.graph = testing::RandomGraph(6, 6, 0.5, 1);
    return request;
  }());
  EXPECT_FALSE(late.ok);
  EXPECT_NE(late.error.find("shutting down"), std::string::npos);
}

TEST(ServeServer, VariantSolversFlowThroughTheServer) {
  Server server(SmallServer());
  const BipartiteGraph g = testing::RandomGraph(20, 20, 0.5, 21);

  Request topk;
  topk.id = "topk";
  topk.algo = "topk";
  topk.top_k = 2;
  topk.graph = g;
  const Response pool_response = server.SubmitAndWait(topk);
  ASSERT_TRUE(pool_response.ok);
  EXPECT_GE(pool_response.pool.size(), 1u);
  EXPECT_EQ(pool_response.pool.front().BalancedSize(), pool_response.size);

  Request sizecon;
  sizecon.id = "sizecon";
  sizecon.algo = "sizecon";
  sizecon.size_a = 2;
  sizecon.size_b = 3;
  sizecon.graph = g;
  const Response sc_response = server.SubmitAndWait(sizecon);
  ASSERT_TRUE(sc_response.ok);
  EXPECT_GE(sc_response.left.size(), 2u);
  EXPECT_GE(sc_response.right.size(), 3u);

  // Parameterised classes are cached per parameter set: same graph, new k
  // must be a miss, same (graph, k) a hit.
  topk.id = "topk-repeat";
  const Response repeat = server.SubmitAndWait(topk);
  EXPECT_EQ(repeat.cache, "hit");
  EXPECT_EQ(repeat.pool.size(), pool_response.pool.size());
  topk.id = "topk-k3";
  topk.top_k = 3;
  const Response other_k = server.SubmitAndWait(topk);
  EXPECT_EQ(other_k.cache, "miss");
}

}  // namespace
}  // namespace mbb
