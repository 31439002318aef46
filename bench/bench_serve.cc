/// Closed-loop load test of the serving layer: a fleet of client threads
/// drives an in-process `serve::Server` through `SubmitAndWait`, and the
/// run reports queries/sec, p50/p99 end-to-end latency, and the cache hit
/// rate per phase. Three phases over one pool of graphs:
///
///   cold — every graph is new, so every query solves (cache misses);
///   warm — the same labelled graphs again: exact cache hits, answered at
///          admission without touching the queue;
///   iso  — relabelled copies of the pool: isomorphic hits that warm-start
///          the solver with the cached bound.
///
/// A final scenario submits a hard query with a millisecond deadline and
/// checks it comes back inexact-with-cause promptly (the admission queue
/// must not stall behind it).
///
/// The paced open-loop and mixed-traffic serve numbers of record come from
/// the `serve` workload of `bench_record/run.py`; this binary is the quick
/// closed-loop smoke with pass/fail gates.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "graph/generators.h"
#include "serve/server.h"

namespace {

using namespace mbb;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerOptions;

/// Applies independent random per-side permutations — same structure,
/// different labels, so the cache sees it as an isomorphic (not exact) hit.
BipartiteGraph Relabel(const BipartiteGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<VertexId> left_perm(g.num_left());
  std::vector<VertexId> right_perm(g.num_right());
  for (VertexId v = 0; v < g.num_left(); ++v) left_perm[v] = v;
  for (VertexId v = 0; v < g.num_right(); ++v) right_perm[v] = v;
  std::shuffle(left_perm.begin(), left_perm.end(), rng);
  std::shuffle(right_perm.begin(), right_perm.end(), rng);
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId l = 0; l < g.num_left(); ++l) {
    for (const VertexId r : g.Neighbors(Side::kLeft, l)) {
      edges.emplace_back(left_perm[l], right_perm[r]);
    }
  }
  return BipartiteGraph::FromEdges(g.num_left(), g.num_right(),
                                   std::move(edges));
}

struct PhaseResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;  // exact + isomorphic hits / queries
  std::uint64_t queries = 0;
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Runs one closed-loop phase: `num_clients` threads sweep the graph pool,
/// each call blocking until its response arrives.
PhaseResult RunPhase(Server& server, const std::vector<BipartiteGraph>& pool,
                     const std::string& phase, std::uint32_t num_clients,
                     std::uint32_t rounds) {
  const serve::CacheStats before = server.CacheCounters();
  std::vector<std::vector<double>> latencies(num_clients);
  std::atomic<std::uint64_t> next_id{0};
  WallTimer timer;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint32_t round = 0; round < rounds; ++round) {
        for (std::size_t i = c; i < pool.size(); i += num_clients) {
          Request request;
          request.id = phase + "-" + std::to_string(next_id.fetch_add(1));
          request.algo = "auto";
          request.graph = pool[i];
          WallTimer query_timer;
          const Response response = server.SubmitAndWait(request);
          latencies[c].push_back(query_timer.Seconds() * 1e3);
          if (!response.ok) {
            std::cerr << "query failed: " << response.error << "\n";
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  PhaseResult result;
  const double seconds = timer.Seconds();
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  result.queries = all.size();
  result.qps = seconds > 0 ? static_cast<double>(all.size()) / seconds : 0;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  const serve::CacheStats after = server.CacheCounters();
  const std::uint64_t hits = (after.exact_hits - before.exact_hits) +
                             (after.isomorphic_hits - before.isomorphic_hits);
  result.hit_rate = result.queries > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(result.queries)
                        : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  const double scale = config.EffectiveScale(1.0);

  constexpr std::uint32_t kNumClients = 4;
  constexpr std::uint32_t kPoolSize = 24;
  constexpr std::uint32_t kRounds = 1;
  const auto side = static_cast<std::uint32_t>(36 * scale);

  ServerOptions options;
  options.num_workers = 4;
  options.cache_capacity = 2 * kPoolSize;
  options.starvation_ms = 200.0;
  Server server(options);

  std::vector<BipartiteGraph> pool;
  pool.reserve(kPoolSize);
  for (std::uint32_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(RandomUniform(side, side, 0.4 + 0.01 * (i % 8), 100 + i));
  }
  std::vector<BipartiteGraph> relabelled;
  relabelled.reserve(kPoolSize);
  for (std::uint32_t i = 0; i < kPoolSize; ++i) {
    relabelled.push_back(Relabel(pool[i], 7000 + i));
  }

  std::cout << "mbb_serve closed-loop load test (" << kNumClients
            << " clients, pool " << kPoolSize << " graphs of " << side << "x"
            << side << ", " << options.num_workers << " workers)\n\n";

  TablePrinter table(
      {"phase", "queries", "qps", "p50(ms)", "p99(ms)", "hit-rate"});
  PhaseResult cold;
  const std::pair<std::string, const std::vector<BipartiteGraph>*> phases[] =
      {{"cold", &pool}, {"warm", &pool}, {"iso", &relabelled}};
  for (const auto& [phase, graphs] : phases) {
    const PhaseResult result =
        RunPhase(server, *graphs, phase, kNumClients, kRounds);
    if (phase == "cold") cold = result;
    std::ostringstream qps, p50, p99, rate;
    qps.precision(1);
    qps << std::fixed << result.qps;
    p50.precision(3);
    p50 << std::fixed << result.p50_ms;
    p99.precision(3);
    p99 << std::fixed << result.p99_ms;
    rate.precision(2);
    rate << std::fixed << result.hit_rate;
    table.AddRow({phase, std::to_string(result.queries), qps.str(), p50.str(),
                  p99.str(), rate.str()});
  }
  table.Print(std::cout);

  // Warm must beat cold: exact hits skip the solver entirely. This is the
  // acceptance gate for the cache, not a statistical comparison — a repeat
  // workload that is not clearly faster means the cache is broken.
  const PhaseResult warm_check =
      RunPhase(server, pool, "warm2", kNumClients, 1);
  const double speedup =
      warm_check.p50_ms > 0 ? cold.p50_ms / warm_check.p50_ms : 0;
  std::cout << "\nrepeat-query p50 speedup over cold: ";
  std::cout.precision(1);
  std::cout << std::fixed << speedup << "x (hit rate ";
  std::cout.precision(2);
  std::cout << warm_check.hit_rate << ")\n";

  // Deadline scenario: a hard dense query with a 5 ms budget must come
  // back inexact with the deadline cause, and a trailing cheap query must
  // still be answered (the queue does not stall).
  Request hard;
  hard.id = "deadline-probe";
  hard.algo = "dense";
  hard.graph = RandomUniform(72, 72, 0.9, 42);
  hard.deadline_ms = 5;
  hard.use_cache = false;
  const Response hard_response = server.SubmitAndWait(hard);
  Request cheap;
  cheap.id = "after-deadline";
  cheap.algo = "auto";
  cheap.graph = pool[0];
  const Response cheap_response = server.SubmitAndWait(cheap);
  const bool deadline_ok = hard_response.ok && !hard_response.exact &&
                           hard_response.stop_cause == "deadline" &&
                           cheap_response.ok;
  std::cout << "short-deadline query: "
            << (deadline_ok ? "inexact with cause, queue not stalled"
                            : "FAILED")
            << " (stop_cause=" << hard_response.stop_cause << ")\n";

  bool ok = deadline_ok;
  if (warm_check.hit_rate < 0.99) {
    std::cerr << "FAILED: repeat workload hit rate " << warm_check.hit_rate
              << " < 0.99\n";
    ok = false;
  }

  server.Shutdown();
  std::cout << "\nShape check: warm-phase p50 well under cold (hits skip the "
               "solver), hit-rate\n1.00 on repeats, and the deadline probe "
               "returns inexact with its cause.\n";
  return ok ? 0 : 1;
}
