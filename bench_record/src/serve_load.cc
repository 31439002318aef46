// serve: an in-process serve::Server fed JSON-lines requests through
// `HandleLine`, exactly as a transport would. The run seed generates the
// graph pool and the request trace; the server only ever sees the lines.
//
// Pool: small dense randoms and small Table-5 surrogates, fixed by
// pool_seed, each sent under a few labellings drawn from the run seed.
// Trace: Zipf-ranked picks from the pool (exact repeats, or a relabelled
// isomorph with probability iso_share), fresh never-seen graphs of one
// fixed shape with probability fresh_share (every seed then draws the same
// miss-tail difficulty), and sizecon / topk requests on pool graphs. Phases, in order:
//   paced  — open loop, Poisson arrivals at a fixed rate spread over
//            `senders` sender threads; latency counts from each
//            request's scheduled send time;
//   closed — `clients` threads, each sending its next request when the
//            previous one is answered (saturated throughput).
// Every answer is checked against references computed outside the timed
// phases: pool optima (and sizecon feasibility) during set-up, fresh-graph
// optima after the phases, only for the fresh graphs the trace sent.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "layers.h"
#include "metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace record {

namespace {

using mbb::serve::Response;
using mbb::serve::Server;

enum class Kind : std::uint8_t { kSolve, kSizecon, kTopk };

struct Graph {
  mbb::BipartiteGraph g;
  std::string fragment;  // `"num_left":..,"num_right":..,"edges":[..]}`
  std::uint32_t base = 0;  // pool index; for fresh graphs the fresh index
  bool fresh = false;
};

struct Entry {
  std::uint32_t graph = 0;
  Kind kind = Kind::kSolve;
  std::uint32_t param = 0;  // sizecon: combo 0..3; topk: k
};

struct Params {
  std::uint32_t workers, clients, senders, pool_random, variants, cache,
      fresh_side;
  double rate, paced_share, closed_share, zipf, iso_share, fresh_share,
      fresh_density, sizecon_share, topk_share;
  std::uint64_t closed_max, pool_seed;
  std::vector<std::pair<std::string, double>> surrogates;

  explicit Params(const Config& c) {
    workers = static_cast<std::uint32_t>(c.Param("workers"));
    clients = static_cast<std::uint32_t>(c.Param("clients"));
    senders = static_cast<std::uint32_t>(c.Param("senders"));
    pool_random = static_cast<std::uint32_t>(c.Param("pool_random"));
    variants = static_cast<std::uint32_t>(c.Param("variants"));
    cache = static_cast<std::uint32_t>(c.Param("cache"));
    rate = c.Param("rate");
    paced_share = c.Param("paced_share");
    closed_share = c.Param("closed_share");
    zipf = c.Param("zipf");
    iso_share = c.Param("iso_share");
    fresh_share = c.Param("fresh_share");
    fresh_side = static_cast<std::uint32_t>(c.Param("fresh_side"));
    fresh_density = c.Param("fresh_density");
    sizecon_share = c.Param("sizecon_share");
    topk_share = c.Param("topk_share");
    closed_max = static_cast<std::uint64_t>(c.Param("closed_max"));
    pool_seed = static_cast<std::uint64_t>(c.Param("pool_seed"));
    // Instance specs name the pool's surrogates: `dataset:NAME:SCALE`.
    for (const std::string& spec : c.instances) {
      const auto a = spec.find(':');
      const auto b = spec.rfind(':');
      if (spec.substr(0, a) != "dataset" || a == b) {
        throw std::invalid_argument("bad serve instance " + spec);
      }
      surrogates.emplace_back(spec.substr(a + 1, b - a - 1),
                              std::stod(spec.substr(b + 1)));
    }
  }
};

std::string Fragment(const mbb::BipartiteGraph& g) {
  std::string out = "\"num_left\":" + std::to_string(g.num_left()) +
                    ",\"num_right\":" + std::to_string(g.num_right()) +
                    ",\"edges\":[";
  bool first = true;
  for (mbb::VertexId l = 0; l < g.num_left(); ++l) {
    for (const mbb::VertexId r : g.Neighbors(mbb::Side::kLeft, l)) {
      if (!first) out += ',';
      first = false;
      out += '[';
      out += std::to_string(l);
      out += ',';
      out += std::to_string(r);
      out += ']';
    }
  }
  return out + "]}";
}

mbb::BipartiteGraph RandomPoolGraph(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> side(24, 40);
  std::uniform_real_distribution<double> density(0.4, 0.9);
  const std::uint32_t nl = side(rng);
  const std::uint32_t nr = side(rng);
  const double d = density(rng);
  return mbb::RandomUniform(nl, nr, d, rng());
}

/// Everything the timed set-up produces.
struct Setup {
  std::vector<Graph> graphs;  // pool variants, then fresh graphs
  std::uint32_t num_base = 0;
  std::vector<Entry> paced;
  std::vector<double> paced_offsets;  // seconds after the phase start
  std::vector<Entry> closed;
  double build_s = 0;  // inside the graph generators + ingest
  std::unique_ptr<Server> server;
};

Setup BuildSetup(const Config& config, const Params& p) {
  Setup s;
  // The base pool is fixed (pool_seed); the run seed picks its labels, the
  // trace and the fresh graphs.
  std::mt19937_64 pool_rng(p.pool_seed);
  std::mt19937_64 rng(Mix(config.seed, 1));
  // Times one generator / ingest call into `build_s`.
  const auto build = [&s](auto make) {
    const double start = Now();
    mbb::BipartiteGraph g = make();
    s.build_s += Now() - start;
    return g;
  };
  std::vector<mbb::BipartiteGraph> bases;
  for (std::uint32_t i = 0; i < p.pool_random; ++i) {
    bases.push_back(build([&] { return RandomPoolGraph(pool_rng); }));
  }
  for (const auto& [name, scale] : p.surrogates) {
    const mbb::DatasetSpec* spec = mbb::FindDataset(name);
    if (spec == nullptr) throw std::invalid_argument("unknown dataset " + name);
    bases.push_back(build([&, &scale = scale] {
      return mbb::GenerateSurrogate(*spec, scale, p.pool_seed);
    }));
  }
  s.num_base = static_cast<std::uint32_t>(bases.size());
  for (std::uint32_t b = 0; b < s.num_base; ++b) {
    for (std::uint32_t v = 0; v <= p.variants; ++v) {
      Graph graph;
      graph.g = build([&] {
        return Relabel(bases[b], Mix(config.seed, 100 + b * 64 + v));
      });
      graph.fragment = Fragment(graph.g);
      graph.base = b;
      s.graphs.push_back(std::move(graph));
    }
  }

  // Zipf over a ranking of the pool fixed with it, so every seed sees the
  // same hot set (the hottest graph alone draws ~1/5 of the picks).
  std::vector<std::uint32_t> rank(s.num_base);
  std::iota(rank.begin(), rank.end(), 0);
  std::shuffle(rank.begin(), rank.end(), pool_rng);
  std::vector<double> cdf(s.num_base);
  double total = 0;
  for (std::uint32_t r = 0; r < s.num_base; ++r) {
    total += 1.0 / std::pow(r + 1.0, p.zipf);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uint32_t fresh = 0;
  const auto draw = [&]() {
    Entry e;
    if (unit(rng) < p.fresh_share) {
      Graph graph;
      graph.g = build([&] {
        return mbb::RandomUniform(p.fresh_side, p.fresh_side, p.fresh_density, rng());
      });
      graph.fragment = Fragment(graph.g);
      graph.base = fresh++;
      graph.fresh = true;
      e.graph = static_cast<std::uint32_t>(s.graphs.size());
      s.graphs.push_back(std::move(graph));
      return e;
    }
    const double u = unit(rng) * total;
    const auto r = static_cast<std::uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const std::uint32_t b = rank[std::min(r, s.num_base - 1)];
    const std::uint32_t v =
        unit(rng) < p.iso_share ? 1 + static_cast<std::uint32_t>(rng() % p.variants) : 0;
    e.graph = b * (p.variants + 1) + v;
    const double k = unit(rng);
    if (k < p.sizecon_share) {
      e.kind = Kind::kSizecon;
      e.param = static_cast<std::uint32_t>(rng() % 4);
    } else if (k < p.sizecon_share + p.topk_share) {
      e.kind = Kind::kTopk;
      e.param = 2 + static_cast<std::uint32_t>(rng() % 2);
    }
    return e;
  };
  const double paced_seconds = config.seconds * p.paced_share;
  const auto paced_count =
      static_cast<std::size_t>(std::ceil(p.rate * paced_seconds));
  std::exponential_distribution<double> gap(p.rate);
  double at = 0.01;
  for (std::size_t i = 0; i < paced_count; ++i) {
    s.paced.push_back(draw());
    s.paced_offsets.push_back(at);
    at += gap(rng);
  }
  for (std::uint64_t i = 0; i < p.closed_max; ++i) s.closed.push_back(draw());

  mbb::serve::ServerOptions options;
  options.num_workers = p.workers;
  options.cache_capacity = p.cache;
  s.server = std::make_unique<Server>(options);
  return s;
}

/// Reference answers, computed outside every timed phase.
struct References {
  std::vector<std::uint32_t> base_opt;
  std::vector<std::array<bool, 4>> sizecon_feasible;  // per base, per combo
  std::vector<std::int64_t> fresh_opt;  // -1 = not computed
};

/// The optimum by `dense`, cross-checked against `hbv` for pool graphs
/// (fresh graphs are many and each is sent once: one solver suffices).
std::uint32_t ExactOptimum(const mbb::BipartiteGraph& g, bool cross_check) {
  const mbb::MbbResult dense = SolveUntraced("dense", g, 1);
  bool agree = dense.exact && CheckBalancedBiclique(g, dense.best).empty();
  if (agree && cross_check) {
    const mbb::MbbResult hbv = SolveUntraced("hbv", g, 1);
    agree = hbv.exact && hbv.best.BalancedSize() == dense.best.BalancedSize();
  }
  if (!agree) throw std::runtime_error("reference solvers disagree on a pool graph");
  return dense.best.BalancedSize();
}

std::pair<std::uint32_t, std::uint32_t> SizeconTarget(std::uint32_t opt,
                                                      std::uint32_t combo) {
  const std::uint32_t lo = std::max<std::uint32_t>(1, opt - 1);
  switch (combo) {
    case 0: return {std::max<std::uint32_t>(1, opt), std::max<std::uint32_t>(1, opt)};
    case 1: return {opt + 1, opt + 1};
    case 2: return {lo, opt + 2};
    default: return {opt + 2, lo};
  }
}

References BaseReferences(const Setup& s, const Params& p) {
  References refs;
  for (std::uint32_t b = 0; b < s.num_base; ++b) {
    const mbb::BipartiteGraph& g = s.graphs[b * (p.variants + 1)].g;
    const std::uint32_t opt = ExactOptimum(g, true);
    refs.base_opt.push_back(opt);
    std::array<bool, 4> feasible{};
    for (std::uint32_t c = 0; c < 4; ++c) {
      const auto [a, bb] = SizeconTarget(opt, c);
      mbb::SolverOptions options;
      options.size_a = a;
      options.size_b = bb;
      const mbb::MbbResult r = mbb::SolverRegistry::Solve("sizecon", g, options);
      feasible[c] = !r.best.Empty();
    }
    if (!feasible[0] || feasible[1]) {
      throw std::runtime_error("sizecon reference contradicts the optimum");
    }
    refs.sizecon_feasible.push_back(feasible);
  }
  return refs;
}

std::string Line(const Setup& s, const References& refs, const Entry& e,
                 const std::string& id) {
  const Graph& g = s.graphs[e.graph];
  std::string line = "{\"id\":\"" + id + "\",";
  switch (e.kind) {
    case Kind::kSolve:
      line += "\"algo\":\"auto\",";
      break;
    case Kind::kSizecon: {
      const auto [a, b] = SizeconTarget(refs.base_opt[g.base], e.param);
      line += "\"algo\":\"sizecon\",\"a\":" + std::to_string(a) +
              ",\"b\":" + std::to_string(b) + ",";
      break;
    }
    case Kind::kTopk:
      line += "\"algo\":\"topk\",\"k\":" + std::to_string(e.param) + ",";
      break;
  }
  return line + g.fragment;
}

std::string Gate(const Setup& s, const References& refs, const Entry& e,
                 const Response& r) {
  const Graph& graph = s.graphs[e.graph];
  const std::string where = "request " + r.id + ": ";
  if (!r.ok) return where + "error: " + r.error;
  if (!r.exact || r.degraded) return where + "inexact (" + r.stop_cause + ")";
  const std::uint32_t opt = graph.fresh
                                ? static_cast<std::uint32_t>(refs.fresh_opt[graph.base])
                                : refs.base_opt[graph.base];
  mbb::Biclique witness{r.left, r.right};
  switch (e.kind) {
    case Kind::kSolve: {
      const std::string error = CheckBalancedBiclique(graph.g, witness);
      if (!error.empty()) return where + error;
      if (witness.BalancedSize() != opt || r.size != opt) {
        return where + "size " + std::to_string(witness.BalancedSize()) +
               ", reference optimum " + std::to_string(opt);
      }
      return "";
    }
    case Kind::kSizecon: {
      const auto [a, b] = SizeconTarget(opt, e.param);
      if (!refs.sizecon_feasible[graph.base][e.param]) {
        return witness.Empty() ? "" : where + "sizecon witness for an infeasible target";
      }
      if (witness.left.size() < a || witness.right.size() < b) {
        return where + "sizecon witness misses its target";
      }
      const std::string error = CheckBiclique(graph.g, witness);
      return error.empty() ? "" : where + error;
    }
    case Kind::kTopk: {
      if (r.pool.empty() || r.pool.size() > e.param) return where + "topk pool size";
      std::vector<char> left_used(graph.g.num_left()), right_used(graph.g.num_right());
      std::uint32_t previous = opt;
      for (const mbb::Biclique& b : r.pool) {
        const std::string error = CheckBalancedBiclique(graph.g, b);
        if (!error.empty()) return where + "topk " + error;
        if (b.BalancedSize() > previous) return where + "topk not largest first";
        previous = b.BalancedSize();
        for (const mbb::VertexId l : b.left) {
          if (left_used[l]++) return where + "topk bicliques overlap";
        }
        for (const mbb::VertexId v : b.right) {
          if (right_used[v]++) return where + "topk bicliques overlap";
        }
      }
      if (r.pool.front().BalancedSize() != opt) {
        return where + "topk first size " +
               std::to_string(r.pool.front().BalancedSize()) + ", reference " +
               std::to_string(opt);
      }
      return "";
    }
  }
  return "";
}

std::string RequestId(const char* prefix, std::size_t index) {
  std::string id = prefix;
  id += std::to_string(index);
  return id;
}

/// Responses of one phase, written by server callbacks (one slot each).
struct PhaseLog {
  explicit PhaseLog(std::size_t n)
      : responses(n), due(n), sent(n), handled(n), done(n) {}
  std::vector<Response> responses;
  std::vector<double> due, sent, handled, done;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t completed = 0;

  void Complete(std::size_t i, const Response& r) {
    const double now = Now();
    std::lock_guard<std::mutex> lock(mutex);
    responses[i] = r;
    done[i] = now;
    ++completed;
    cv.notify_all();
  }
  bool WaitFor(std::size_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return completed >= n; });
  }
};

/// Open loop: request i is due at its scheduled offset and goes out on
/// sender i mod `num_senders` (one thread per simulated connection, as a
/// transport's reader threads would call `HandleLine`).
void RunPaced(Setup& s, const References& refs, std::uint32_t num_senders,
              PhaseLog& log) {
  const double start = Now();
  std::vector<std::thread> senders;
  for (std::uint32_t c = 0; c < num_senders; ++c) {
    senders.emplace_back([&, c] {
      for (std::size_t i = c; i < s.paced.size(); i += num_senders) {
        const double due = start + s.paced_offsets[i];
        // Built before the due time: string building is the sender's work,
        // not latency the server is charged with.
        const std::string line = Line(s, refs, s.paced[i], RequestId("p", i));
        const double wait = due - Now();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        log.due[i] = due;
        log.sent[i] = Now();
        s.server->HandleLine(line, [&log, i](const Response& r) { log.Complete(i, r); });
        log.handled[i] = Now();
      }
    });
  }
  for (std::thread& t : senders) t.join();
}

/// Returns the closed phase's elapsed seconds; `sent` counts requests.
double RunClosed(Setup& s, const References& refs, const std::vector<Entry>& entries,
                 const char* prefix, std::uint32_t num_clients, double seconds,
                 PhaseLog& log, std::size_t* sent) {
  struct Waiter {
    std::mutex mutex;
    std::condition_variable cv;
    bool answered = false;
  };
  std::vector<std::unique_ptr<Waiter>> waiters;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    waiters.push_back(std::make_unique<Waiter>());
  }
  std::atomic<std::size_t> next{0};
  const double start = Now();
  const double end = start + seconds;
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, w = waiters[c].get()] {
      while (Now() < end) {
        const std::size_t i = next.fetch_add(1);
        if (i >= entries.size()) return;
        const std::string line = Line(s, refs, entries[i], RequestId(prefix, i));
        log.sent[i] = Now();
        s.server->HandleLine(line, [&log, i, w](const Response& r) {
          log.Complete(i, r);
          std::lock_guard<std::mutex> lock(w->mutex);
          w->answered = true;
          w->cv.notify_one();
        });
        std::unique_lock<std::mutex> lock(w->mutex);
        w->cv.wait(lock, [w] { return w->answered; });
        w->answered = false;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  *sent = std::min(next.load(), entries.size());
  double last = start;
  for (std::size_t i = 0; i < *sent; ++i) last = std::max(last, log.done[i]);
  return last - start;
}

}  // namespace

void RunServe(const Config& config, Tracer& tracer, RunResult& result) {
  const Params p(config);
  const int setup_reps = static_cast<int>(config.Param("setup_reps"));

  // ---- Set-up (timed, repeated): pool, trace, server start. ------------
  Setup s;
  std::vector<double> setup_times, build_times;
  for (int rep = 0; rep < setup_reps; ++rep) {
    s = Setup{};  // joins the previous server outside the timed region
    const double start = Now();
    s = BuildSetup(config, p);
    setup_times.push_back(Now() - start);
    build_times.push_back(s.build_s);
  }
  References refs = BaseReferences(s, p);
  refs.fresh_opt.assign(s.graphs.size() - s.num_base * (p.variants + 1), -1);

  // ---- Warm-up (untimed), so the timed phases start from a steady cache
  // instead of a cold-start backlog: every base graph under its variant-0
  // labels as a solve request, and every labelling as sizecon and topk
  // requests. Those classes get no warm start from an isomorph, so a cold
  // one is a full multi-solve whose cost depends on which graph the seed
  // drew; warmed, the timed misses are fresh graphs and isomorph warm
  // starts. ---------------------------------------------------------------
  std::vector<Entry> warmup;
  for (std::uint32_t b = 0; b < s.num_base; ++b) {
    warmup.push_back({b * (p.variants + 1), Kind::kSolve, 0});
    for (std::uint32_t v = 0; v <= p.variants; ++v) {
      const std::uint32_t graph = b * (p.variants + 1) + v;
      for (std::uint32_t c = 0; c < 4; ++c) warmup.push_back({graph, Kind::kSizecon, c});
      for (std::uint32_t k = 2; k <= 3; ++k) warmup.push_back({graph, Kind::kTopk, k});
    }
  }
  PhaseLog warm_log(warmup.size());
  std::size_t warm_sent = 0;
  const double warm_start = Now();
  RunClosed(s, refs, warmup, "w", p.clients, 1e9, warm_log, &warm_sent);
  s.server->Drain();
  result.Note("warmup_s", JsonNumber(Now() - warm_start));
  for (std::size_t i = 0; i < warm_sent; ++i) {
    result.Gate(Gate(s, refs, warmup[i], warm_log.responses[i]));
  }

  // ---- Paced open-loop phase. -------------------------------------------
  const mbb::serve::ServerCounters before = s.server->Counters();
  PhaseLog paced(s.paced.size());
  RunPaced(s, refs, p.senders, paced);
  if (!paced.WaitFor(s.paced.size(), 120)) {
    throw std::runtime_error("paced phase: responses missing after 120 s");
  }

  // ---- Closed-loop saturation phase. ------------------------------------
  PhaseLog closed(s.closed.size());
  std::size_t closed_sent = 0;
  const double closed_elapsed =
      RunClosed(s, refs, s.closed, "c", p.clients, config.seconds * p.closed_share,
                closed, &closed_sent);
  s.server->Drain();
  const mbb::serve::ServerCounters after = s.server->Counters();

  // ---- Gate every served answer (fresh references first). ---------------
  const auto fresh_reference = [&](const Entry& e) {
    const Graph& g = s.graphs[e.graph];
    if (g.fresh && refs.fresh_opt[g.base] < 0) refs.fresh_opt[g.base] = ExactOptimum(g.g, false);
  };
  for (const Entry& e : s.paced) fresh_reference(e);
  for (std::size_t i = 0; i < closed_sent; ++i) fresh_reference(s.closed[i]);
  for (std::size_t i = 0; i < s.paced.size(); ++i) {
    result.Gate(Gate(s, refs, s.paced[i], paced.responses[i]));
  }
  for (std::size_t i = 0; i < closed_sent; ++i) {
    result.Gate(Gate(s, refs, s.closed[i], closed.responses[i]));
  }

  // ---- Reduce. ------------------------------------------------------------
  // Fresh graphs are never cached and all of one shape, so their server-side
  // solve time (1 thread per solve) is the serve workload's engine time:
  // alone in the paced phase, beside three other solves in the closed one.
  std::vector<double> latency, late, queue, admit, solve_closed, fresh_paced, fresh_closed;
  std::uint64_t hits = 0, warm = 0;
  for (std::size_t i = 0; i < s.paced.size(); ++i) {
    const Response& r = paced.responses[i];
    const double ms = 1e3 * (paced.done[i] - paced.due[i]);
    latency.push_back(ms);
    late.push_back(1e3 * (paced.sent[i] - paced.due[i]));
    admit.push_back(ms - r.queue_ms - r.solve_ms);
    if (r.cache == "hit") {
      ++hits;
    } else {
      queue.push_back(r.queue_ms);
      if (r.cache == "warm") ++warm;
    }
    if (s.graphs[s.paced[i].graph].fresh) fresh_paced.push_back(r.solve_ms);
  }
  for (std::size_t i = 0; i < closed_sent; ++i) {
    const Response& r = closed.responses[i];
    if (r.cache != "hit") solve_closed.push_back(r.solve_ms);
    if (s.graphs[s.closed[i].graph].fresh) fresh_closed.push_back(r.solve_ms);
  }
  EndToEnd e2e;
  e2e.solve_s = 1e-3 * Median(fresh_paced);
  e2e.solve_t4_s = 1e-3 * Median(fresh_closed);
  e2e.setup_s = Median(setup_times);
  e2e.peak_rss_mb = PeakRssMb();
  e2e.ok_rate = result.OkRate();
  e2e.qps = closed_elapsed > 0 ? static_cast<double>(closed_sent) / closed_elapsed : 0;
  e2e.latency_p50_ms = Median(latency);
  e2e.latency_p99_ms = Quantile(latency, 0.99);

  const double paced_n = static_cast<double>(s.paced.size());
  result.Note("paced_rate_qps", JsonNumber(p.rate));
  result.Note("paced_samples", std::to_string(s.paced.size()));
  result.Note("paced_beyond_p99", JsonNumber(paced_n * 0.01));
  result.Note("closed_requests", std::to_string(closed_sent));
  result.Note("paced_senders", std::to_string(p.senders));
  result.Note("closed_clients", std::to_string(p.clients));
  result.Note("server_workers", std::to_string(p.workers));
  result.Note("pool_base_graphs", std::to_string(s.num_base));
  result.Note("fresh_graphs", std::to_string(refs.fresh_opt.size()));
  result.Note("fresh_solves", std::to_string(fresh_paced.size()) + " paced, " +
                                  std::to_string(fresh_closed.size()) + " closed");
  result.Note("paced_hit_rate", JsonNumber(hits / std::max(1.0, paced_n)));

  if (!config.trace) {
    AddEndToEnd(result, e2e);
    return;
  }

  PerLayer layers;
  MeasureBitOps(layers, result);
  layers.graph_build_s = Median(build_times);

  // Serve layers, from the response fields and a separately timed parse.
  std::vector<double> parse_ms;
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    Entry e;
    e.graph = static_cast<std::uint32_t>(i);
    const std::string line = Line(s, refs, e, "parse");
    mbb::serve::Request request;
    std::string error;
    const double start = Now();
    mbb::serve::ParseRequestLine(line, &request, &error);
    parse_ms.push_back(1e3 * (Now() - start));
  }
  layers.serve_parse_ms_p50 = Median(parse_ms);
  layers.serve_admit_ms_p50 = Median(admit);
  layers.serve_queue_ms_p50 = Median(queue);
  layers.serve_queue_ms_p99 = Quantile(queue, 0.99);
  layers.serve_solve_ms_p50 = Median(solve_closed);
  layers.serve_solve_ms_p99 = Quantile(solve_closed, 0.99);
  layers.serve_hit_rate = hits / std::max(1.0, paced_n);
  layers.serve_warm_rate = warm / std::max(1.0, paced_n);
  layers.serve_warm_fallbacks =
      static_cast<double>(after.warm_fallbacks - before.warm_fallbacks);
  layers.serve_rejected = static_cast<double>(
      (after.rejected_overloaded - before.rejected_overloaded) +
      (after.rejected_invalid - before.rejected_invalid));
  layers.serve_generator_late_ms_p99 = Quantile(late, 0.99);

  // Request spans: scheduled send → answer, with the HandleLine call (parse,
  // admission, cache probe, synchronous hit answers) as the child.
  for (std::size_t i = 0; i < s.paced.size(); ++i) {
    const std::uint64_t id = 1'000'000 + i;
    const int root = tracer.Add({"serve.request", paced.due[i], paced.done[i], -1, id});
    tracer.Add({"serve.handle_line", paced.sent[i], paced.handled[i], root, id});
  }
  AddPerLayer(result, layers);
}

}  // namespace record
