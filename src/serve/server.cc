#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <future>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/degrade.h"
#include "engine/faults.h"
#include "engine/registry.h"
#include "engine/search_context.h"
#include "graph/bit_ops.h"
#include "graph/canonical.h"
#include "serve/hardness.h"

namespace mbb::serve {

namespace {

double MillisSince(Server::Clock::time_point start,
                   Server::Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

Response ErrorResponse(const std::string& id, std::string error) {
  Response response;
  response.id = id;
  response.ok = false;
  response.error = std::move(error);
  return response;
}

/// The cache key class of a request, or "" when the request must bypass
/// the cache. Exact plain-MBB solvers all return a maximum balanced
/// biclique, so they share one class; the parameterised variants fold
/// their parameters into the key (a sizecon answer for (2,5) says nothing
/// about (3,3)). Heuristics never produce `exact` results, so they are
/// never inserted — giving them a class would only record misses.
std::string AlgoClass(const Request& request, const MbbSolver& solver) {
  if (!solver.IsExact()) return "";
  if (request.algo == "sizecon") {
    return "sizecon:" + std::to_string(request.size_a) + ":" +
           std::to_string(request.size_b);
  }
  if (request.algo == "topk") {
    return "topk:" + std::to_string(request.top_k);
  }
  return "exact";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  if (!options_.fault_spec.empty()) {
    std::string error;
    if (!faults::Configure(options_.fault_spec, &error)) {
      throw std::invalid_argument(error);
    }
  }
  std::uint32_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.watchdog_stall_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

Server::~Server() { Shutdown(); }

void Server::Submit(Request request, Callback callback) {
  const Clock::time_point ingest = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
  }

  const MbbSolver* solver = SolverRegistry::Instance().Find(request.algo);
  if (solver == nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.rejected_invalid;
    }
    callback(ErrorResponse(request.id, "unknown algo: " + request.algo));
    return;
  }

  Job job;
  job.ingest = ingest;
  job.token = std::make_shared<StopToken>();
  job.expected_cost = ComputeHardness(request.graph).expected_cost;
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline =
        ingest + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(deadline_ms));
  }

  // Cache probe at admission. An exact hit is answered right here on the
  // submitting thread — the whole point of the cache is that such queries
  // never touch the queue.
  if (request.use_cache && options_.cache_capacity > 0) {
    job.algo_class = AlgoClass(request, *solver);
  }
  if (!job.algo_class.empty()) {
    job.cache_label = "miss";
    job.canonical_hash = CanonicalGraphHash(request.graph);
    job.exact_hash = ExactGraphHash(request.graph);
    ResultCache::Lookup lookup = cache_.Find(
        request.graph, job.canonical_hash, job.exact_hash, job.algo_class);
    if (lookup.kind == ResultCache::HitKind::kExact) {
      Response response;
      response.id = request.id;
      response.size = lookup.result.best.BalancedSize();
      response.left = lookup.result.best.left;
      response.right = lookup.result.best.right;
      response.pool = lookup.result.pool;
      response.exact = true;
      response.cache = "hit";
      response.queue_ms = MillisSince(ingest, Clock::now());
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.answered_from_cache;
      }
      callback(std::move(response));
      return;
    }
    // Warm starts are only meaningful for the shared "exact" class: the
    // cached balanced size of an isomorph bounds this graph's optimum.
    if (lookup.kind == ResultCache::HitKind::kIsomorphic &&
        job.algo_class == "exact" && lookup.warm_bound > 0) {
      job.warm = true;
      job.warm_bound = lookup.warm_bound;
      job.cache_label = "warm";
    }
  }

  job.request = std::move(request);
  job.callback = std::move(callback);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      ++counters_.rejected_invalid;
      lock.unlock();
      job.callback(ErrorResponse(job.request.id, "server shutting down"));
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      ++counters_.rejected_overloaded;
      lock.unlock();
      job.callback(
          ErrorResponse(job.request.id, "overloaded: admission queue full"));
      return;
    }
    queue_.push_back(std::move(job));
    const auto it = std::prev(queue_.end());
    it->cost_it = by_cost_.emplace(it->expected_cost, it);
    if (!it->request.id.empty()) {
      active_[it->request.id] = it->token;
    }
  }
  cv_.notify_one();
}

Response Server::SubmitAndWait(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  Submit(std::move(request),
         [&promise](const Response& response) { promise.set_value(response); });
  return future.get();
}

bool Server::Cancel(const std::string& id) {
  std::shared_ptr<StopToken> token;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = active_.find(id);
    if (it == active_.end()) return false;
    token = it->second;
  }
  token->RequestStop(StopCause::kExternal);
  return true;
}

bool Server::HandleLine(const std::string& line, const Callback& respond) {
  // A request must never take the transport down: anything the parse or
  // dispatch throws (including injected allocation faults while
  // materialising the graph) becomes a structured error response.
  try {
    return HandleLineUnguarded(line, respond);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.internal_errors;
    }
    respond(ErrorResponse("", std::string("internal error: ") + e.what()));
    return true;
  }
}

bool Server::HandleLineUnguarded(const std::string& line,
                                 const Callback& respond) {
  Request request;
  std::string error;
  if (!ParseRequestLine(line, &request, &error, options_.limits)) {
    respond(ErrorResponse(request.id, error));
    return true;
  }
  switch (request.kind) {
    case Request::Kind::kSolve:
      Submit(std::move(request), respond);
      return true;
    case Request::Kind::kCancel: {
      Response response;
      response.id = request.id;
      if (!Cancel(request.target)) {
        response.ok = false;
        response.error = "no live job with id: " + request.target;
      }
      respond(response);
      return true;
    }
    case Request::Kind::kStats: {
      Response response;
      response.id = request.id;
      response.payload = StatsPayload();
      response.has_payload = true;
      respond(response);
      return true;
    }
    case Request::Kind::kShutdown: {
      Response response;
      response.id = request.id;
      respond(response);
      return false;
    }
  }
  respond(ErrorResponse(request.id, "unhandled request kind"));
  return true;
}

void Server::Shutdown() {
  JobList orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      orphans.swap(queue_);
      by_cost_.clear();
      // Running solves observe their tripped tokens at the next limit
      // check, so joining below is prompt even for unbounded queries.
      for (auto& [id, token] : active_) {
        token->RequestStop(StopCause::kExternal);
      }
    }
  }
  cv_.notify_all();
  drain_cv_.notify_all();
  watchdog_cv_.notify_all();
  // Join the watchdog before touching `workers_`: it is the only other
  // party that grows the pool (replacement spawns), so after this join the
  // vector is stable for the loop below.
  if (watchdog_.joinable()) watchdog_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  for (Job& job : orphans) {
    job.callback(ErrorResponse(job.request.id, "server shutting down"));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  active_.clear();
}

ServerCounters Server::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t Server::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Server::NoteClientDisconnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.client_disconnects;
}

void Server::NoteWriteRetries(std::uint64_t retries) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.write_retries += retries;
}

void Server::NoteDroppedResponse() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.dropped_responses;
}

Json Server::StatsPayload() const {
  const ServerCounters counters = Counters();
  const CacheStats cache = cache_.Stats();
  Json::Object payload;
  std::size_t queue_depth = 0;
  std::size_t num_workers = 0;
  {
    // One lock for both: the watchdog grows `workers_` under this mutex
    // when it replaces a quarantined worker.
    std::lock_guard<std::mutex> lock(mutex_);
    queue_depth = queue_.size();
    num_workers = workers_.size();
  }
  payload.emplace("queue_depth", Json(std::uint64_t{queue_depth}));
  payload.emplace("workers", Json(std::uint64_t{num_workers}));
  payload.emplace("dispatch", Json(std::string(bitops::ActiveDispatchName())));
  payload.emplace("submitted", Json(counters.submitted));
  payload.emplace("solved", Json(counters.solved));
  payload.emplace("answered_from_cache", Json(counters.answered_from_cache));
  payload.emplace("warm_fallbacks", Json(counters.warm_fallbacks));
  payload.emplace("rejected_overloaded", Json(counters.rejected_overloaded));
  payload.emplace("rejected_invalid", Json(counters.rejected_invalid));
  payload.emplace("cancelled", Json(counters.cancelled));
  payload.emplace("expired_in_queue", Json(counters.expired_in_queue));
  Json::Object faults;
  faults.emplace("resource_exhausted", Json(counters.resource_exhausted));
  faults.emplace("degraded_answers", Json(counters.degraded_answers));
  faults.emplace("solver_faults", Json(counters.solver_faults));
  faults.emplace("cache_insert_failures",
                 Json(counters.cache_insert_failures));
  faults.emplace("internal_errors", Json(counters.internal_errors));
  faults.emplace("watchdog_deadline_trips",
                 Json(counters.watchdog_deadline_trips));
  faults.emplace("watchdog_abandoned", Json(counters.watchdog_abandoned));
  faults.emplace("client_disconnects", Json(counters.client_disconnects));
  faults.emplace("write_retries", Json(counters.write_retries));
  faults.emplace("dropped_responses", Json(counters.dropped_responses));
  payload.emplace("faults", Json(std::move(faults)));
  Json::Object reduction;
  reduction.emplace("step1_vertices_removed",
                    Json(counters.step1_vertices_removed));
  reduction.emplace("step1_edges_removed",
                    Json(counters.step1_edges_removed));
  reduction.emplace("core_reduction_vertices_removed",
                    Json(counters.core_reduction_vertices_removed));
  reduction.emplace("sparse_to_dense_switches",
                    Json(counters.sparse_to_dense_switches));
  payload.emplace("reduction", Json(std::move(reduction)));
  Json::Object cache_payload;
  cache_payload.emplace("exact_hits", Json(cache.exact_hits));
  cache_payload.emplace("isomorphic_hits", Json(cache.isomorphic_hits));
  cache_payload.emplace("misses", Json(cache.misses));
  cache_payload.emplace("insertions", Json(cache.insertions));
  cache_payload.emplace("evictions", Json(cache.evictions));
  cache_payload.emplace("entries", Json(std::uint64_t{cache_.Size()}));
  payload.emplace("cache", Json(std::move(cache_payload)));
  return Json(std::move(payload));
}

Server::Job Server::PopLocked() {
  // Starvation bound first: once the oldest job has waited long enough it
  // wins over any cheaper newcomer, bounding the worst-case queueing delay
  // that plain shortest-job-first cannot.
  JobList::iterator pick = queue_.begin();
  const double oldest_wait = MillisSince(pick->ingest, Clock::now());
  if (options_.starvation_ms > 0 && oldest_wait < options_.starvation_ms) {
    pick = by_cost_.begin()->second;
  }
  by_cost_.erase(pick->cost_it);
  Job job = std::move(*pick);
  queue_.erase(pick);
  return job;
}

void Server::WorkerLoop() {
  SearchContext context;  // reused across every query this worker runs
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = PopLocked();
      ++running_;
    }
    const bool abandoned = RunJob(std::move(job), &context);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    drain_cv_.notify_all();
    // The watchdog answered this job and spawned a replacement worker
    // while we were quarantined; retire quietly to restore the pool size.
    if (abandoned) return;
  }
}

void Server::WatchdogLoop() {
  const auto poll = std::chrono::duration<double, std::milli>(
      std::max(1.0, options_.watchdog_poll_ms));
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, poll);
    if (stopping_) return;
    const Clock::time_point now = Clock::now();
    std::vector<std::uint64_t> stalled;
    for (auto& [serial, fly] : in_flight_) {
      if (fly.token->StopRequested()) {
        const std::uint64_t polls = fly.token->polls();
        if (!fly.stop_observed || polls != fly.polls_at_stop) {
          // First sighting of the trip, or the heartbeat advanced since —
          // the solver is still observing its token (unwinding, returning
          // its incumbent). (Re)start the stall window.
          fly.stop_observed = true;
          fly.stop_seen = now;
          fly.polls_at_stop = polls;
        } else if (MillisSince(fly.stop_seen, now) >=
                   options_.watchdog_stall_ms) {
          stalled.push_back(serial);
        }
      } else if (fly.has_deadline &&
                 MillisSince(fly.deadline, now) >=
                     options_.watchdog_stall_ms) {
        // Deadline backstop: the solver overshot by a full stall window
        // without its own poll catching it (stuck in non-polling code).
        // Trip the token on its behalf and start the stall clock.
        fly.token->RequestStop(StopCause::kDeadline);
        ++counters_.watchdog_deadline_trips;
        fly.stop_observed = true;
        fly.stop_seen = now;
        fly.polls_at_stop = fly.token->polls();
      }
    }
    for (const std::uint64_t serial : stalled) {
      const auto it = in_flight_.find(serial);
      if (it == in_flight_.end()) continue;
      InFlight fly = it->second;
      if (fly.answered->exchange(true)) continue;  // worker won the race
      in_flight_.erase(it);
      ++counters_.watchdog_abandoned;
      if (!fly.request_id.empty()) active_.erase(fly.request_id);
      // Replace the quarantined worker so pool capacity survives; the
      // zombie retires itself if it ever comes back (WorkerLoop checks
      // RunJob's return). Spawning under the lock is safe — Shutdown joins
      // this thread before it walks `workers_`.
      if (!stopping_) workers_.emplace_back([this] { WorkerLoop(); });
      Response response = ErrorResponse(
          fly.request_id,
          "watchdog: worker stopped observing its stop token; job "
          "abandoned");
      response.stop_cause = "watchdog";
      lock.unlock();
      fly.callback(response);
      lock.lock();
    }
  }
}

void Server::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void Server::FinishJob(const std::string& id) {
  if (id.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(id);
}

Response Server::CancelledResponse(const Job& job, double queue_ms) const {
  Response response;
  response.id = job.request.id;
  response.exact = false;
  response.stop_cause = StopCauseName(StopCause::kExternal);
  response.cache = job.cache_label;
  response.queue_ms = queue_ms;
  return response;
}

bool Server::RunJob(Job job, SearchContext* context) {
  const Clock::time_point start = Clock::now();
  const double queue_ms = MillisSince(job.ingest, start);

  // Register with the watchdog before anything that can stall or throw.
  const auto answered = std::make_shared<std::atomic<bool>>(false);
  std::uint64_t serial = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    serial = ++next_serial_;
    InFlight fly;
    fly.request_id = job.request.id;
    fly.token = job.token;
    fly.callback = job.callback;
    fly.answered = answered;
    fly.deadline = job.deadline;
    // A job that expired in the queue is answered below without a solve
    // (at most the greedy, bounded by its work cap): keep it off the
    // deadline backstop.
    fly.has_deadline = job.has_deadline && start < job.deadline;
    in_flight_.emplace(serial, std::move(fly));
  }

  // Exactly-once delivery: whoever latches `answered` first — this worker
  // or the watchdog — owns the callback. Returns true when the watchdog
  // won, i.e. this worker was quarantined and must retire.
  const auto deliver = [&](Response response) {
    const bool abandoned = answered->exchange(true);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_.erase(serial);
      if (abandoned) ++counters_.dropped_responses;
    }
    if (!abandoned) {
      // On abandon the watchdog already cleared `active_`; a same-id
      // resubmission may own that slot now, so only the winner touches it.
      FinishJob(job.request.id);
      job.callback(std::move(response));
    }
    return abandoned;
  };

  // Injected chaos: a worker that goes quiet mid-job (the scenario the
  // watchdog exists for).
  if (const std::uint64_t stall_ms = faults::StallMs("serve.worker_stall")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  // A token the watchdog's deadline backstop tripped during the stall
  // above is no cancel: the deadline lapsed, and the expiry branch below
  // answers it.
  const StopCause cause = job.token->cause();
  if (cause != StopCause::kNone && cause != StopCause::kDeadline) {
    Response response = CancelledResponse(job, queue_ms);
    response.stop_cause = StopCauseName(cause);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.cancelled;
    }
    return deliver(std::move(response));
  }

  Response response;
  response.id = job.request.id;
  response.cache = job.cache_label;
  response.queue_ms = queue_ms;

  // A deadline that expired while queued: answer right away instead of
  // burning a worker on a query nobody is waiting for — but carry a cheap
  // heuristic incumbent where the solver's contract allows one.
  const Clock::time_point solve_start = Clock::now();
  if (job.has_deadline && solve_start >= job.deadline) {
    response.exact = false;
    response.stop_cause = StopCauseName(StopCause::kDeadline);
    if (DegradesToGreedy(job.request.algo)) {
      // The greedy never polls the token but is bounded by its work cap.
      // Take the job off the watchdog: its deadline backstop would trip
      // the token, and its stall clock (running once a trip was seen)
      // would see no heartbeat and abandon a healthy worker.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        in_flight_.erase(serial);
      }
      const Biclique incumbent = HeuristicIncumbent(job.request.graph);
      response.size = incumbent.BalancedSize();
      response.left = incumbent.left;
      response.right = incumbent.right;
      response.degraded = true;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.expired_in_queue;
      if (response.degraded) ++counters_.degraded_answers;
    }
    return deliver(std::move(response));
  }

  SolverOptions options;
  if (job.has_deadline) {
    options.time_limit_seconds =
        std::chrono::duration<double>(job.deadline - solve_start).count();
  }
  options.stop_token = job.token;
  options.context = context;
  options.num_threads = job.request.threads > 0 ? job.request.threads
                                                : options_.default_threads;
  options.initial_bound = job.request.initial_bound;
  options.size_a = job.request.size_a;
  options.size_b = job.request.size_b;
  options.top_k = job.request.top_k;
  options.memory_budget_bytes =
      job.request.budget_mb > 0
          ? static_cast<std::uint64_t>(job.request.budget_mb) << 20
          : options_.memory_budget_bytes;
  if (job.warm) {
    options.initial_bound =
        std::max(options.initial_bound, job.warm_bound - 1);
  }

  MbbResult result;
  try {
    result = SolveAnytime(job.request.algo, job.request.graph, options);
    // A warm start raises the reporting bar to the cached isomorph's size.
    // An exact-but-empty answer then means the hint was too high (a 1-WL
    // hash collision, not a true isomorph) — redo the solve without it so
    // the answer stays exact. See docs/SERVING.md, "Cache semantics".
    // (A resource-exhausted degradation reports exact == false, so it
    // never takes this branch.)
    if (job.warm && result.exact && result.best.Empty() &&
        options.initial_bound > job.request.initial_bound) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.warm_fallbacks;
      }
      job.cache_label = "miss";
      response.cache = job.cache_label;
      options.initial_bound = job.request.initial_bound;
      result = SolveAnytime(job.request.algo, job.request.graph, options);
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.solver_faults;
    }
    return deliver(ErrorResponse(job.request.id,
                                 std::string("solver failed: ") + e.what()));
  }

  const bool exhausted =
      result.stats.stop_cause == StopCause::kResourceExhausted;
  response.size = result.best.BalancedSize();
  response.left = result.best.left;
  response.right = result.best.right;
  response.pool = result.pool;
  response.exact = result.exact;
  response.degraded = exhausted;
  response.stop_cause = StopCauseName(result.stats.stop_cause);
  response.recursions = result.stats.recursions;
  response.solve_ms = MillisSince(solve_start, Clock::now());

  // Only unconditioned exact answers are cacheable: a caller-supplied
  // initial bound censors the result, and an inexact one may be beatable.
  // A failed insert (injected or real) costs a future hit, never the
  // current answer.
  if (!job.algo_class.empty() && result.exact &&
      job.request.initial_bound == 0) {
    try {
      MBB_INJECT_FAULT("cache.insert", throw std::bad_alloc());
      cache_.Insert(job.request.graph, job.canonical_hash, job.exact_hash,
                    job.algo_class, result);
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.cache_insert_failures;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.solved;
    if (result.stats.stop_cause == StopCause::kExternal) ++counters_.cancelled;
    if (exhausted) {
      ++counters_.resource_exhausted;
      ++counters_.degraded_answers;
    }
    counters_.step1_vertices_removed += result.stats.step1_vertices_removed;
    counters_.step1_edges_removed += result.stats.step1_edges_removed;
    counters_.core_reduction_vertices_removed +=
        result.stats.core_reduction_vertices_removed;
    counters_.sparse_to_dense_switches +=
        result.stats.sparse_to_dense_switches;
  }
  return deliver(std::move(response));
}

}  // namespace mbb::serve
