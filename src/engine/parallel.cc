#include "engine/parallel.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "engine/budget.h"
#include "engine/faults.h"

namespace mbb {

std::size_t EffectiveThreadCount(std::size_t requested,
                                 std::size_t num_items) {
  std::size_t count = requested;
  if (count == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    count = hardware == 0 ? 1 : hardware;
  }
  if (count > num_items) count = num_items;
  return count == 0 ? 1 : count;
}

void ParallelFor(std::size_t num_threads, std::size_t num_items,
                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (num_items == 0) return;
  StealScheduler scheduler(EffectiveThreadCount(num_threads, num_items));
  std::atomic<std::size_t> next{0};
  const StealScheduler::Task claim_loop = [&](std::size_t worker) {
    for (std::size_t item = next.fetch_add(1, std::memory_order_relaxed);
         item < num_items;
         item = next.fetch_add(1, std::memory_order_relaxed)) {
      MBB_INJECT_FAULT("worker.task",
                       throw std::runtime_error("injected fault: worker.task"));
      fn(worker, item);
    }
  };
  for (std::size_t worker = 0; worker < scheduler.num_workers(); ++worker) {
    scheduler.Spawn(worker, claim_loop);
  }
  scheduler.Run();
}

// ---------------------------------------------------------------------------
// StealDeque
// ---------------------------------------------------------------------------

void StealDeque::PushBottom(Task task) {
  const std::lock_guard<std::mutex> lock(mutex_);
  tasks_.push_back(std::move(task));
}

bool StealDeque::PopBottom(Task& out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.back());
  tasks_.pop_back();
  return true;
}

bool StealDeque::StealTop(Task& out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tasks_.empty()) return false;
  out = std::move(tasks_.front());
  tasks_.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// StealScheduler
// ---------------------------------------------------------------------------

StealScheduler::StealScheduler(std::size_t num_workers)
    : deques_(num_workers == 0 ? 1 : num_workers) {}

void StealScheduler::Spawn(std::size_t worker, Task task) {
  // Increment before publishing the task: a worker observing
  // `outstanding_ == 0` can then be certain no task exists anywhere.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  deques_[worker].PushBottom(std::move(task));
}

void StealScheduler::Run() {
  // The caller's memory budget follows the work onto every worker: one
  // solve, one meter, regardless of fan-out.
  const std::shared_ptr<MemoryBudget> budget = MemoryBudget::Current();
  std::vector<std::thread> threads;
  threads.reserve(deques_.size() - 1);
  for (std::size_t worker = 1; worker < deques_.size(); ++worker) {
    // A worker that fails to start ends the start-up; the rest run without
    // it. Its seeded deque still drains: thieves probe every deque.
    try {
      MBB_INJECT_FAULT("worker.start",
                       throw std::system_error(
                           std::make_error_code(
                               std::errc::resource_unavailable_try_again),
                           "injected fault: worker.start"));
      threads.emplace_back([this, worker, budget] {
        const MemoryBudgetScope scope(budget);
        WorkerLoop(worker);
      });
    } catch (const std::system_error&) {
      break;
    }
  }
  WorkerLoop(0);  // the caller is worker 0
  for (std::thread& thread : threads) thread.join();
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void StealScheduler::WorkerLoop(std::size_t worker) {
  // Per-worker xorshift state for victim selection; seeded by worker index
  // only, so a given worker probes victims in a reproducible order.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (worker + 1);
  Task task;
  // Whether this worker is counted in `idle_`: raised on the first empty
  // look, lowered as soon as it finds a task or leaves.
  bool idle = false;
  const auto set_idle = [this, &idle](bool now) {
    if (idle == now) return;
    idle = now;
    if (now) {
      idle_.fetch_add(1, std::memory_order_relaxed);
    } else {
      idle_.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  while (true) {
    if (deques_[worker].PopBottom(task)) {
      set_idle(false);
      Execute(worker, task);
      continue;
    }
    if (TrySteal(worker, rng, task)) {
      set_idle(false);
      Execute(worker, task);
      continue;
    }
    set_idle(true);
    // Nothing local, nothing stealable. `outstanding_` counts spawned but
    // unfinished tasks, and is incremented before a task becomes visible,
    // so zero here means the whole task graph is done.
    if (outstanding_.load(std::memory_order_acquire) == 0) {
      set_idle(false);
      return;
    }
    std::this_thread::yield();
  }
}

bool StealScheduler::TrySteal(std::size_t thief, std::uint64_t& rng,
                              Task& out) {
  const std::size_t n = deques_.size();
  if (n <= 1) return false;
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  const std::size_t start = static_cast<std::size_t>(rng % n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t victim = (start + i) % n;
    if (victim == thief) continue;
    if (deques_[victim].StealTop(out)) return true;
  }
  return false;
}

void StealScheduler::Execute(std::size_t worker, Task& task) {
  try {
    task(worker);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (first_error_ == nullptr) first_error_ = std::current_exception();
  }
  task = nullptr;  // release captured state before signalling completion
  outstanding_.fetch_sub(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// FleetStop
// ---------------------------------------------------------------------------

FleetStop::FleetStop(SearchLimits& limits, std::size_t num_workers)
    : shards_(num_workers) {
  if (limits.stop_token == nullptr) {
    limits.stop_token = std::make_shared<StopToken>();
  }
  token_ = limits.stop_token;
}

bool FleetStop::SkipIfStopped(std::size_t worker) {
  if (!token_->StopRequested()) return false;
  ++shards_[worker].subgraphs_skipped;
  inexact_.store(true, std::memory_order_relaxed);
  return true;
}

void FleetStop::Report(const MbbResult& result) {
  if (result.exact) return;
  inexact_.store(true, std::memory_order_relaxed);
  token_->RequestStop(result.stats.stop_cause == StopCause::kNone
                          ? StopCause::kExternal
                          : result.stats.stop_cause);
}

bool FleetStop::Finish(SearchStats& out) const {
  for (const SearchStats& shard : shards_) out.Merge(shard);
  if (out.stop_cause == StopCause::kNone) out.stop_cause = token_->cause();
  const bool exact = !inexact_.load(std::memory_order_relaxed);
  if (!exact) out.timed_out = true;
  return exact;
}

}  // namespace mbb
