#ifndef MBB_ENGINE_BUDGET_H_
#define MBB_ENGINE_BUDGET_H_

/// Per-solve memory byte budgets, tracked at the arena layer.
///
/// `SolverRegistry::Solve` installs a `MemoryBudgetScope` for the calling
/// thread when `SolverOptions::memory_budget_bytes` is set; `BitMatrix`
/// and `CsrScratch` charge their allocations against the current budget
/// and release on destruction. Exceeding the budget throws
/// `ResourceExhaustedError` (a `std::bad_alloc`), which unwinds the solve
/// cleanly — arenas release their charges on the way out — and is turned
/// into a degraded `resource_exhausted` result by `SolveAnytime` or the
/// serve layer.
///
/// Budgets follow work across threads: `StealScheduler::Run` — the one
/// executor, under both `ParallelFor` scans and denseMBB subtree forks —
/// captures the calling thread's budget and installs it in every worker it
/// starts, so a parallel solve shares one budget instead of each worker
/// getting an unmetered heap.

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <string>

namespace mbb {

/// Thrown when a charge would push usage past the budget limit. Derives
/// from `bad_alloc` so generic out-of-memory handling catches both real
/// and budgeted exhaustion.
class ResourceExhaustedError : public std::bad_alloc {
 public:
  ResourceExhaustedError(std::uint64_t requested_bytes,
                         std::uint64_t used_bytes, std::uint64_t limit_bytes);
  const char* what() const noexcept override { return message_.c_str(); }

  std::uint64_t requested_bytes() const { return requested_bytes_; }
  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t limit_bytes() const { return limit_bytes_; }

 private:
  std::uint64_t requested_bytes_;
  std::uint64_t used_bytes_;
  std::uint64_t limit_bytes_;
  std::string message_;
};

/// A shared byte meter. Arenas hold a `shared_ptr` to the budget they
/// charged so release stays safe even when the arena (e.g. a pooled
/// `SearchContext` slab) outlives the solve that created it.
class MemoryBudget {
 public:
  explicit MemoryBudget(std::uint64_t limit_bytes) : limit_(limit_bytes) {}

  /// Adds `bytes` to usage; throws `ResourceExhaustedError` (leaving usage
  /// unchanged) when the result would exceed the limit.
  void Charge(std::uint64_t bytes);

  void Release(std::uint64_t bytes) noexcept;

  std::uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  std::uint64_t limit() const { return limit_; }
  /// True once any charge has been refused.
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// The budget installed on this thread (null = unlimited).
  static std::shared_ptr<MemoryBudget> Current();

 private:
  friend class MemoryBudgetScope;

  const std::uint64_t limit_;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<bool> exhausted_{false};
};

/// RAII installer: makes `budget` the current budget for this thread,
/// restoring the previous one on destruction. Passing null installs
/// "unlimited" (useful for carving a metering-free region out of a
/// budgeted solve).
class MemoryBudgetScope {
 public:
  explicit MemoryBudgetScope(std::shared_ptr<MemoryBudget> budget);
  ~MemoryBudgetScope();
  MemoryBudgetScope(const MemoryBudgetScope&) = delete;
  MemoryBudgetScope& operator=(const MemoryBudgetScope&) = delete;

 private:
  std::shared_ptr<MemoryBudget> previous_;
};

}  // namespace mbb

#endif  // MBB_ENGINE_BUDGET_H_
