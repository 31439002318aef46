#ifndef MBB_GRAPH_BIT_OPS_H_
#define MBB_GRAPH_BIT_OPS_H_

#include <cstddef>
#include <cstdint>

/// Word-level bitset kernels shared by `Bitset`, `BitSpan`/`BitRow`, and
/// `BitMatrix`. Every kernel operates on raw `uint64_t` words — callers
/// (the view layer) translate bit counts to word counts and guarantee the
/// zero-tail invariant (bits beyond the logical size of the last word are
/// zero), so no kernel ever masks.
///
/// Three layers:
///   - `bitops::scalar::*`  — portable reference loops, always compiled.
///   - `bitops::avx2::*`    — AVX2 implementations, compiled only when the
///                            build enables them (see `MBB_HAVE_AVX2` /
///                            the `MBB_DISABLE_SIMD` CMake option). The
///                            translation unit is built with `-mavx2`, so
///                            these must only be called after a CPU check.
///   - `bitops::X(...)`     — inline entry points: tiny inputs (<= 2
///                            words, the common case for the 24-64 vertex
///                            dense subgraphs of the sparse pipeline) are
///                            handled by an inlined scalar loop; larger
///                            inputs go through the runtime-dispatch table
///                            picked once from CPUID + policy.
///
/// The dispatch policy can be downgraded to scalar at runtime
/// (`SetDispatchPolicy(DispatchPolicy::kForceScalar)` or
/// `MBB_FORCE_SCALAR=1`) so tests and benches can cross-check both
/// backends in one binary. The environment override is read once at first
/// kernel use.
namespace mbb::bitops {

namespace detail {

/// The runtime-dispatched kernel set. One immutable instance per backend.
struct KernelTable {
  const char* name;
  std::size_t (*count)(const std::uint64_t*, std::size_t);
  std::size_t (*count_and)(const std::uint64_t*, const std::uint64_t*,
                           std::size_t);
  std::size_t (*count_and_not)(const std::uint64_t*, const std::uint64_t*,
                               std::size_t);
  void (*and_assign)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*and_not_assign)(std::uint64_t*, const std::uint64_t*, std::size_t);
  void (*and_into)(std::uint64_t*, const std::uint64_t*,
                   const std::uint64_t*, std::size_t);
  std::size_t (*and_count_into)(std::uint64_t*, const std::uint64_t*,
                                const std::uint64_t*, std::size_t);
  void (*and_not_into)(std::uint64_t*, const std::uint64_t*,
                       const std::uint64_t*, std::size_t);
};

/// The table selected by CPUID + policy; never null after first use.
const KernelTable& Active();

/// Inputs at or below this word count skip dispatch entirely: the inlined
/// scalar loop beats an indirect call for one- or two-word rows.
inline constexpr std::size_t kInlineWordLimit = 2;

}  // namespace detail

enum class DispatchPolicy {
  kAuto,         // AVX2 when the build + CPU allow it, else scalar
  kForceScalar,  // scalar kernels regardless of CPU support
};

/// Selects the dispatch backend for all subsequent kernel calls. Safe to
/// call at any point, but not while other threads are inside kernels.
void SetDispatchPolicy(DispatchPolicy policy);
DispatchPolicy GetDispatchPolicy();

/// True when the AVX2 backend was compiled into this binary.
bool SimdCompiledIn();

/// True when the AVX2 backend is compiled in AND the running CPU
/// supports it.
bool SimdAvailable();

/// Name of the backend the dispatch layer currently resolves to: "avx2"
/// or "scalar". Inputs of <= `kInlineWordLimit` words always use inline
/// scalar code regardless of this value.
const char* ActiveDispatchName();

// ---------------------------------------------------------------------------
// Scalar reference kernels (always available; used as the dispatch
// fallback and as the ground truth in cross-check tests).
// ---------------------------------------------------------------------------
namespace scalar {
std::size_t Count(const std::uint64_t* a, std::size_t words);
std::size_t CountAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t words);
std::size_t CountAndNot(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words);
void AndAssign(std::uint64_t* dst, const std::uint64_t* src,
               std::size_t words);
void AndNotAssign(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t words);
void AndInto(std::uint64_t* dst, const std::uint64_t* a,
             const std::uint64_t* b, std::size_t words);
std::size_t AndCountInto(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t words);
void AndNotInto(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t words);
}  // namespace scalar

#ifdef MBB_HAVE_AVX2
// ---------------------------------------------------------------------------
// AVX2 kernels. Only call when `SimdAvailable()` — the dispatch layer
// takes care of that; tests calling these directly must check first.
// ---------------------------------------------------------------------------
namespace avx2 {
std::size_t Count(const std::uint64_t* a, std::size_t words);
std::size_t CountAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t words);
std::size_t CountAndNot(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t words);
void AndAssign(std::uint64_t* dst, const std::uint64_t* src,
               std::size_t words);
void AndNotAssign(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t words);
void AndInto(std::uint64_t* dst, const std::uint64_t* a,
             const std::uint64_t* b, std::size_t words);
std::size_t AndCountInto(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t words);
void AndNotInto(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t words);
}  // namespace avx2
#endif  // MBB_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatching entry points. `dst` may alias `a` (the in-place forms the
// searches use) but must not partially overlap.
// ---------------------------------------------------------------------------

/// Population count of `words` words.
inline std::size_t Count(const std::uint64_t* a, std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < words; ++i) {
      total += static_cast<std::size_t>(__builtin_popcountll(a[i]));
    }
    return total;
  }
  return detail::Active().count(a, words);
}

/// `popcount(a & b)` without materializing the intersection.
inline std::size_t CountAnd(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < words; ++i) {
      total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
    }
    return total;
  }
  return detail::Active().count_and(a, b, words);
}

/// `popcount(a & ~b)` without materializing the difference.
inline std::size_t CountAndNot(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < words; ++i) {
      total += static_cast<std::size_t>(__builtin_popcountll(a[i] & ~b[i]));
    }
    return total;
  }
  return detail::Active().count_and_not(a, b, words);
}

/// `dst &= src`.
inline void AndAssign(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    for (std::size_t i = 0; i < words; ++i) dst[i] &= src[i];
    return;
  }
  detail::Active().and_assign(dst, src, words);
}

/// `dst &= ~src`.
inline void AndNotAssign(std::uint64_t* dst, const std::uint64_t* src,
                         std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    for (std::size_t i = 0; i < words; ++i) dst[i] &= ~src[i];
    return;
  }
  detail::Active().and_not_assign(dst, src, words);
}

/// Fused intersect-into: `dst = a & b` in one sweep (the searches used to
/// do copy + and-assign, i.e. two passes over dst).
inline void AndInto(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    for (std::size_t i = 0; i < words; ++i) dst[i] = a[i] & b[i];
    return;
  }
  detail::Active().and_into(dst, a, b, words);
}

/// Fused intersect-into-with-count: `dst = a & b`, returns `popcount(dst)`
/// from the same sweep. The branch-and-bound inner loops use this to
/// refine a candidate frame and learn its new size without a second pass.
inline std::size_t AndCountInto(std::uint64_t* dst, const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < words; ++i) {
      dst[i] = a[i] & b[i];
      total += static_cast<std::size_t>(__builtin_popcountll(dst[i]));
    }
    return total;
  }
  return detail::Active().and_count_into(dst, a, b, words);
}

/// Fused difference-into: `dst = a & ~b` in one sweep (the König-bound
/// "missing neighbours" computation used to copy then and-not).
inline void AndNotInto(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t words) {
  if (words <= detail::kInlineWordLimit) {
    for (std::size_t i = 0; i < words; ++i) dst[i] = a[i] & ~b[i];
    return;
  }
  detail::Active().and_not_into(dst, a, b, words);
}

}  // namespace mbb::bitops

#endif  // MBB_GRAPH_BIT_OPS_H_
