#include "graph/bit_ops.h"

#include <atomic>
#include <cstdlib>

namespace mbb::bitops {

namespace scalar {

std::size_t Count(const std::uint64_t* a, std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[i]));
  }
  return total;
}

std::size_t CountAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

void AndInto(std::uint64_t* dst, const std::uint64_t* a,
             const std::uint64_t* b, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] = a[i] & b[i];
}

std::size_t AndCountInto(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t words) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    dst[i] = a[i] & b[i];
    total += static_cast<std::size_t>(__builtin_popcountll(dst[i]));
  }
  return total;
}

void AndNotInto(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] = a[i] & ~b[i];
}

}  // namespace scalar

namespace detail {

namespace {

constexpr KernelTable kScalarTable = {
    "scalar",        scalar::Count,        scalar::CountAnd,
    scalar::AndInto, scalar::AndCountInto, scalar::AndNotInto,
};

#ifdef MBB_HAVE_AVX2
constexpr KernelTable kAvx2Table = {
    "avx2",        avx2::Count,        avx2::CountAnd,
    avx2::AndInto, avx2::AndCountInto, avx2::AndNotInto,
};
#endif

bool CpuSupportsAvx2() {
#ifdef MBB_HAVE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

/// The table `kAuto` resolves to, decided once (CPUID + the
/// MBB_FORCE_SCALAR environment override read at first use).
const KernelTable& AutoTable() {
  static const KernelTable& table = []() -> const KernelTable& {
    if (EnvFlagSet("MBB_FORCE_SCALAR")) return kScalarTable;
#ifdef MBB_HAVE_AVX2
    if (CpuSupportsAvx2()) return kAvx2Table;
#endif
    return kScalarTable;
  }();
  return table;
}

std::atomic<DispatchPolicy> g_policy{DispatchPolicy::kAuto};

}  // namespace

const KernelTable& Active() {
  if (g_policy.load(std::memory_order_relaxed) ==
      DispatchPolicy::kForceScalar) {
    return kScalarTable;
  }
  return AutoTable();
}

}  // namespace detail

void SetDispatchPolicy(DispatchPolicy policy) {
  detail::g_policy.store(policy, std::memory_order_relaxed);
}

DispatchPolicy GetDispatchPolicy() {
  return detail::g_policy.load(std::memory_order_relaxed);
}

bool SimdCompiledIn() {
#ifdef MBB_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

bool SimdAvailable() {
  return SimdCompiledIn() && detail::CpuSupportsAvx2();
}

const char* ActiveDispatchName() { return detail::Active().name; }

}  // namespace mbb::bitops
