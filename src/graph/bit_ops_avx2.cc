/// AVX2 backend for the bit_ops kernel table. This translation unit is the
/// only one compiled with `-mavx2` (plus `-mpopcnt` for the word tails), so
/// nothing here may be called without a prior CPUID check — the dispatch
/// layer in bit_ops.cc guarantees that.
///
/// Popcounts use the Muła nibble-lookup: split each byte into two 4-bit
/// indices into a per-lane popcount table, add, then horizontally sum with
/// `vpsadbw`. All loads/stores are unaligned (`loadu`/`storeu`) because
/// not every row starts on a 32-byte boundary: `BitMatrix` rows of 1 or 2
/// words use a tight 8- or 16-byte stride. Wide rows are 64-byte aligned,
/// which the unaligned instructions exploit for free on every AVX2-era
/// core.

#ifdef MBB_HAVE_AVX2

#include <immintrin.h>

#include "graph/bit_ops.h"

namespace mbb::bitops::avx2 {

namespace {

/// Per-64-bit-lane popcount of a 256-bit vector; lane sums land in the
/// four u64 lanes of the result.
inline __m256i PopCount256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                      _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

inline std::size_t HorizontalSum(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::size_t>(_mm_extract_epi64(sum, 1));
}

}  // namespace

std::size_t Count(const std::uint64_t* a, std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    acc = _mm256_add_epi64(acc, PopCount256(v));
  }
  std::size_t total = HorizontalSum(acc);
  for (; i < words; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[i]));
  }
  return total;
}

std::size_t CountAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, PopCount256(_mm256_and_si256(va, vb)));
  }
  std::size_t total = HorizontalSum(acc);
  for (; i < words; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

void AndInto(std::uint64_t* dst, const std::uint64_t* a,
             const std::uint64_t* b, std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < words; ++i) dst[i] = a[i] & b[i];
}

std::size_t AndCountInto(std::uint64_t* dst, const std::uint64_t* a,
                         const std::uint64_t* b, std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(acc, PopCount256(v));
  }
  std::size_t total = HorizontalSum(acc);
  for (; i < words; ++i) {
    dst[i] = a[i] & b[i];
    total += static_cast<std::size_t>(__builtin_popcountll(dst[i]));
  }
  return total;
}

void AndNotInto(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(vb, va));
  }
  for (; i < words; ++i) dst[i] = a[i] & ~b[i];
}

}  // namespace mbb::bitops::avx2

#endif  // MBB_HAVE_AVX2
