#ifndef MBB_GRAPH_BIT_SPAN_H_
#define MBB_GRAPH_BIT_SPAN_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/bit_ops.h"

namespace mbb {

/// Words needed to hold `num_bits` bits.
constexpr std::size_t BitWords(std::size_t num_bits) {
  return (num_bits + 63) >> 6;
}

/// Software-prefetches `count` words for reading, one hint per cache
/// line. Row sweeps over a `BitMatrix` call this on the *next* row while
/// the kernel crunches the current one: the rows sit a fixed stride
/// apart, but the access pattern — a short burst per row with a call
/// boundary in between — is one the hardware stride prefetcher loses
/// track of once the arena outgrows L2.
inline void PrefetchWords(const std::uint64_t* words, std::size_t count) {
#if defined(__GNUC__) || defined(__clang__)
  for (std::size_t w = 0; w < count; w += 8) {
    __builtin_prefetch(words + w, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)words;
  (void)count;
#endif
}

/// Non-owning read-only view over a run of bitset words. `BitMatrix` is
/// the one owner of bitset words; `BitSpan` reads them and `BitRow`
/// writes them. Adjacency rows, candidate frames, task snapshots and
/// scratch rows all surface as spans, so the inner loops are agnostic to
/// which arena the words live in.
///
/// Invariant (kept by every `BitRow` write): bits beyond `size()` in the
/// final word are zero, so counts never mask.
class BitSpan {
 public:
  BitSpan() = default;
  BitSpan(const std::uint64_t* words, std::size_t num_bits)
      : words_(words), num_bits_(num_bits) {}

  std::size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }
  const std::uint64_t* words() const { return words_; }
  std::size_t word_count() const { return BitWords(num_bits_); }

  bool Test(std::size_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](std::size_t i) const { return Test(i); }

  std::size_t Count() const { return bitops::Count(words_, word_count()); }

  /// Hints the span's words into cache (see `PrefetchWords`).
  void Prefetch() const { PrefetchWords(words_, word_count()); }

  bool Any() const {
    for (std::size_t w = 0, n = word_count(); w < n; ++w) {
      if (words_[w] != 0) return true;
    }
    return false;
  }
  bool None() const { return !Any(); }

  /// Index of the lowest set bit, or -1 when none.
  int FindFirst() const {
    for (std::size_t w = 0, n = word_count(); w < n; ++w) {
      if (words_[w] != 0) {
        return static_cast<int>((w << 6) + __builtin_ctzll(words_[w]));
      }
    }
    return -1;
  }

  /// Index of the lowest set bit strictly greater than `i`, or -1 when
  /// none. Safe for any `i` including SIZE_MAX (a sign-converted -1
  /// sentinel terminates instead of wrapping to bit 0).
  int FindNext(std::size_t i) const {
    ++i;
    if (i == 0 || i >= num_bits_) return -1;
    std::size_t w = i >> 6;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (i & 63));
    const std::size_t n = word_count();
    while (true) {
      if (bits != 0) {
        return static_cast<int>((w << 6) + __builtin_ctzll(bits));
      }
      if (++w >= n) return -1;
      bits = words_[w];
    }
  }

  /// `|this ∩ other|`. Preconditions: `size() == other.size()`.
  std::size_t CountAnd(BitSpan other) const {
    assert(num_bits_ == other.num_bits_);
    return bitops::CountAnd(words_, other.words_, word_count());
  }

  /// Semantic equality: same size, same bits.
  bool ContentEquals(BitSpan other) const {
    if (num_bits_ != other.num_bits_) return false;
    for (std::size_t w = 0, n = word_count(); w < n; ++w) {
      if (words_[w] != other.words_[w]) return false;
    }
    return true;
  }

  /// Calls `fn(i)` for every set bit `i` in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t w = 0, n = word_count(); w < n; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<std::size_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
  }

  /// Materializes set bits as indices, in increasing order.
  std::vector<std::uint32_t> ToVector() const {
    std::vector<std::uint32_t> out;
    out.reserve(Count());
    ForEach(
        [&out](std::size_t i) { out.push_back(static_cast<std::uint32_t>(i)); });
    return out;
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t num_bits_ = 0;
};

/// Non-owning mutable view over a fixed-capacity run of bitset words —
/// a `BitMatrix` row, whether an adjacency row, a pooled `SearchContext`
/// candidate frame, a forked task's snapshot or a scratch row. The
/// logical size can move anywhere within the capacity (`Resize`,
/// `CopyFrom`), which is what lets basicBB's role-swapping recursion reuse
/// one frame for candidate sets of either side.
///
/// A `BitRow` never reallocates; the owner of the words controls their
/// lifetime. Copying a `BitRow` copies the view, not the bits — use
/// `CopyFrom` for bit copies.
class BitRow {
 public:
  BitRow() = default;
  BitRow(std::uint64_t* words, std::size_t num_bits,
         std::size_t capacity_words)
      : words_(words), num_bits_(num_bits), capacity_words_(capacity_words) {
    assert(BitWords(num_bits) <= capacity_words);
  }

  operator BitSpan() const { return BitSpan(words_, num_bits_); }
  BitSpan Span() const { return BitSpan(words_, num_bits_); }

  std::size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }
  std::size_t capacity_words() const { return capacity_words_; }
  std::uint64_t* words() { return words_; }
  const std::uint64_t* words() const { return words_; }
  std::size_t word_count() const { return BitWords(num_bits_); }

  bool Test(std::size_t i) const { return Span().Test(i); }
  bool operator[](std::size_t i) const { return Test(i); }
  std::size_t Count() const { return Span().Count(); }
  bool Any() const { return Span().Any(); }
  bool None() const { return Span().None(); }
  int FindFirst() const { return Span().FindFirst(); }
  int FindNext(std::size_t i) const { return Span().FindNext(i); }
  std::size_t CountAnd(BitSpan other) const { return Span().CountAnd(other); }
  bool ContentEquals(BitSpan other) const {
    return Span().ContentEquals(other);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Span().ForEach(static_cast<Fn&&>(fn));
  }
  std::vector<std::uint32_t> ToVector() const { return Span().ToVector(); }

  void Set(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void Reset(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void Assign(std::size_t i, bool value) { value ? Set(i) : Reset(i); }

  void SetAll() {
    std::memset(words_, 0xff, word_count() * sizeof(std::uint64_t));
    ClearTail();
  }
  void ResetAll() {
    std::memset(words_, 0, word_count() * sizeof(std::uint64_t));
  }

  /// Moves the logical size within the capacity, preserving existing bits;
  /// bits added by growth are set to `value`, and a shrink zeroes the
  /// dropped bits of the new final word.
  void Resize(std::size_t num_bits, bool value = false) {
    assert(BitWords(num_bits) <= capacity_words_);
    const std::size_t old_bits = num_bits_;
    const std::size_t old_words = BitWords(old_bits);
    const std::size_t new_words = BitWords(num_bits);
    num_bits_ = num_bits;
    if (num_bits <= old_bits) {
      ClearTail();
      return;
    }
    if (value) {
      const std::size_t used = old_bits & 63;
      if (used != 0) words_[old_words - 1] |= ~std::uint64_t{0} << used;
      if (new_words > old_words) {
        std::memset(words_ + old_words, 0xff,
                    (new_words - old_words) * sizeof(std::uint64_t));
      }
    } else if (new_words > old_words) {
      // The old tail bits are already zero by the invariant; only the
      // newly exposed words need clearing (they may hold stale frame data).
      std::memset(words_ + old_words, 0,
                  (new_words - old_words) * sizeof(std::uint64_t));
    }
    ClearTail();
  }

  /// Deep copy: adopts `src`'s size and bits. The capacity must fit.
  void CopyFrom(BitSpan src) {
    assert(BitWords(src.size()) <= capacity_words_);
    num_bits_ = src.size();
    std::memcpy(words_, src.words(), word_count() * sizeof(std::uint64_t));
  }

  /// Fused `*this &= other` returning the popcount of the result in the
  /// same sweep — the inclusion-branch kernel of the dense searches.
  std::size_t AndCountAssign(BitSpan other) {
    assert(num_bits_ == other.size());
    return bitops::AndCountInto(words_, words_, other.words(), word_count());
  }

  /// Fused `*this = a & b` (sizes must match; capacity must fit).
  void AssignAnd(BitSpan a, BitSpan b) {
    assert(a.size() == b.size());
    assert(BitWords(a.size()) <= capacity_words_);
    num_bits_ = a.size();
    bitops::AndInto(words_, a.words(), b.words(), word_count());
  }

  /// Fused `*this = a & b` returning the popcount of the result.
  std::size_t AssignAndCount(BitSpan a, BitSpan b) {
    assert(a.size() == b.size());
    assert(BitWords(a.size()) <= capacity_words_);
    num_bits_ = a.size();
    return bitops::AndCountInto(words_, a.words(), b.words(), word_count());
  }

  /// Fused `*this = a & ~b`.
  void AssignAndNot(BitSpan a, BitSpan b) {
    assert(a.size() == b.size());
    assert(BitWords(a.size()) <= capacity_words_);
    num_bits_ = a.size();
    bitops::AndNotInto(words_, a.words(), b.words(), word_count());
  }

 private:
  // Zeroes the bits beyond num_bits_ in the final word.
  void ClearTail() {
    const std::size_t used = num_bits_ & 63;
    if (used != 0) {
      words_[word_count() - 1] &= (std::uint64_t{1} << used) - 1;
    }
  }

  std::uint64_t* words_ = nullptr;
  std::size_t num_bits_ = 0;
  std::size_t capacity_words_ = 0;
};

}  // namespace mbb

#endif  // MBB_GRAPH_BIT_SPAN_H_
