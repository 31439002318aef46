#include "engine/search_context.h"

#include <algorithm>
#include <new>

#include "engine/faults.h"

namespace mbb {

void SearchContext::PrepareFrames(std::size_t max_bits) {
  const std::size_t needed =
      std::max<std::size_t>(BitMatrix::StrideWords(max_bits), 1);
  // Sized independently of the frame stride: a context whose stride was
  // fixed by an unprepared Frame() call still needs its matching row.
  if (needed > unvisited_arena_.stride_words()) {
    unvisited_arena_ = BitMatrix(1, needed * 64);
    matching_.unvisited = unvisited_arena_.EmptyRow(0);
  }
  if (needed <= stride_words_) return;
  // Re-carve the pool at the wider stride. Safe only between searches:
  // existing BranchFrame references die with the slabs backing them.
  frames_.clear();
  slabs_.clear();
  stride_words_ = needed;
}

void SearchContext::AddFrame() {
  // A context used without PrepareFrames keeps the old fixed layout: one
  // cache line (512 bits) per row.
  if (stride_words_ == 0) stride_words_ = BitMatrix::kStrideWordMultiple;
  const std::size_t level = frames_.size();
  const std::size_t slab = level / kLevelsPerSlab;
  if (slab >= slabs_.size()) {
    MBB_INJECT_FAULT("alloc.search_context", throw std::bad_alloc());
    slabs_.emplace_back(2 * kLevelsPerSlab, stride_words_ * 64);
  }
  const std::size_t row = 2 * (level % kLevelsPerSlab);
  frames_.push_back(
      {slabs_[slab].EmptyRow(row), slabs_[slab].EmptyRow(row + 1)});
}

}  // namespace mbb
