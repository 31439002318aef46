#ifndef MBB_ENGINE_SEARCH_CONTEXT_H_
#define MBB_ENGINE_SEARCH_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/bit_matrix.h"

namespace mbb {

/// Pooled scratch memory for the branch-and-bound searches.
///
/// The searchers (`basicBB`, `denseMBB`, `sizecon`, the bridge/verify
/// pipeline) used to copy their candidate sets into fresh heap allocations
/// at every branch node, which dominated the cost of shallow nodes on small
/// subgraphs. A `SearchContext` keeps one reusable candidate-set frame per
/// recursion nesting level plus the auxiliary vectors of the König
/// (complement-matching) bound, so a branch step degrades into word copies
/// over memory that is already allocated and cache-resident.
///
/// Frame storage is carved out of `BitMatrix` slab arenas
/// (`kLevelsPerSlab` levels x 2 rows per slab, one cache-line-aligned
/// allocation each), so the candidate sets of adjacent recursion levels —
/// exactly the ones a branch step copies between — sit at a fixed stride
/// in the same allocation instead of scattered across the heap. The
/// `BranchFrame` views live in a `std::deque` and the slabs' buffers never
/// move, so growing the pool never invalidates the views or word pointers
/// held by outer recursion levels.
///
/// One context can be reused across any number of searches — the sparse
/// pipeline runs every anchored verification search through a single
/// context, and a registry solver (`MbbSolver`) typically owns one for its
/// whole `Solve` call. Contexts are cheap to default-construct, so entry
/// points that receive `nullptr` simply build a transient one.
///
/// Not thread-safe: one context per concurrent search.
class SearchContext {
 public:
  /// Candidate-set scratch for one recursion nesting level. `ca`/`cb`
  /// mirror the two candidate sides; their logical sizes are whatever the
  /// last user at this level assigned (each row's capacity is the frame
  /// stride, see `PrepareFrames`).
  struct BranchFrame {
    BitRow ca;
    BitRow cb;
  };

  /// Scratch for denseMBB's complement-matching (König) bound, which runs
  /// Kuhn's augmenting paths on the candidate bitsets: the matched left
  /// vertex of each right vertex (-1 when free), the right vertices
  /// matched this round (reset on exit), and the row of right candidates
  /// the current augmenting search has not visited (frame-wide, sized by
  /// `PrepareFrames`).
  struct MatchingScratch {
    std::vector<std::int32_t> match_of_right;
    std::vector<VertexId> touched_right;
    BitRow unvisited;
  };

  /// Levels per slab allocation. 16 levels x 2 rows x the stride — deep
  /// searches chain slabs; the buffers never move once allocated.
  static constexpr std::size_t kLevelsPerSlab = 16;

  SearchContext() = default;
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  /// Ensures every frame row — and the matching scratch's `unvisited` row —
  /// can hold at least `max_bits` bits. Search entry points call this with
  /// `max(num_left, num_right)` before taking `Frame(0)`. Growing the
  /// stride discards existing frames and slabs, so it must only be called
  /// between searches, never while frames are live. Shrinking never
  /// happens — a context reused across differently sized subgraphs keeps
  /// the largest stride seen.
  void PrepareFrames(std::size_t max_bits);

  /// The scratch frame for recursion nesting level `level` (0-based).
  /// Created on first use; keeps its capacity for the context's lifetime
  /// (until a growing `PrepareFrames` call re-carves the pool).
  BranchFrame& Frame(std::size_t level) {
    while (frames_.size() <= level) AddFrame();
    return frames_[level];
  }

  MatchingScratch& matching() { return matching_; }

  /// Reusable score/index vector (per-vertex degree scores in bridgeMBB).
  std::vector<std::uint32_t>& ScoreScratch() { return score_scratch_; }

  /// Number of frames materialized so far (diagnostics / tests).
  std::size_t FrameCount() const { return frames_.size(); }

  /// Per-row frame capacity, in bits (diagnostics / tests). Zero until the
  /// stride is fixed by `PrepareFrames` or the first `Frame` call.
  std::size_t FrameCapacityBits() const { return stride_words_ * 64; }

 private:
  void AddFrame();

  // Frame stride in words. Zero means "not decided yet": the first
  // PrepareFrames call adopts the adaptive BitMatrix stride for its
  // subgraph width (tight strides for sub-4-word rows), and a context
  // used without PrepareFrames falls back to 8 words = 512 bits — one
  // cache line per row, covering every vertex-centred subgraph of the
  // sparse pipeline — on its first Frame call.
  std::size_t stride_words_ = 0;
  std::vector<BitMatrix> slabs_;
  std::deque<BranchFrame> frames_;
  // Backs `matching_.unvisited`; grown by PrepareFrames, never shrunk.
  BitMatrix unvisited_arena_;
  MatchingScratch matching_;
  std::vector<std::uint32_t> score_scratch_;
};

}  // namespace mbb

#endif  // MBB_ENGINE_SEARCH_CONTEXT_H_
