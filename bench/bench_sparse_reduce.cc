/// Measures the sparse-first reductions against dense bit rows on a
/// low-density surrogate (the regime the representation switch exists
/// for):
///
///   step1  whole-graph (k+1)-core reduction — CsrScratch peel + O(|E|)
///          compaction vs a dense bit-row peel (build bit rows, peel by
///          popcount, re-extract).
///   step2  per-centre k-core reduction over the bidegeneracy scan —
///          CsrScratch::LoadSubgraph + PeelToCore vs keeping the whole
///          reduced graph as full-width bit rows and peeling behind a
///          membership mask (no representation switch).
///
/// Both variants must produce identical survivor/edge counts; the bench
/// fails on any mismatch.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "graph/bit_ops.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "order/vertex_centered.h"

namespace {

using namespace mbb;

/// Outcome of one reduction variant: survivors + live edges (for the
/// cross-variant identity check) and the measured wall time.
struct ReduceRun {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  double seconds = 0.0;
};

/// Step-1 on the CSR substrate: load, queue-peel, compact.
ReduceRun Step1Csr(const BipartiteGraph& g, std::uint32_t k) {
  CsrScratch scratch;
  WallTimer timer;
  scratch.Load(g);
  scratch.PeelToCore(k);
  const InducedSubgraph reduced = scratch.Compact();
  ReduceRun run;
  run.seconds = timer.Seconds();
  run.vertices = reduced.graph.NumVertices();
  run.edges = reduced.graph.num_edges();
  return run;
}

/// Step-1 on dense bit rows: materialise one bitset row per vertex, peel by
/// scanning rows, then re-extract the surviving edges. This is what "just
/// use the BitMatrix form everywhere" costs on a sparse graph — the O(n^2)
/// row footprint dominates the O(|E|) of real work.
ReduceRun Step1DenseRows(const BipartiteGraph& g, std::uint32_t k) {
  WallTimer timer;
  const std::uint32_t n[2] = {g.num_left(), g.num_right()};
  const std::size_t words[2] = {(n[1] + 63) / 64, (n[0] + 63) / 64};
  std::vector<std::uint64_t> rows[2];
  std::vector<std::uint32_t> degree[2];
  std::vector<std::uint8_t> alive[2];
  for (const int s : {0, 1}) {
    rows[s].assign(static_cast<std::size_t>(n[s]) * words[s], 0);
    degree[s].assign(n[s], 0);
    alive[s].assign(n[s], 1);
    const Side side = s == 0 ? Side::kLeft : Side::kRight;
    for (VertexId v = 0; v < n[s]; ++v) {
      std::uint64_t* row = rows[s].data() + std::size_t{v} * words[s];
      for (const VertexId w : g.Neighbors(side, v)) {
        row[w >> 6] |= std::uint64_t{1} << (w & 63);
      }
      degree[s][v] = g.Degree(side, v);
    }
  }

  std::vector<std::pair<int, VertexId>> queue;
  for (const int s : {0, 1}) {
    for (VertexId v = 0; v < n[s]; ++v) {
      if (degree[s][v] < k) queue.emplace_back(s, v);
    }
  }
  while (!queue.empty()) {
    const auto [s, v] = queue.back();
    queue.pop_back();
    if (alive[s][v] == 0) continue;
    alive[s][v] = 0;
    const int o = 1 - s;
    std::uint64_t* row = rows[s].data() + std::size_t{v} * words[s];
    for (std::size_t word = 0; word < words[s]; ++word) {
      std::uint64_t bits = row[word];
      while (bits != 0) {
        const VertexId w = static_cast<VertexId>(
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        if (alive[o][w] == 0) continue;
        rows[o][std::size_t{w} * words[o] + (v >> 6)] &=
            ~(std::uint64_t{1} << (v & 63));
        if (--degree[o][w] == k - 1) queue.emplace_back(o, w);
      }
      row[word] = 0;
    }
  }

  // Re-extract the survivors (count vertices and the live edges by
  // popcounting the remaining left rows).
  ReduceRun run;
  for (const int s : {0, 1}) {
    for (VertexId v = 0; v < n[s]; ++v) {
      if (alive[s][v] != 0) ++run.vertices;
    }
  }
  for (VertexId l = 0; l < n[0]; ++l) {
    if (alive[0][l] == 0) continue;
    const std::uint64_t* row = rows[0].data() + std::size_t{l} * words[0];
    for (std::size_t word = 0; word < words[0]; ++word) {
      run.edges += static_cast<std::uint64_t>(std::popcount(row[word]));
    }
  }
  run.seconds = timer.Seconds();
  return run;
}

/// What one per-centre reduction produced (for the cross-variant check).
struct SubgraphReduce {
  std::uint64_t loaded_edges = 0;  // edges of the centred subgraph
  std::uint64_t core_vertices = 0; // vertices surviving the k-core peel
  std::uint64_t core_edges = 0;    // edges surviving the k-core peel
};

/// Totals of one step-2 variant over the whole scan.
struct ScanRun {
  SubgraphReduce totals;
  double seconds = 0.0;
  bool Matches(const ScanRun& other) const {
    return totals.loaded_edges == other.totals.loaded_edges &&
           totals.core_vertices == other.totals.core_vertices &&
           totals.core_edges == other.totals.core_edges;
  }
};

/// One step-2/verify variant over the whole bidegeneracy scan: for every
/// centred subgraph with both sides larger than `bound`, runs the
/// per-subgraph k-core reduction (the kernel behind step 2's degeneracy
/// prune and verify's (|A*|+1)-core) and accumulates what it kept.
template <typename ReduceFn>
ScanRun Step2Scan(const BipartiteGraph& g, const VertexOrder& order,
                  std::uint32_t bound, ReduceFn&& reduce) {
  ScanRun run;
  CenteredWorkspace workspace;
  WallTimer timer;
  for (const std::uint32_t center : order.order) {
    const CenteredSubgraph s =
        BuildCenteredSubgraph(g, order, center, workspace);
    const std::vector<VertexId>* left = &s.same_side;
    const std::vector<VertexId>* right = &s.other_side;
    if (s.center_side == Side::kRight) std::swap(left, right);
    if (std::min(left->size(), right->size()) <= bound) continue;
    const SubgraphReduce r = reduce(*left, *right);
    run.totals.loaded_edges += r.loaded_edges;
    run.totals.core_vertices += r.core_vertices;
    run.totals.core_edges += r.core_edges;
  }
  run.seconds = timer.Seconds();
  return run;
}

/// The no-representation-switch baseline for step 2/verify: the reduced
/// graph lives as full-width bit rows (one row per vertex, the dense form
/// denseMBB uses), and each centred subgraph is the row set intersected
/// with a membership mask. Degrees are SIMD AND-popcounts against the
/// mask, the peel clears mask bits and rescans full-width rows — every
/// operation pays O(n/64) words regardless of how sparse the subgraph is,
/// which is exactly what the explicit switch to a compacted CSR kernel
/// avoids.
class GlobalDenseRows {
 public:
  explicit GlobalDenseRows(const BipartiteGraph& g) {
    n_[0] = g.num_left();
    n_[1] = g.num_right();
    words_[0] = (n_[1] + 63) / 64;  // left rows hold right bits
    words_[1] = (n_[0] + 63) / 64;
    for (const int s : {0, 1}) {
      const Side side = s == 0 ? Side::kLeft : Side::kRight;
      rows_[s].assign(std::size_t{n_[s]} * words_[s], 0);
      for (VertexId v = 0; v < n_[s]; ++v) {
        std::uint64_t* row = rows_[s].data() + std::size_t{v} * words_[s];
        for (const VertexId w : g.Neighbors(side, v)) {
          row[w >> 6] |= std::uint64_t{1} << (w & 63);
        }
      }
      // mask_[s] marks members on side s, so it is sized like an
      // opposite-side row.
      mask_[s].assign(words_[1 - s], 0);
      local_[s].assign(n_[s], 0);
    }
  }

  SubgraphReduce Reduce(const std::vector<VertexId>& left,
                        const std::vector<VertexId>& right, std::uint32_t k) {
    const std::vector<VertexId>* members[2] = {&left, &right};
    for (const int s : {0, 1}) {
      degree_[s].assign(members[s]->size(), 0);
      alive_[s].assign(members[s]->size(), 1);
      for (std::uint32_t i = 0; i < members[s]->size(); ++i) {
        const VertexId v = (*members[s])[i];
        local_[s][v] = i;
        mask_[s][v >> 6] |= std::uint64_t{1} << (v & 63);
      }
    }

    SubgraphReduce out;
    queue_.clear();
    for (const int s : {0, 1}) {
      for (std::uint32_t i = 0; i < members[s]->size(); ++i) {
        const VertexId v = (*members[s])[i];
        degree_[s][i] = static_cast<std::uint32_t>(
            bitops::CountAnd(rows_[s].data() + std::size_t{v} * words_[s],
                             mask_[1 - s].data(), words_[s]));
        if (s == 0) out.loaded_edges += degree_[s][i];
        if (degree_[s][i] < k) queue_.emplace_back(s, i);
      }
    }
    while (!queue_.empty()) {
      const auto [s, i] = queue_.back();
      queue_.pop_back();
      if (alive_[s][i] == 0) continue;
      alive_[s][i] = 0;
      const VertexId v = (*members[s])[i];
      mask_[s][v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      const int o = 1 - s;
      const std::uint64_t* row = rows_[s].data() + std::size_t{v} * words_[s];
      for (std::size_t word = 0; word < words_[s]; ++word) {
        std::uint64_t bits = row[word] & mask_[o][word];
        while (bits != 0) {
          const VertexId w = static_cast<VertexId>(
              word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          const std::uint32_t j = local_[o][w];
          if (--degree_[o][j] == k - 1) queue_.emplace_back(o, j);
        }
      }
    }
    for (const int s : {0, 1}) {
      for (std::uint32_t i = 0; i < members[s]->size(); ++i) {
        const VertexId v = (*members[s])[i];
        if (alive_[s][i] != 0) {
          ++out.core_vertices;
          if (s == 0) out.core_edges += degree_[s][i];
        }
        // Clear the membership bit (already clear for peeled members).
        mask_[s][v >> 6] &= ~(std::uint64_t{1} << (v & 63));
      }
    }
    return out;
  }

 private:
  std::uint32_t n_[2] = {0, 0};
  std::size_t words_[2] = {0, 0};
  std::vector<std::uint64_t> rows_[2];
  std::vector<std::uint64_t> mask_[2];
  std::vector<std::uint32_t> local_[2];
  std::vector<std::uint32_t> degree_[2];
  std::vector<std::uint8_t> alive_[2];
  std::vector<std::pair<int, std::uint32_t>> queue_;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  const double scale = config.EffectiveScale(1.0);

  // Heavy-tailed Chung–Lu surrogate of the paper's KONECT workloads: hub
  // vertices give centred subgraphs a wide two-hop scope, the regime where
  // per-centre dense rows hurt most. Density stays ~0.2% (<= the 1% the
  // sparse path targets).
  const auto n = static_cast<std::uint32_t>(8192 * scale);
  const auto target_edges = static_cast<std::uint64_t>(
      0.002 * static_cast<double>(n) * static_cast<double>(n));
  const std::uint32_t k = 3;  // step-1 (k+1)-core strength
  const BipartiteGraph g =
      RandomChungLu(n, n, target_edges, /*exponent=*/2.0, /*seed=*/5);

  std::cout << "sparse-first reduction vs dense rows\n"
            << "graph: chung-lu " << n << "x" << n << " (|E|=" << g.num_edges()
            << ", density " << g.Density() << ")\n\n";

  bool ok = true;

  // ---- Step 1: whole-graph (k+1)-core reduction. --------------------------
  const ReduceRun s1_csr = Step1Csr(g, k);
  const ReduceRun s1_dense = Step1DenseRows(g, k);
  if (s1_dense.vertices != s1_csr.vertices ||
      s1_dense.edges != s1_csr.edges) {
    std::cerr << "MISMATCH: step-1 survivors diverged (csr "
              << s1_csr.vertices << "v/" << s1_csr.edges << "e, dense "
              << s1_dense.vertices << "v/" << s1_dense.edges << "e)\n";
    ok = false;
  }
  TablePrinter step1({"variant", "ns/edge", "time(s)", "kept-v", "kept-e"});
  const auto step1_row = [&](const char* variant, const ReduceRun& run) {
    std::ostringstream ns;
    ns.precision(1);
    ns << std::fixed << run.seconds * 1e9 / static_cast<double>(g.num_edges());
    step1.AddRow({variant, ns.str(), FormatSeconds(run.seconds, false),
                  std::to_string(run.vertices), std::to_string(run.edges)});
  };
  std::cout << "step 1: (k+1)-core reduce, k=" << k << "\n";
  step1_row("csr", s1_csr);
  step1_row("dense-rows", s1_dense);
  step1.Print(std::cout);
  std::cout << "\n";

  // ---- Step 2: per-centre extraction over the bidegeneracy scan. ----------
  // Run the scan on the step-1-reduced graph, like the real pipeline.
  const InducedSubgraph reduced = [&] {
    CsrScratch s;
    s.Load(g);
    s.PeelToCore(k);
    return s.Compact();
  }();
  const VertexOrder order =
      ComputeVertexOrder(reduced.graph, VertexOrderKind::kBidegeneracy);
  const std::uint32_t bound = k - 1;

  const std::uint32_t core_k = bound + 1;
  CsrScratch scan_scratch;
  const ScanRun s2_csr = Step2Scan(
      reduced.graph, order, bound,
      [&](const std::vector<VertexId>& left,
          const std::vector<VertexId>& right) {
        SubgraphReduce out;
        scan_scratch.LoadSubgraph(reduced.graph, left, right);
        out.loaded_edges = scan_scratch.num_live_edges();
        scan_scratch.PeelToCore(core_k);
        out.core_vertices = scan_scratch.NumAlive(Side::kLeft) +
                            scan_scratch.NumAlive(Side::kRight);
        out.core_edges = scan_scratch.num_live_edges();
        return out;
      });
  // Built outside the timed scan: in the no-switch world these rows already
  // exist (they are the graph's only representation), so the dense variant
  // only pays the per-centre masked work.
  GlobalDenseRows dense_rows(reduced.graph);
  const ScanRun s2_dense = Step2Scan(
      reduced.graph, order, bound,
      [&](const std::vector<VertexId>& left,
          const std::vector<VertexId>& right) {
        return dense_rows.Reduce(left, right, core_k);
      });
  if (!s2_dense.Matches(s2_csr)) {
    std::cerr << "MISMATCH: step-2 core reduction diverged (csr "
              << s2_csr.totals.core_vertices << "v/"
              << s2_csr.totals.core_edges << "e, dense "
              << s2_dense.totals.core_vertices << "v/"
              << s2_dense.totals.core_edges << "e)\n";
    ok = false;
  }
  const std::uint64_t s2_edges =
      std::max<std::uint64_t>(s2_csr.totals.loaded_edges, 1);
  TablePrinter step2(
      {"variant", "ns/edge", "time(s)", "core-v", "core-e"});
  const auto step2_row = [&](const char* variant, const ScanRun& run) {
    std::ostringstream ns;
    ns.precision(1);
    ns << std::fixed << run.seconds * 1e9 / static_cast<double>(s2_edges);
    step2.AddRow({variant, ns.str(), FormatSeconds(run.seconds, false),
                  std::to_string(run.totals.core_vertices),
                  std::to_string(run.totals.core_edges)});
  };
  std::cout << "step 2/verify: per-subgraph " << core_k
            << "-core reduction over " << order.order.size()
            << " centres, bound=" << bound << "\n";
  step2_row("csr", s2_csr);
  step2_row("dense-rows", s2_dense);
  step2.Print(std::cout);
  std::cout << "\n";

  std::cout << "Shape check: identical survivor/edge counts on both "
               "variants; csr beats\ndense-rows by >=2x ns/edge on both "
               "steps at this density (the gap widens\nas density falls — "
               "dense rows pay O(n^2) regardless of |E|).\n";
  return ok ? 0 : 1;
}
