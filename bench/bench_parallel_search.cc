/// Measures work-stealing subtree parallelism inside a single denseMBB
/// search: each instance is one hard dense graph solved whole with 1, 2, 4
/// and 8 workers, and the wall-clock speedup over the sequential recursion
/// is reported. The best balanced size must be identical at every thread
/// count (the shared incumbent only tightens pruning; it never changes the
/// answer). This is the single-worst-case-search scenario the survivor
/// fan-out of bench_parallel_verify cannot touch: one search, no
/// independent subgraphs, all parallelism from forked subtrees. The `work`
/// column is the run's recursions over the sequential run's: it separates
/// a speedup from the split (work near 1.0x) from extra work done against
/// a weaker incumbent, which the shared bound can only partly avoid.
///
/// `--scale X` scales the side size, `--timeout SEC` bounds each run.

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dense_mbb.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "graph/dense_subgraph.h"
#include "graph/generators.h"

namespace {

using namespace mbb;

struct Instance {
  std::uint32_t n;
  double density;
  std::uint64_t seed;
};

// ~0.2s / ~1.5s / ~2s sequential at scale 1 on the reference container —
// long enough that task scheduling is noise, short enough for CI smoke.
constexpr Instance kInstances[] = {
    {64, 0.90, 7},
    {72, 0.92, 11},
    {72, 0.90, 3},
};

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  const double timeout = config.EffectiveTimeout(60.0);
  const double scale = config.EffectiveScale(1.0);

  std::cout << "work-stealing subtree parallelism in denseMBB (timeout "
            << timeout << "s, scale " << scale << ", hardware threads "
            << std::thread::hardware_concurrency() << ")\n\n";

  bool ok = true;
  for (const Instance& instance : kInstances) {
    const auto n = static_cast<std::uint32_t>(instance.n * scale);
    const BipartiteGraph g = RandomUniform(n, n, instance.density, instance.seed);
    const DenseSubgraph dense = DenseSubgraph::Whole(g);

    std::ostringstream header;
    header << n << "x" << n << " d" << static_cast<int>(instance.density * 100)
           << " seed " << instance.seed;
    std::cout << header.str() << " (|E|=" << g.num_edges() << ")\n";

    TablePrinter table(
        {"threads", "best", "time(s)", "speedup", "work", "spawned",
         "stolen", "shared-prunes", "exact"});
    double sequential_seconds = 0.0;
    double sequential_recursions = 0.0;
    std::uint32_t sequential_best = 0;
    bool sequential_exact = false;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      DenseMbbOptions options;
      options.num_threads = threads;
      options.limits = SearchLimits::FromSeconds(timeout);
      WallTimer timer;
      const MbbResult out = DenseMbbSolve(dense, options);
      const double seconds = timer.Seconds();
      if (threads == 1) {
        sequential_seconds = seconds;
        sequential_recursions = static_cast<double>(out.stats.recursions);
        sequential_best = out.best.BalancedSize();
        sequential_exact = out.exact;
      } else if (out.exact && sequential_exact &&
                 out.best.BalancedSize() != sequential_best) {
        std::cerr << "MISMATCH: threads=" << threads << " found "
                  << out.best.BalancedSize() << ", sequential found "
                  << sequential_best << "\n";
        ok = false;
      }
      std::ostringstream speedup;
      speedup.precision(2);
      speedup << std::fixed << sequential_seconds / seconds << "x";
      std::ostringstream work;
      work.precision(2);
      work << std::fixed
           << static_cast<double>(out.stats.recursions) / sequential_recursions
           << "x";
      table.AddRow({std::to_string(threads),
                    std::to_string(out.best.BalancedSize()),
                    FormatSeconds(seconds, !out.exact), speedup.str(),
                    work.str(),
                    std::to_string(out.stats.tasks_spawned),
                    std::to_string(out.stats.tasks_stolen),
                    std::to_string(out.stats.shared_bound_prunes),
                    out.exact ? "yes" : "no"});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Shape check: identical best at every thread count; speedup "
               "approaches the\nhardware thread count divided by work (on a "
               "single-core host all rows cost\nthe same and the table only "
               "shows scheduling overhead).\n";
  return ok ? 0 : 1;
}
