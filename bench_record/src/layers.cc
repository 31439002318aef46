#include "layers.h"

#include <stdexcept>
#include <utility>

#include "core/bridge_mbb.h"
#include "core/dense_mbb.h"
#include "core/hbv_mbb.h"
#include "core/heuristic_mbb.h"
#include "core/verify_mbb.h"
#include "engine/registry.h"
#include "engine/search_context.h"
#include "graph/dense_subgraph.h"

namespace record {

namespace {

mbb::MbbResult ReplayDense(const mbb::BipartiteGraph& g, std::uint32_t threads,
                           Tracer& tracer, int root, std::uint64_t id,
                           LayerSample* sample) {
  mbb::DenseMbbOptions options;
  options.num_threads = threads;
  mbb::SearchContext context;
  mbb::DenseSubgraph dense;
  {
    ScopedSpan span(&tracer, "graph.dense_build", root, id);
    dense = mbb::DenseSubgraph::Whole(g);
  }
  mbb::MbbResult result;
  {
    ScopedSpan span(&tracer, "dense.bnb", root, id);
    result = mbb::DenseMbbSolve(dense, options, 0, &context);
  }
  sample->dense_recursions = result.stats.recursions;
  sample->dense_matching_prunes = result.stats.matching_prunes;
  return result;
}

/// `HbvMbb` with the `hbv` adapter's options, step by step.
mbb::MbbResult ReplayHbv(const mbb::BipartiteGraph& g, std::uint32_t threads,
                         Tracer& tracer, int root, std::uint64_t id,
                         LayerSample* sample) {
  mbb::HbvOptions options;
  options.num_threads = threads;
  mbb::MbbResult out;
  mbb::SearchContext context;

  mbb::HMbbOutcome step1;
  {
    ScopedSpan span(&tracer, "step1", root, id);
    step1 = mbb::HMbb(g, options.greedy, options.sparse_reduction);
  }
  out.stats.Merge(step1.stats);
  sample->step1_incumbent = step1.best.BalancedSize();
  mbb::Biclique best = std::move(step1.best);
  if (step1.solved_exactly) {
    out.best = std::move(best);
    out.best.MakeBalanced();
    out.stats.terminated_step = 1;
    return out;
  }
  sample->step1_edges_kept = step1.reduced.num_edges();
  std::uint32_t best_size = best.BalancedSize();
  const auto to_original = [&step1](mbb::Biclique b) {
    for (mbb::VertexId& l : b.left) l = step1.left_map[l];
    for (mbb::VertexId& r : b.right) r = step1.right_map[r];
    return b;
  };

  mbb::BridgeOptions bridge_options;
  bridge_options.order = options.order;
  bridge_options.use_degeneracy_pruning = options.use_core_optimizations;
  bridge_options.greedy = options.greedy;
  bridge_options.num_threads = options.num_threads;
  bridge_options.deterministic = options.deterministic;
  bridge_options.sparse_reduction = options.sparse_reduction;
  mbb::BridgeOutcome step2;
  {
    ScopedSpan span(&tracer, "step2", root, id);
    step2 = mbb::BridgeMbb(step1.reduced, best_size, bridge_options, &context);
  }
  out.stats.Merge(step2.stats);
  sample->step2_centres = step2.stats.subgraphs_total;
  sample->step2_survivors = step2.survivors.size();
  if (step2.improved) {
    best = to_original(std::move(step2.best));
    best_size = step2.best_size;
  }
  if (step2.survivors.empty()) {
    out.best = std::move(best);
    out.best.MakeBalanced();
    out.stats.terminated_step = std::max(out.stats.terminated_step, 2);
    return out;
  }

  mbb::VerifyOptions verify_options;
  verify_options.use_core_reduction = options.use_core_optimizations;
  verify_options.use_dense_search = options.use_dense_optimizations;
  verify_options.num_threads = options.num_threads;
  verify_options.sparse_reduction = options.sparse_reduction;
  verify_options.dense.spawn_depth = options.spawn_depth;
  verify_options.dense.deterministic = options.deterministic;
  mbb::VerifyOutcome step3;
  {
    ScopedSpan span(&tracer, "step3", root, id);
    step3 = mbb::VerifyMbb(step1.reduced, best_size, step2.survivors,
                           verify_options, &context);
  }
  out.stats.Merge(step3.stats);
  sample->step3_recursions = step3.stats.recursions;
  sample->step3_searched = step3.stats.subgraphs_searched;
  out.exact = step3.exact;
  if (step3.improved) best = to_original(std::move(step3.best));
  out.best = std::move(best);
  out.best.MakeBalanced();
  out.stats.terminated_step = 3;
  return out;
}

}  // namespace

mbb::MbbResult SolveUntraced(const std::string& algo,
                             const mbb::BipartiteGraph& g,
                             std::uint32_t threads) {
  mbb::SolverOptions options;
  options.num_threads = threads;
  return mbb::SolverRegistry::Solve(algo, g, options);
}

mbb::MbbResult SolveTraced(const std::string& algo,
                           const mbb::BipartiteGraph& g, std::uint32_t threads,
                           Tracer& tracer, std::uint64_t id,
                           LayerSample* sample) {
  *sample = LayerSample{};
  if (algo != "dense" && algo != "hbv") {
    throw std::invalid_argument("no traced replay for solver " + algo);
  }
  const bool dense = algo == "dense";
  const std::size_t first = tracer.spans().size();
  const int root = tracer.Begin(dense ? "dense.solve" : "hbv.solve", -1, id);
  mbb::MbbResult result =
      dense ? ReplayDense(g, threads, tracer, root, id, sample)
            : ReplayHbv(g, threads, tracer, root, id, sample);
  tracer.End(root);

  const std::vector<double> self = tracer.SelfTimes(first);
  for (std::size_t i = first; i < tracer.spans().size(); ++i) {
    const std::string& name = tracer.spans()[i].name;
    const double t = self[i - first];
    if (name == "graph.dense_build") sample->dense_build_s += t;
    else if (name == "dense.bnb") sample->bnb_s += t;
    else if (name == "step1") sample->step1_s += t;
    else if (name == "step2") sample->step2_s += t;
    else if (name == "step3") sample->step3_s += t;
    else sample->glue_s += t;
  }
  sample->solve_s = tracer.Duration(root);
  return result;
}

std::string ParityError(const mbb::MbbResult& untraced,
                        const mbb::MbbResult& replay) {
  const mbb::SearchStats& a = untraced.stats;
  const mbb::SearchStats& b = replay.stats;
  const auto differ = [](const char* what, std::uint64_t x, std::uint64_t y) {
    return what + std::string(" ") + std::to_string(x) + " vs replay " +
           std::to_string(y);
  };
  if (untraced.best.BalancedSize() != replay.best.BalancedSize()) {
    return differ("optimum", untraced.best.BalancedSize(),
                  replay.best.BalancedSize());
  }
  if (a.subgraphs_total != b.subgraphs_total) {
    return differ("subgraphs_total", a.subgraphs_total, b.subgraphs_total);
  }
  if (a.subgraphs_searched != b.subgraphs_searched) {
    return differ("survivors searched", a.subgraphs_searched,
                  b.subgraphs_searched);
  }
  if (a.recursions != b.recursions) {
    return differ("recursions", a.recursions, b.recursions);
  }
  return "";
}

}  // namespace record
