#include "metrics.h"

#include <random>
#include <string>
#include <vector>

#include "graph/bit_ops.h"

namespace record {

namespace {

double AndCountNs(std::size_t words) {
  constexpr std::size_t kRows = 64;  // power of two: row pick is a mask
  constexpr std::uint32_t kCalls = 1 << 21;
  std::mt19937_64 rng(words);
  std::vector<std::uint64_t> a(kRows * words);
  std::vector<std::uint64_t> b(kRows * words);
  std::vector<std::uint64_t> dst(words);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();
  std::vector<double> ns;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double start = Now();
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      const std::size_t ra = (i & (kRows - 1)) * words;
      const std::size_t rb = ((i * 7 + 3) & (kRows - 1)) * words;
      sink += mbb::bitops::AndCountInto(dst.data(), &a[ra], &b[rb], words);
    }
    ns.push_back((Now() - start) * 1e9 / kCalls);
  }
  if (sink == 1) ns.push_back(0);  // keeps the calls observable
  return Median(ns);
}

}  // namespace

void AddEndToEnd(RunResult& result, const EndToEnd& m) {
  result.Add("solve_s", m.solve_s, "s");
  result.Add("solve_t4_s", m.solve_t4_s, "s");
  result.Add("setup_s", m.setup_s, "s");
  result.Add("peak_rss_mb", m.peak_rss_mb, "MiB");
  result.Add("ok_rate", m.ok_rate, "ratio");
  result.Add("qps", m.qps, "1/s");
  result.Add("latency_p50_ms", m.latency_p50_ms, "ms");
  result.Add("latency_p99_ms", m.latency_p99_ms, "ms");
}

void AddPerLayer(RunResult& result, const PerLayer& m) {
  result.Add("graph.build_s", m.graph_build_s, "s");
  result.Add("graph.dense_build_s", m.graph_dense_build_s, "s");
  for (std::size_t i = 0; i < 4; ++i) {
    result.Add("bit_ops.and_count_ns.w" + std::to_string(kAndCountWords[i]),
               m.and_count_ns[i], "ns");
  }
  result.Add("step1.self_s", m.step1_self_s, "s");
  result.Add("step1.incumbent", m.step1_incumbent, "count");
  result.Add("step1.edges_kept", m.step1_edges_kept, "count");
  result.Add("step2.self_s", m.step2_self_s, "s");
  result.Add("step2.centres", m.step2_centres, "count");
  result.Add("step2.survivors", m.step2_survivors, "count");
  result.Add("step2.prune_ratio", m.step2_prune_ratio, "ratio");
  result.Add("step3.self_s", m.step3_self_s, "s");
  result.Add("step3.recursions", m.step3_recursions, "count");
  result.Add("step3.searched", m.step3_searched, "count");
  result.Add("dense.bnb_s", m.dense_bnb_s, "s");
  result.Add("dense.recursions", m.dense_recursions, "count");
  result.Add("dense.ns_per_recursion", m.dense_ns_per_recursion, "ns");
  result.Add("dense.matching_prune_ratio", m.dense_matching_prune_ratio,
             "ratio");
  result.Add("parallel.speedup_t4", m.parallel_speedup_t4, "ratio");
  result.Add("parallel.work_ratio_t4", m.parallel_work_ratio_t4, "ratio");
  result.Add("parallel.tasks_spawned", m.parallel_tasks_spawned, "count");
  result.Add("parallel.tasks_stolen", m.parallel_tasks_stolen, "count");
  result.Add("serve.parse_ms_p50", m.serve_parse_ms_p50, "ms");
  result.Add("serve.admit_ms_p50", m.serve_admit_ms_p50, "ms");
  result.Add("serve.queue_ms_p50", m.serve_queue_ms_p50, "ms");
  result.Add("serve.queue_ms_p99", m.serve_queue_ms_p99, "ms");
  result.Add("serve.solve_ms_p50", m.serve_solve_ms_p50, "ms");
  result.Add("serve.solve_ms_p99", m.serve_solve_ms_p99, "ms");
  result.Add("serve.hit_rate", m.serve_hit_rate, "ratio");
  result.Add("serve.warm_rate", m.serve_warm_rate, "ratio");
  result.Add("serve.warm_fallbacks", m.serve_warm_fallbacks, "count");
  result.Add("serve.rejected", m.serve_rejected, "count");
  result.Add("serve.generator_late_ms_p99", m.serve_generator_late_ms_p99,
             "ms");
  result.Add("trace.solve_s", m.trace_solve_s, "s");
  result.Add("trace.unattributed_pct", m.trace_unattributed_pct, "%");
  result.Add("trace.overhead_pct", m.trace_overhead_pct, "%");
}

void AddSolveLayers(const std::vector<std::vector<LayerSample>>& replays,
                    const EndToEnd& e2e, double recursions1, double recursions4,
                    PerLayer& layers) {
  double glue = 0, matching_prunes = 0;
  for (const std::vector<LayerSample>& v : replays) {
    const auto median = [&v](double LayerSample::*field) {
      std::vector<double> values;
      for (const LayerSample& s : v) values.push_back(s.*field);
      return Median(values);
    };
    layers.graph_dense_build_s += median(&LayerSample::dense_build_s);
    layers.dense_bnb_s += median(&LayerSample::bnb_s);
    layers.step1_self_s += median(&LayerSample::step1_s);
    layers.step2_self_s += median(&LayerSample::step2_s);
    layers.step3_self_s += median(&LayerSample::step3_s);
    layers.trace_solve_s += median(&LayerSample::solve_s);
    glue += median(&LayerSample::glue_s);
    const LayerSample& last = v.back();
    layers.step1_incumbent += static_cast<double>(last.step1_incumbent);
    layers.step1_edges_kept += static_cast<double>(last.step1_edges_kept);
    layers.step2_centres += static_cast<double>(last.step2_centres);
    layers.step2_survivors += static_cast<double>(last.step2_survivors);
    layers.step3_recursions += static_cast<double>(last.step3_recursions);
    layers.step3_searched += static_cast<double>(last.step3_searched);
    layers.dense_recursions += static_cast<double>(last.dense_recursions);
    matching_prunes += static_cast<double>(last.dense_matching_prunes);
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  layers.trace_unattributed_pct = 100.0 * ratio(glue, layers.trace_solve_s);
  layers.step2_prune_ratio =
      ratio(layers.step2_centres - layers.step2_survivors, layers.step2_centres);
  layers.dense_ns_per_recursion = 1e9 * ratio(layers.dense_bnb_s, layers.dense_recursions);
  layers.dense_matching_prune_ratio = ratio(matching_prunes, layers.dense_recursions);
  layers.parallel_speedup_t4 = ratio(e2e.solve_s, e2e.solve_t4_s);
  layers.parallel_work_ratio_t4 = ratio(recursions4, recursions1);
  layers.trace_overhead_pct = 100.0 * ratio(layers.trace_solve_s - e2e.solve_s, e2e.solve_s);
}

void MeasureBitOps(PerLayer& layers, RunResult& result) {
  for (std::size_t i = 0; i < 4; ++i) {
    layers.and_count_ns[i] = AndCountNs(kAndCountWords[i]);
  }
  result.Note("bit_ops_dispatch", mbb::bitops::ActiveDispatchName());
}

}  // namespace record
