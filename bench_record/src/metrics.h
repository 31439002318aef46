// The metric sets every workload prints, in one fixed order, so a run's
// result line names exactly BENCHMARK.json's `end_to_end` (untraced runs)
// or `per_layer` (traced runs) list. A layer a workload does not run
// reports 0.
#ifndef BENCH_RECORD_METRICS_H_
#define BENCH_RECORD_METRICS_H_

#include <cstdint>
#include <vector>

#include "layers.h"
#include "util.h"

namespace record {

struct EndToEnd {
  double solve_s = 0;
  double solve_t4_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double ok_rate = 0;
  double qps = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

struct PerLayer {
  double graph_build_s = 0;
  double graph_dense_build_s = 0;
  double and_count_ns[4] = {0, 0, 0, 0};  // rows of kAndCountWords words
  double step1_self_s = 0;
  double step1_incumbent = 0;
  double step1_edges_kept = 0;
  double step2_self_s = 0;
  double step2_centres = 0;
  double step2_survivors = 0;
  double step2_prune_ratio = 0;
  double step3_self_s = 0;
  double step3_recursions = 0;
  double step3_searched = 0;
  double dense_bnb_s = 0;
  double dense_recursions = 0;
  double dense_ns_per_recursion = 0;
  double dense_matching_prune_ratio = 0;
  double parallel_speedup_t4 = 0;
  double parallel_work_ratio_t4 = 0;
  double parallel_tasks_spawned = 0;
  double parallel_tasks_stolen = 0;
  double serve_parse_ms_p50 = 0;
  double serve_admit_ms_p50 = 0;
  double serve_queue_ms_p50 = 0;
  double serve_queue_ms_p99 = 0;
  double serve_solve_ms_p50 = 0;
  double serve_solve_ms_p99 = 0;
  double serve_hit_rate = 0;
  double serve_warm_rate = 0;
  double serve_warm_fallbacks = 0;
  double serve_rejected = 0;
  double serve_generator_late_ms_p99 = 0;
  double trace_solve_s = 0;
  double trace_unattributed_pct = 0;
  double trace_overhead_pct = 0;
};

inline constexpr std::size_t kAndCountWords[4] = {1, 2, 5, 10};

void AddEndToEnd(RunResult& result, const EndToEnd& m);
void AddPerLayer(RunResult& result, const PerLayer& m);

/// Fills the solve layers from traced replays: `replays[i]` holds instance
/// i's replays at one thread. Self times are summed over instances of their
/// per-instance median; counters come from each instance's last replay
/// (they repeat at one thread). `recursions1/4` are the untraced solves'
/// summed recursion counts at 1 and 4 threads; the T=4 speedup and the
/// tracing overhead are taken against `e2e`.
void AddSolveLayers(const std::vector<std::vector<LayerSample>>& replays,
                    const EndToEnd& e2e, double recursions1, double recursions4,
                    PerLayer& layers);

/// Fills the `bit_ops` entries — ns per `bitops::AndCountInto` call on rows
/// of kAndCountWords words, median of several timed sweeps over a pool of
/// random rows — and records the dispatch level.
void MeasureBitOps(PerLayer& layers, RunResult& result);

}  // namespace record

#endif  // BENCH_RECORD_METRICS_H_
