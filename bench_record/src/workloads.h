#ifndef BENCH_RECORD_WORKLOADS_H_
#define BENCH_RECORD_WORKLOADS_H_

#include "trace.h"
#include "util.h"

namespace record {

/// dense / sparse / mid_density: a fixed instance set solved to the exact
/// optimum at 1 and 4 threads, round after round until the window closes.
/// Instance specs: `random:NL:NR:DENSITY:GEN_SEED:OPTIMUM` or
/// `dataset:NAME:SCALE:OPTIMUM`; param `algo` names the registry solver.
void RunBatch(const Config& config, Tracer& tracer, RunResult& result);

/// serve: an in-process server fed protocol lines from a seeded trace, in
/// a paced open-loop phase and a closed-loop saturation phase.
void RunServe(const Config& config, Tracer& tracer, RunResult& result);

}  // namespace record

#endif  // BENCH_RECORD_WORKLOADS_H_
