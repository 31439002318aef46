// Shared helpers of the benchmark of record: clocks, order statistics,
// seeded relabelling, the answer gate, host diagnostics and the result
// record every workload fills in.
#ifndef BENCH_RECORD_UTIL_H_
#define BENCH_RECORD_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/biclique.h"
#include "graph/bipartite_graph.h"

namespace record {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median with the midpoint rule for even counts; 0 for an empty sample.
double Median(std::vector<double> values);

/// Nearest-rank quantile (`q` in [0, 1]); 0 for an empty sample. With
/// fewer than 1/(1-q) samples the high quantiles are the maximum.
double Quantile(std::vector<double> values, double q);

/// SplitMix64 step: derives independent streams from (seed, salt).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt);

/// Same graph under independent seeded permutations of both sides — the
/// optimum is unchanged, the labels the solver sees are not.
mbb::BipartiteGraph Relabel(const mbb::BipartiteGraph& g, std::uint64_t seed);

/// Checks a witness against its input graph: ids in range and distinct,
/// both sides the same size, every left × right pair an edge. Returns an
/// empty string when it holds, otherwise what is wrong.
std::string CheckBalancedBiclique(const mbb::BipartiteGraph& g,
                                  const mbb::Biclique& b);

/// As above without the balance requirement (sizecon witnesses).
std::string CheckBiclique(const mbb::BipartiteGraph& g, const mbb::Biclique& b);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Milliseconds of a fixed integer loop that calls no repository code: a
/// host-speed probe that separates host drift from a regression.
double CalibrationMs();

/// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `metrics` is ordered as printed.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Host and run facts printed beside the result (not metrics).
  std::vector<std::pair<std::string, std::string>> diagnostics;
  /// First few failures, for the log.
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    diagnostics.emplace_back(std::move(key), std::move(value));
  }
  /// Share of gated answers that were correct (0 when none were gated).
  double OkRate() const {
    return attempted == 0 ? 0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
  /// Records one gated answer; `error` empty = correct.
  void Gate(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(error);
  }
};

/// Shortest round-trip decimal form of `v` (JSON number).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// Command-line configuration shared by all workloads.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path ("" = none)
  std::vector<std::string> instances;  // workload-specific specs
  std::map<std::string, std::string> params;

  /// Numeric `--param key=value`; throws when the key is missing.
  double Param(const std::string& key) const;
};

}  // namespace record

#endif  // BENCH_RECORD_UTIL_H_
