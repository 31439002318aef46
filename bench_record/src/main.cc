// bench_record: one run of one workload of the benchmark of record.
//
//   bench_record --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out FILE] [--instance SPEC]... [--param KEY=VALUE]...
//
// Prints one `{"diagnostics": ...}` line, then, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}. Exit code 0
// only when every answer passed the gate; 2 on a usage or set-up error
// (no result line). bench_record/run.py builds this binary and feeds it
// the instance lists of bench_record/workloads.json.
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "graph/bit_ops.h"
#include "workloads.h"

namespace {

using record::Config;

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--instance") {
      config.instances.push_back(value);
    } else if (flag == "--param") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("bad --param " + value);
      config.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (config.workload.empty()) throw std::invalid_argument("missing --workload");
  if (!(config.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return config;
}

void Print(const record::RunResult& result) {
  std::cout << "{\"diagnostics\": {";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const auto& [key, value] = result.diagnostics[i];
    std::cout << (i ? ", " : "") << record::JsonString(key) << ": "
              << record::JsonString(value);
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const record::Metric& m = result.metrics[i];
    std::cout << (i ? ", " : "") << record::JsonString(m.name)
              << ": {\"value\": " << record::JsonNumber(m.value)
              << ", \"unit\": " << record::JsonString(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  try {
    config = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_record: " << e.what() << "\n";
    return 2;
  }

  record::RunResult result;
  result.Note("workload", config.workload);
  result.Note("seed", std::to_string(config.seed));
  result.Note("trace", config.trace ? "1" : "0");
  result.Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  result.Note("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  result.Note("dispatch", mbb::bitops::ActiveDispatchName());
  result.Note("calibration_ms_start", record::JsonNumber(record::CalibrationMs()));

  record::Tracer tracer;
  try {
    if (config.workload == "serve") {
      record::RunServe(config, tracer, result);
    } else {
      record::RunBatch(config, tracer, result);
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_record: " << config.workload << ": " << e.what() << "\n";
    return 2;
  }
  result.Note("calibration_ms_end", record::JsonNumber(record::CalibrationMs()));

  if (config.trace && !config.trace_out.empty()) {
    if (tracer.WriteChromeJson(config.trace_out)) {
      result.Note("trace_file", config.trace_out);
    } else {
      std::cerr << "bench_record: cannot write " << config.trace_out << "\n";
    }
  }
  for (const std::string& error : result.errors) {
    std::cerr << "WRONG ANSWER: " << error << "\n";
  }
  Print(result);
  return result.correct ? 0 : 1;
}
