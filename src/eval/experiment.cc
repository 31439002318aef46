#include "eval/experiment.h"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>

#include "engine/registry.h"

namespace mbb {

TimedRun RunSolver(std::string_view name, const BipartiteGraph& g,
                   double timeout_seconds, SolverOptions options) {
  options.time_limit_seconds = timeout_seconds;
  TimedRun run;
  WallTimer timer;
  run.result = SolverRegistry::Solve(name, g, options);
  run.seconds = timer.Seconds();
  // Keyed off the stats flag, not `exact`: heuristic solvers always
  // report exact == false, which must not render as a timeout.
  run.timed_out = run.result.stats.timed_out;
  return run;
}

template <typename T>
std::optional<T> ParseFlagNumber(std::string_view flag, std::string_view value,
                                 T lo, T hi) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  // NaN fails both comparisons; infinities fail the finite bounds.
  if (ec == std::errc() && ptr == end && parsed >= lo && parsed <= hi) {
    return parsed;
  }
  std::cerr << flag << " expects "
            << (std::is_integral_v<T> ? "an integer" : "a number") << " in ["
            << lo << ", " << hi << "], got '" << value << "'\n";
  return std::nullopt;
}

template std::optional<double> ParseFlagNumber(std::string_view,
                                               std::string_view, double,
                                               double);
template std::optional<std::uint32_t> ParseFlagNumber(std::string_view,
                                                      std::string_view,
                                                      std::uint32_t,
                                                      std::uint32_t);
template std::optional<std::uint64_t> ParseFlagNumber(std::string_view,
                                                      std::string_view,
                                                      std::uint64_t,
                                                      std::uint64_t);

BenchConfig ParseBenchArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      config.full = true;
      continue;
    }
    if (arg != "--timeout" && arg != "--scale") continue;
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      std::exit(1);
    }
    const std::optional<double> value =
        arg == "--timeout" ? ParseFlagNumber(arg, argv[++i], 0.0, 1e9)
                           : ParseFlagNumber(arg, argv[++i], 1e-6, 1e3);
    if (!value) std::exit(1);
    if (arg == "--timeout") {
      config.timeout_seconds = *value;
      config.timeout_set = true;
    } else {
      config.scale = *value;
    }
  }
  return config;
}

}  // namespace mbb
