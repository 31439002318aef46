/// Command-line front end for the library: load or generate a bipartite
/// graph, run any algorithm in the solver registry, print the result and
/// the search statistics.
///
///   mbb_cli --random 200 200 0.02 7 --algo hbv --stats
///   mbb_cli --input graph.txt --algo dense --timeout 30
///   mbb_cli --dataset github --scale 0.1 --algo adp3
///   mbb_cli --random 32 32 0.9 1 --algo mvb
///
/// Every solver is selected by its registry name (`--list-algos` prints
/// them); the only algorithm outside the registry is `mvb`, the
/// maximum *vertex* biclique relaxation, which solves a different
/// objective and is kept as a CLI special case.

#include <iostream>
#include <string>

#include "engine/degrade.h"
#include "engine/faults.h"
#include "graph/bit_ops.h"
#include "eval/experiment.h"
#include "mbb.h"
#include "serve/protocol.h"

namespace {

using namespace mbb;

void Usage() {
  std::cout <<
      "usage: mbb_cli [input] [options]\n"
      "input (one of):\n"
      "  --input FILE                KONECT-style edge list (1-based)\n"
      "  --random NL NR DENSITY SEED uniform random bipartite graph\n"
      "  --dataset NAME              Table-5 surrogate (see --list)\n"
      "options:\n"
      "  --scale X                   surrogate scale factor (default 0.05)\n"
      "  --algo NAME                 registry solver (see --list-algos),\n"
      "                              or mvb; default auto\n"
      "  --algorithm NAME            alias for --algo\n"
      "  --timeout SEC               deadline (default 60)\n"
      "  --threads N|auto            worker threads for the parallel\n"
      "                              phases (subtree search, bridge scan,\n"
      "                              verification); default 1, auto = all\n"
      "                              hardware threads\n"
      "  --spawn-depth N             fork cutoff of the work-stealing\n"
      "                              subtree layer (default 0 = auto)\n"
      "  --dispatch auto|scalar      bitset kernel backend: auto (default;\n"
      "                              AVX2 when the build + CPU allow it)\n"
      "                              or scalar\n"
      "  --deterministic             thread-count-invariant parallel mode:\n"
      "                              identical result at any --threads\n"
      "  --sparse-reduction on|off   run the hbv-family reduction phases\n"
      "                              on the CSR substrate (default on;\n"
      "                              off = legacy per-phase rebuilds,\n"
      "                              results identical either way)\n"
      "  --memory-budget-mb N        per-solve arena byte budget in MiB;\n"
      "                              exceeding it returns the best\n"
      "                              incumbent found so far (exact: no)\n"
      "                              instead of aborting (default\n"
      "                              unlimited)\n"
      "  --fault-spec SPEC           arm the deterministic fault-injection\n"
      "                              layer, e.g.\n"
      "                              'seed=7;alloc.bit_matrix:nth=1'\n"
      "                              (see docs/ARCHITECTURE.md)\n"
      "  --stats                     print search statistics\n"
      "  --list                      list dataset names and exit\n"
      "  --list-algos                list registered solvers and exit\n";
}

/// Old CLI spellings that predate the registry keys.
std::string CanonicalAlgoName(std::string name) {
  if (name == "extbbcl") return "extbbclq";
  if (name == "adp") return "adapted";
  return name;
}

MbbResult Solve(const std::string& algorithm, const BipartiteGraph& g,
                double timeout, std::uint32_t threads,
                std::uint32_t spawn_depth, bool deterministic,
                bool sparse_reduction, std::uint64_t memory_budget_mb,
                const std::string& fault_spec) {
  if (algorithm == "mvb") {
    MbbResult r;
    r.best = MaximumVertexBiclique(g);
    return r;
  }
  SolverOptions options = SolverOptions::WithTimeout(timeout);
  options.num_threads = threads;
  options.spawn_depth = spawn_depth;
  options.deterministic = deterministic;
  options.sparse_reduction = sparse_reduction;
  options.memory_budget_bytes = memory_budget_mb << 20;
  options.fault_spec = fault_spec;
  // Anytime wrapper: a tripped budget (or injected allocation fault)
  // degrades to the best incumbent instead of crashing the process.
  return SolveAnytime(algorithm, g, options);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_file;
  std::string dataset;
  std::string algorithm = "auto";
  bool random = false;
  std::uint32_t nl = 0;
  std::uint32_t nr = 0;
  double density = 0.0;
  std::uint64_t seed = 1;
  double scale = 0.05;
  double timeout = 60.0;
  std::uint32_t threads = 1;
  std::uint32_t spawn_depth = 0;
  bool deterministic = false;
  bool sparse_reduction = true;
  std::uint64_t memory_budget_mb = 0;
  std::string fault_spec;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --flag=value spellings for the value-carrying flags.
    bool has_inline = false;
    std::string inline_value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
      has_inline = true;
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    // A missing or empty value is a usage error, not a crash in stod.
    bool missing_value = false;
    const auto next_value = [&]() -> std::string {
      if (has_inline) {
        if (inline_value.empty()) missing_value = true;
        return inline_value;
      }
      if (i + 1 < argc) return std::string(argv[++i]);
      missing_value = true;
      return {};
    };
    if (arg == "--input") {
      input_file = next_value();
    } else if (arg == "--random" && i + 4 < argc) {
      random = true;
      nl = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      nr = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      density = std::stod(argv[++i]);
      seed = std::stoull(argv[++i]);
    } else if (arg == "--dataset") {
      dataset = next_value();
    } else if (arg == "--scale") {
      const std::string value = next_value();
      if (!missing_value) scale = std::stod(value);
    } else if (arg == "--algo" || arg == "--algorithm") {
      algorithm = CanonicalAlgoName(next_value());
    } else if (arg == "--timeout") {
      const std::string value = next_value();
      if (!missing_value) timeout = std::stod(value);
    } else if (arg == "--threads") {
      const std::string value = next_value();
      if (!missing_value) {
        if (value == "auto") {
          threads = 0;  // SolverOptions: 0 = one per hardware thread
        } else {
          // "0" and negative counts have bitten users before: 0 silently
          // meant "all cores" and a negative wrapped through stoul into
          // billions of workers. Ask for "auto" explicitly instead.
          long parsed = 0;
          try {
            parsed = std::stol(value);
          } catch (const std::exception&) {
            std::cerr << "--threads expects a positive integer or 'auto', "
                         "got '" << value << "'\n";
            return 1;
          }
          if (parsed <= 0) {
            std::cerr << "--threads must be >= 1 (got " << value
                      << "); use --threads=auto for one per hardware "
                         "thread\n";
            return 1;
          }
          threads = static_cast<std::uint32_t>(parsed);
        }
      }
    } else if (arg == "--memory-budget-mb") {
      const std::string value = next_value();
      if (!missing_value) {
        // Same guard rails as --threads: reject junk and non-positive
        // sizes instead of letting stol wrap them into surprises.
        long parsed = 0;
        try {
          parsed = std::stol(value);
        } catch (const std::exception&) {
          std::cerr << "--memory-budget-mb expects a positive integer, got '"
                    << value << "'\n";
          return 1;
        }
        if (parsed <= 0) {
          std::cerr << "--memory-budget-mb must be >= 1 (got " << value
                    << "); omit the flag for an unlimited budget\n";
          return 1;
        }
        memory_budget_mb = static_cast<std::uint64_t>(parsed);
      }
    } else if (arg == "--fault-spec") {
      const std::string value = next_value();
      if (!missing_value) {
        std::string spec_error;
        if (!faults::Configure(value, &spec_error)) {
          std::cerr << "--fault-spec: " << spec_error << "\n";
          return 1;
        }
        fault_spec = value;
      }
    } else if (arg == "--dispatch") {
      const std::string value = next_value();
      if (!missing_value) {
        if (value == "auto") {
          bitops::SetDispatchPolicy(bitops::DispatchPolicy::kAuto);
        } else if (value == "scalar") {
          bitops::SetDispatchPolicy(bitops::DispatchPolicy::kForceScalar);
        } else {
          std::cerr << "--dispatch expects auto or scalar, got '" << value
                    << "'\n";
          return 1;
        }
      }
    } else if (arg == "--spawn-depth") {
      const std::string value = next_value();
      if (!missing_value) {
        spawn_depth = static_cast<std::uint32_t>(std::stoul(value));
      }
    } else if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--sparse-reduction") {
      const std::string value = next_value();
      if (!missing_value) {
        if (value == "on") {
          sparse_reduction = true;
        } else if (value == "off") {
          sparse_reduction = false;
        } else {
          std::cerr << "--sparse-reduction expects 'on' or 'off', got '"
                    << value << "'\n";
          return 1;
        }
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--list") {
      for (const DatasetSpec& spec : Table5Datasets()) {
        std::cout << spec.name << "  |L|=" << spec.num_left
                  << " |R|=" << spec.num_right << " opt=" << spec.optimum
                  << (spec.tough ? "  (tough)" : "") << "\n";
      }
      return 0;
    } else if (arg == "--list-algos") {
      for (const std::string& name : SolverRegistry::Instance().Names()) {
        const MbbSolver& solver = SolverRegistry::Instance().Get(name);
        std::cout << name << (solver.IsExact() ? "" : "  (heuristic)")
                  << "\n";
      }
      std::cout << "mvb  (vertex-biclique relaxation)\n";
      return 0;
    } else {
      Usage();
      return arg == "--help" ? 0 : 1;
    }
    if (missing_value) {
      std::cerr << "missing value for " << arg << "\n\n";
      Usage();
      return 1;
    }
  }

  if (algorithm != "mvb" && !SolverRegistry::Instance().Contains(algorithm)) {
    std::cerr << "unknown algorithm '" << algorithm
              << "' (see --list-algos)\n";
    return 1;
  }

  BipartiteGraph g;
  if (!input_file.empty()) {
    g = LoadEdgeListFile(input_file);
  } else if (random) {
    g = RandomUniform(nl, nr, density, seed);
  } else if (!dataset.empty()) {
    const DatasetSpec* spec = FindDataset(dataset);
    if (spec == nullptr) {
      std::cerr << "unknown dataset '" << dataset << "' (see --list)\n";
      return 1;
    }
    g = GenerateSurrogate(*spec, scale);
  } else {
    Usage();
    return 1;
  }

  std::cout << "graph: |L|=" << g.num_left() << " |R|=" << g.num_right()
            << " |E|=" << g.num_edges() << " density=" << g.Density()
            << "\n";

  WallTimer timer;
  const MbbResult result = Solve(algorithm, g, timeout, threads, spawn_depth,
                                 deterministic, sparse_reduction,
                                 memory_budget_mb, fault_spec);
  const double seconds = timer.Seconds();

  std::cout << "algorithm: " << algorithm << "\n"
            << "balanced biclique side size k = "
            << result.best.BalancedSize() << "\n"
            << "result: " << result.best.ToString() << "\n"
            << "valid: " << (result.best.IsBicliqueIn(g) ? "yes" : "NO")
            << ", exact: " << (result.exact ? "yes" : "no")
            << ", time: " << seconds << "s\n";
  const std::string stop_cause = serve::StopCauseName(result.stats.stop_cause);
  if (!stop_cause.empty()) {
    std::cout << "stop cause: " << stop_cause
              << (result.exact ? "" : " (degraded: best incumbent)") << "\n";
  }
  if (result.stats.arena_bytes_peak > 0) {
    std::cout << "arena peak: " << result.stats.arena_bytes_peak
              << " bytes (budget " << (memory_budget_mb << 20) << ")\n";
  }

  if (stats) {
    const SearchStats& s = result.stats;
    std::cout << "stats: dispatch=" << bitops::ActiveDispatchName()
              << " recursions=" << s.recursions
              << " leaves=" << s.leaves
              << " bound_prunes=" << s.bound_prunes
              << " matching_prunes=" << s.matching_prunes
              << " reductions=" << s.reduction_removed << "+"
              << s.reduction_promoted << " poly_cases=" << s.poly_cases
              << "\n       subgraphs total/pruned-size/pruned-deg/searched/"
                 "skipped="
              << s.subgraphs_total << "/" << s.subgraphs_pruned_size << "/"
              << s.subgraphs_pruned_degeneracy << "/"
              << s.subgraphs_searched << "/" << s.subgraphs_skipped
              << " step=S" << s.terminated_step << "\n";
    if (s.tasks_spawned > 0) {
      std::cout << "       subtree tasks spawned/stolen=" << s.tasks_spawned
                << "/" << s.tasks_stolen
                << " shared_bound_prunes=" << s.shared_bound_prunes << "\n";
    }
    std::cout << "       reduction: step1 removed "
              << s.step1_vertices_removed << " vertices / "
              << s.step1_edges_removed << " edges, core reduction removed "
              << s.core_reduction_vertices_removed
              << " vertices, sparse->dense switches="
              << s.sparse_to_dense_switches << "\n";
  }
  return 0;
}
