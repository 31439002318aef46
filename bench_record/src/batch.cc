// dense / sparse / mid_density: time-to-exact-optimum on a fixed instance
// set. Round r solves every instance, in a seeded order, at 1 and at 4
// threads, under labelling r: the generated graph relabelled by a seeded
// permutation (same optimum, other vertex ids). Set-up builds labelling 0;
// each later round relabels outside the timed solves, so the window decides
// how many labellings are used. An instance's time is the median over the
// rounds, so label-sensitive search orders (denseMBB's tie-breaks) are
// averaged rather than frozen by one seed.
#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "layers.h"
#include "metrics.h"
#include "workloads.h"

namespace record {

namespace {

constexpr std::uint32_t kWideThreads = 4;

struct Instance {
  std::string label;
  std::uint32_t optimum = 0;
  mbb::BipartiteGraph base;   // as generated
  mbb::BipartiteGraph graph;  // the current round's labelling of `base`
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

std::uint64_t LabelSeed(std::uint64_t seed, std::size_t index, std::uint64_t round) {
  return Mix(Mix(seed, index), round);
}

/// Generates instance `index` and its labelling 0.
Instance Build(const std::string& spec, std::uint64_t seed, std::size_t index) {
  const std::vector<std::string> p = Split(spec, ':');
  Instance inst;
  mbb::BipartiteGraph& base = inst.base;
  if (p.size() == 6 && p[0] == "random") {
    base = mbb::RandomUniform(static_cast<std::uint32_t>(std::stoul(p[1])),
                              static_cast<std::uint32_t>(std::stoul(p[2])),
                              std::stod(p[3]), std::stoull(p[4]));
    inst.optimum = static_cast<std::uint32_t>(std::stoul(p[5]));
    inst.label = p[1] + "x" + p[2] + "/d" + p[3] + "/s" + p[4];
  } else if (p.size() == 4 && p[0] == "dataset") {
    const mbb::DatasetSpec* dataset = mbb::FindDataset(p[1]);
    if (dataset == nullptr) throw std::invalid_argument("unknown dataset " + p[1]);
    base = mbb::GenerateSurrogate(*dataset, std::stod(p[2]));
    inst.optimum = static_cast<std::uint32_t>(std::stoul(p[3]));
    inst.label = p[1] + "@" + p[2];
  } else {
    throw std::invalid_argument("bad instance spec: " + spec);
  }
  inst.graph = Relabel(base, LabelSeed(seed, index, 0));
  return inst;
}

std::string GateAnswer(const mbb::MbbResult& r, const Instance& inst,
                       std::uint32_t threads) {
  const std::string where = inst.label + " T=" + std::to_string(threads) + ": ";
  if (!r.exact) return where + "inexact answer";
  const std::string error = CheckBalancedBiclique(inst.graph, r.best);
  if (!error.empty()) return where + error;
  if (r.best.BalancedSize() != inst.optimum) {
    return where + "size " + std::to_string(r.best.BalancedSize()) +
           ", reference optimum " + std::to_string(inst.optimum);
  }
  return "";
}

struct Samples {
  std::vector<double> t1, t4;
  std::vector<double> recursions1, recursions4, spawned4, stolen4;
};

}  // namespace

void RunBatch(const Config& config, Tracer& tracer, RunResult& result) {
  const auto algo_it = config.params.find("algo");
  if (algo_it == config.params.end()) throw std::invalid_argument("missing param algo");
  const std::string algo = algo_it->second;
  const int setup_reps = static_cast<int>(config.Param("setup_reps"));
  Tracer* build_tracer = config.trace ? &tracer : nullptr;

  // ---- Set-up: generation + ingest + labelling 0, repeated; median kept.
  std::vector<Instance> instances;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const double start = Now();
    std::vector<Instance> built;
    for (std::size_t i = 0; i < config.instances.size(); ++i) {
      ScopedSpan span(build_tracer, "graph.build", -1, i);
      built.push_back(Build(config.instances[i], config.seed, i));
    }
    setup_times.push_back(Now() - start);
    instances = std::move(built);
  }

  PerLayer layers;
  if (config.trace) MeasureBitOps(layers, result);

  // ---- Measurement window. ---------------------------------------------
  std::vector<Samples> samples(instances.size());
  std::vector<std::vector<LayerSample>> replays(instances.size());  // 1 thread
  std::vector<std::size_t> order(instances.size());
  std::iota(order.begin(), order.end(), 0);
  const double window_start = Now();
  std::uint64_t rounds = 0;
  std::uint64_t next_id = 0;
  do {
    std::shuffle(order.begin(), order.end(),
                 std::mt19937_64(Mix(config.seed, 1000 + rounds)));
    for (const std::size_t i : order) {
      Instance& inst = instances[i];
      if (rounds > 0) inst.graph = Relabel(inst.base, LabelSeed(config.seed, i, rounds));
      Samples& s = samples[i];
      double start = Now();
      const mbb::MbbResult r1 = SolveUntraced(algo, inst.graph, 1);
      s.t1.push_back(Now() - start);
      s.recursions1.push_back(static_cast<double>(r1.stats.recursions));
      result.Gate(GateAnswer(r1, inst, 1));
      if (config.trace) {
        LayerSample layer;
        const mbb::MbbResult replay =
            SolveTraced(algo, inst.graph, 1, tracer, next_id++, &layer);
        replays[i].push_back(layer);
        result.Gate(GateAnswer(replay, inst, 1));
        const std::string parity = ParityError(r1, replay);
        if (!parity.empty()) {
          result.Gate(inst.label + ": replay parity: " + parity);
        }
      }
      start = Now();
      const mbb::MbbResult r4 = SolveUntraced(algo, inst.graph, kWideThreads);
      s.t4.push_back(Now() - start);
      s.recursions4.push_back(static_cast<double>(r4.stats.recursions));
      s.spawned4.push_back(static_cast<double>(r4.stats.tasks_spawned));
      s.stolen4.push_back(static_cast<double>(r4.stats.tasks_stolen));
      result.Gate(GateAnswer(r4, inst, kWideThreads));
    }
    ++rounds;
  } while (Now() - window_start < config.seconds);
  const double window = Now() - window_start;

  // ---- Reduce: per-instance medians, summed over the instance set. ----
  EndToEnd e2e;
  std::vector<double> median_t1;
  double recursions1 = 0, recursions4 = 0, spawned = 0, stolen = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Samples& s = samples[i];
    median_t1.push_back(Median(s.t1));
    e2e.solve_t4_s += Median(s.t4);
    recursions1 += Median(s.recursions1);
    recursions4 += Median(s.recursions4);
    spawned += Median(s.spawned4);
    stolen += Median(s.stolen4);
    std::ostringstream note;
    note << "t1_s=" << JsonNumber(Median(s.t1))
         << " t4_s=" << JsonNumber(Median(s.t4)) << " rounds=" << s.t1.size()
         << " optimum=" << instances[i].optimum
         << " |E|=" << instances[i].graph.num_edges();
    result.Note("instance " + instances[i].label, note.str());
  }
  e2e.solve_s = std::accumulate(median_t1.begin(), median_t1.end(), 0.0);
  e2e.setup_s = Median(setup_times);
  e2e.peak_rss_mb = PeakRssMb();
  e2e.ok_rate = result.OkRate();
  e2e.qps = static_cast<double>(result.attempted) / window;
  // The batch workloads serve no requests; their latency figures restate
  // the per-instance medians: the typical and the slowest instance.
  e2e.latency_p50_ms = 1e3 * Median(median_t1);
  e2e.latency_p99_ms = 1e3 * *std::max_element(median_t1.begin(), median_t1.end());
  result.Note("threads", "1," + std::to_string(kWideThreads));
  result.Note("rounds", std::to_string(rounds));
  result.Note("window_s", JsonNumber(window));

  if (!config.trace) {
    AddEndToEnd(result, e2e);
    return;
  }

  layers.graph_build_s = e2e.setup_s;
  AddSolveLayers(replays, e2e, recursions1, recursions4, layers);
  layers.parallel_tasks_spawned = spawned;
  layers.parallel_tasks_stolen = stolen;
  AddPerLayer(result, layers);
}

}  // namespace record
