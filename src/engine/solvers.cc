/// The built-in `MbbSolver` adapters: every algorithm in the library —
/// the paper's denseMBB/hbvMBB, the basicBB reference, the four §6
/// baselines, the two local-search heuristics, and the brute-force oracle
/// — wrapped behind the uniform registry interface. Each adapter derives
/// its `SearchLimits` from the unified `SolverOptions` budget and pools
/// its scratch in a per-call `SearchContext`.

#include <memory>
#include <utility>

#include "baselines/adapted.h"
#include "baselines/brute_force.h"
#include "baselines/ext_bbclq.h"
#include "baselines/fmbe.h"
#include "baselines/imbea.h"
#include "baselines/pols.h"
#include "baselines/sbmnas.h"
#include "core/basic_bb.h"
#include "core/dense_mbb.h"
#include "core/hbv_mbb.h"
#include "core/size_constrained.h"
#include "core/top_k.h"
#include "engine/registry.h"
#include "engine/search_context.h"
#include "graph/dense_subgraph.h"

namespace mbb {

namespace internal {
void EnsureBuiltinSolversLinked() {}
}  // namespace internal

namespace {

/// Base for the exact/heuristic adapters below: stores the registry key.
template <bool kExact>
class NamedSolver : public MbbSolver {
 public:
  explicit NamedSolver(std::string_view name) : name_(name) {}
  std::string_view Name() const override { return name_; }
  bool IsExact() const override { return kExact; }

 private:
  std::string_view name_;
};

/// The `initial_bound` contract for the adapters whose algorithm takes no
/// incumbent: an answer that does not beat the bound is reported empty.
MbbResult AboveBound(MbbResult result, std::uint32_t bound) {
  if (result.best.BalancedSize() <= bound) result.best = Biclique();
  return result;
}

// ---------------------------------------------------------------------------
// Dense-side exact searchers (whole-graph DenseSubgraph).
// ---------------------------------------------------------------------------

class DenseSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    SearchContext local;
    SearchContext* ctx = options.context != nullptr ? options.context : &local;
    DenseMbbOptions dense;
    static_cast<ExecPolicy&>(dense) = options.Policy();
    return DenseMbbSolve(DenseSubgraph::Whole(g), dense, options.initial_bound,
                         ctx);
  }
};

class BasicSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    SearchContext local;
    SearchContext* ctx = options.context != nullptr ? options.context : &local;
    return BasicBbSolve(DenseSubgraph::Whole(g), options.Limits(),
                        options.initial_bound, ctx);
  }
};

// ---------------------------------------------------------------------------
// Sparse framework (Algorithm 4) and its breakdown presets.
// ---------------------------------------------------------------------------

/// `hbv` runs the default `HbvOptions`; the `bd1`..`bd5` aliases run the
/// ablation presets.
class HbvSolver final : public NamedSolver<true> {
 public:
  HbvSolver(std::string_view name, HbvOptions preset)
      : NamedSolver(name), preset_(std::move(preset)) {}

  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    HbvOptions hbv = preset_;
    static_cast<ExecPolicy&>(hbv) = options.Policy();
    return AboveBound(HbvMbb(g, hbv), options.initial_bound);
  }

 private:
  HbvOptions preset_;
};

/// Density-dispatching convenience solver (`FindMaximumBalancedBiclique`).
class AutoSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    HbvOptions hbv;
    static_cast<ExecPolicy&>(hbv) = options.Policy();
    return AboveBound(FindMaximumBalancedBiclique(g, hbv),
                      options.initial_bound);
  }
};

// ---------------------------------------------------------------------------
// §6 baselines.
// ---------------------------------------------------------------------------

class ExtBbclqSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    return ExtBbclqSolve(g, options.Limits(), options.initial_bound);
  }
};

class ImbeaSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    return ImbeaSolve(g, options.Limits(), options.initial_bound);
  }
};

class FmbeSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    return FmbeSolve(g, options.Limits(), options.initial_bound,
                     options.num_threads, options.deterministic);
  }
};

/// `adp1`..`adp4`; `adapted` is an alias of `adp3`.
class AdaptedSolver final : public NamedSolver<true> {
 public:
  AdaptedSolver(std::string_view name, AdpVariant variant)
      : NamedSolver(name), variant_(variant) {}

  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    return AboveBound(
        AdpSolve(g, variant_, options.Limits(), options.num_threads,
                 options.deterministic),
        options.initial_bound);
  }

 private:
  AdpVariant variant_;
};

// ---------------------------------------------------------------------------
// Problem variants on the same substrate (§4.2 size-constrained decision,
// vertex-disjoint top-k) — reachable from the serving protocol via the
// `size_a`/`size_b` and `top_k` knobs.
// ---------------------------------------------------------------------------

/// `sizecon`: reports a biclique with `|A| >= size_a` and `|B| >= size_b`
/// (possibly unbalanced — that asymmetry is the point of the variant), or
/// an empty result when none exists.
class SizeConstrainedSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    MbbResult result;
    const std::optional<Biclique> witness = FindSizeConstrainedBiclique(
        DenseSubgraph::Whole(g), options.size_a, options.size_b,
        options.Limits(), &result.stats, options.context);
    if (witness.has_value()) result.best = *witness;
    result.exact = !result.stats.timed_out;
    return result;
  }
};

/// `topk`: the `options.top_k` largest vertex-disjoint balanced bicliques
/// by peel-and-repeat; the list lands in `MbbResult::pool` (largest
/// first), `best` is the first entry.
class TopKSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    TopKOptions topk;
    topk.k = options.top_k;
    static_cast<ExecPolicy&>(topk.hbv) = options.Policy();
    TopKResult found = TopKMbb(g, topk);
    MbbResult result;
    if (!found.bicliques.empty()) result.best = found.bicliques.front();
    result.pool = std::move(found.bicliques);
    result.stats = found.stats;
    result.exact = found.exact;
    return result;
  }
};

// ---------------------------------------------------------------------------
// Heuristics (IsExact() == false, results report exact == false).
// ---------------------------------------------------------------------------

class PolsSolver final : public NamedSolver<false> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    PolsOptions pols;
    pols.limits = options.Limits();
    MbbResult result;
    result.best = PolsSolve(g, pols);
    result.exact = false;
    return result;
  }
};

class SbmnasSolver final : public NamedSolver<false> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    SbmnasOptions sbmnas;
    sbmnas.limits = options.Limits();
    MbbResult result;
    result.best = SbmnasSolve(g, sbmnas);
    result.exact = false;
    return result;
  }
};

// ---------------------------------------------------------------------------
// Brute-force oracle (tests / cross-validation; min(|L|,|R|) <= 24).
// ---------------------------------------------------------------------------

class BruteSolver final : public NamedSolver<true> {
 public:
  using NamedSolver::NamedSolver;
  MbbResult Solve(const BipartiteGraph& g,
                  const SolverOptions& options) const override {
    (void)options;  // exhaustive by construction; no limits, no incumbent
    MbbResult result;
    result.best = BruteForceMbb(g);
    return result;
  }
};

template <typename Solver, typename... Args>
SolverRegistry::Factory MakeFactory(std::string_view name, Args... args) {
  return [name, args...] {
    return std::make_unique<Solver>(name, args...);
  };
}

#define MBB_REGISTER_SOLVER(key, Solver, ...)                       \
  const SolverRegistration kRegister_##Solver##_##key(              \
      #key, MakeFactory<Solver>(#key __VA_OPT__(, ) __VA_ARGS__))

MBB_REGISTER_SOLVER(dense, DenseSolver);
MBB_REGISTER_SOLVER(basic, BasicSolver);
MBB_REGISTER_SOLVER(hbv, HbvSolver, HbvOptions{});
MBB_REGISTER_SOLVER(bd1, HbvSolver, HbvOptions::Bd1());
MBB_REGISTER_SOLVER(bd2, HbvSolver, HbvOptions::Bd2());
MBB_REGISTER_SOLVER(bd3, HbvSolver, HbvOptions::Bd3());
MBB_REGISTER_SOLVER(bd4, HbvSolver, HbvOptions::Bd4());
MBB_REGISTER_SOLVER(bd5, HbvSolver, HbvOptions::Bd5());
MBB_REGISTER_SOLVER(auto, AutoSolver);
MBB_REGISTER_SOLVER(extbbclq, ExtBbclqSolver);
MBB_REGISTER_SOLVER(imbea, ImbeaSolver);
MBB_REGISTER_SOLVER(fmbe, FmbeSolver);
MBB_REGISTER_SOLVER(adapted, AdaptedSolver, AdpVariant::kAdp3);
MBB_REGISTER_SOLVER(adp1, AdaptedSolver, AdpVariant::kAdp1);
MBB_REGISTER_SOLVER(adp2, AdaptedSolver, AdpVariant::kAdp2);
MBB_REGISTER_SOLVER(adp3, AdaptedSolver, AdpVariant::kAdp3);
MBB_REGISTER_SOLVER(adp4, AdaptedSolver, AdpVariant::kAdp4);
MBB_REGISTER_SOLVER(pols, PolsSolver);
MBB_REGISTER_SOLVER(sbmnas, SbmnasSolver);
MBB_REGISTER_SOLVER(brute, BruteSolver);
MBB_REGISTER_SOLVER(sizecon, SizeConstrainedSolver);
MBB_REGISTER_SOLVER(topk, TopKSolver);

#undef MBB_REGISTER_SOLVER

}  // namespace

}  // namespace mbb
