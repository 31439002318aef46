#include "engine/faults.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace mbb::faults {
namespace {

/// Every fault point compiled into the binary. `Configure` rejects names
/// outside this list so a typo in --fault-spec fails loudly instead of
/// arming nothing.
constexpr const char* kKnownPoints[] = {
    "alloc.bit_matrix",     // BitMatrix arena allocation -> bad_alloc
    "alloc.search_context", // SearchContext slab growth -> bad_alloc
    "alloc.csr",            // CsrScratch buffer growth -> bad_alloc
    "worker.task",          // ParallelFor item, subtree task -> runtime_error
    "worker.start",         // StealScheduler worker start -> system_error
    "serve.worker_stall",   // serve worker goes quiet (stall, ms=)
    "net.write.drop",       // transport write fails hard (peer gone)
    "net.write.transient",  // transport write fails once with EAGAIN
    "net.read.disconnect",  // transport read sees the client vanish
    "cache.insert",         // result-cache insertion -> bad_alloc
};

bool IsKnownPoint(const std::string& name) {
  for (const char* known : kKnownPoints) {
    if (name == known) return true;
  }
  return false;
}

struct Trigger {
  double probability = 0.0;   // p=
  std::uint64_t nth = 0;      // nth=
  std::uint64_t every = 0;    // every=
  std::uint64_t stall_ms = 0; // ms=
  std::uint64_t max_fires = 0;  // count= (0 = unlimited)
};

struct PointState {
  Trigger trigger;
  std::uint64_t name_hash = 0;
  std::uint64_t hits = 0;   // guarded by Registry::mutex
  std::uint64_t fires = 0;  // guarded by Registry::mutex
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, PointState> points;
  std::string spec;
  std::uint64_t seed = 0;
};

/// Any point armed at all. Checked with a relaxed load before touching the
/// registry mutex so disarmed builds pay one atomic load per site.
std::atomic<bool> g_armed{false};
/// Nesting depth of ScopedSuspend across all threads.
std::atomic<int> g_suspended{0};

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashName(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Parses `spec` into (seed, points). Returns false + error message on any
/// malformed entry without touching the output parameters' final use.
bool ParseSpec(const std::string& spec, std::uint64_t* seed,
               std::unordered_map<std::string, PointState>* points,
               std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  std::stringstream entries(spec);
  std::string entry;
  while (std::getline(entries, entry, ';')) {
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      try {
        *seed = std::stoull(entry.substr(5));
      } catch (const std::exception&) {
        return fail("fault spec: bad seed '" + entry + "'");
      }
      continue;
    }
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      return fail("fault spec: entry '" + entry +
                  "' is not 'point:trigger' or 'seed=N'");
    }
    const std::string name = entry.substr(0, colon);
    if (!IsKnownPoint(name)) {
      std::string known;
      for (const char* point : kKnownPoints) {
        known += known.empty() ? "" : ", ";
        known += point;
      }
      return fail("fault spec: unknown point '" + name + "' (known: " +
                  known + ")");
    }
    PointState state;
    state.name_hash = HashName(name);
    std::stringstream params(entry.substr(colon + 1));
    std::string param;
    bool has_rule = false;
    while (std::getline(params, param, ',')) {
      const std::size_t eq = param.find('=');
      if (eq == std::string::npos) {
        return fail("fault spec: param '" + param + "' is not key=value");
      }
      const std::string key = param.substr(0, eq);
      const std::string value = param.substr(eq + 1);
      try {
        if (key == "p") {
          state.trigger.probability = std::stod(value);
          if (state.trigger.probability <= 0.0 ||
              state.trigger.probability > 1.0) {
            return fail("fault spec: p must be in (0,1], got '" + value +
                        "'");
          }
          has_rule = true;
        } else if (key == "nth") {
          state.trigger.nth = std::stoull(value);
          if (state.trigger.nth == 0) {
            return fail("fault spec: nth must be >= 1");
          }
          has_rule = true;
        } else if (key == "every") {
          state.trigger.every = std::stoull(value);
          if (state.trigger.every == 0) {
            return fail("fault spec: every must be >= 1");
          }
          has_rule = true;
        } else if (key == "ms") {
          state.trigger.stall_ms = std::stoull(value);
        } else if (key == "count") {
          state.trigger.max_fires = std::stoull(value);
        } else {
          return fail("fault spec: unknown param '" + key + "'");
        }
      } catch (const std::exception&) {
        return fail("fault spec: bad value in '" + param + "'");
      }
    }
    if (!has_rule) {
      return fail("fault spec: point '" + name +
                  "' needs one of p=, nth=, every=");
    }
    (*points)[name] = state;
  }
  return true;
}

Registry& GlobalRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    // Environment-driven arming so any binary (tests, benches, the CLI,
    // the server) can run under faults without new flags.
    if (const char* env = std::getenv("MBB_FAULT_SPEC")) {
      if (env[0] != '\0') {
        std::uint64_t seed = 0;
        std::unordered_map<std::string, PointState> points;
        std::string error;
        if (ParseSpec(env, &seed, &points, &error)) {
          r->points = std::move(points);
          r->seed = seed;
          r->spec = env;
          g_armed.store(!r->points.empty(), std::memory_order_release);
        }
      }
    }
    return r;
  }();
  return *registry;
}

/// Force env-spec arming at program start: `Armed()` short-circuits on the
/// atomic without ever constructing the registry, so the construction (and
/// the MBB_FAULT_SPEC read) must not wait for the first armed caller.
[[maybe_unused]] const bool g_env_spec_loaded = [] {
  GlobalRegistry();
  return true;
}();

/// Trigger evaluation; requires the registry mutex. The decision depends
/// only on (seed, name hash, hit index) so schedules replay exactly.
bool EvaluateLocked(const Registry& registry, PointState& state) {
  const std::uint64_t hit = ++state.hits;
  if (state.trigger.max_fires != 0 &&
      state.fires >= state.trigger.max_fires) {
    return false;
  }
  bool fire = false;
  if (state.trigger.nth != 0) {
    fire = hit == state.trigger.nth;
  } else if (state.trigger.every != 0) {
    fire = hit % state.trigger.every == 0;
  } else if (state.trigger.probability > 0.0) {
    const std::uint64_t draw =
        SplitMix64(registry.seed ^ state.name_hash ^ (hit * 0x9e3779b9ULL));
    const double unit =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    fire = unit < state.trigger.probability;
  }
  if (fire) ++state.fires;
  return fire;
}

/// Shared gate for Triggered/StallMs: nullptr result when the point did
/// not fire, else the fired point's state.
PointState* FireLocked(Registry& registry, const char* point) {
  auto it = registry.points.find(point);
  if (it == registry.points.end()) return nullptr;
  return EvaluateLocked(registry, it->second) ? &it->second : nullptr;
}

}  // namespace

bool Configure(const std::string& spec, std::string* error) {
  std::uint64_t seed = 0;
  std::unordered_map<std::string, PointState> points;
  if (!ParseSpec(spec, &seed, &points, error)) return false;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  if (registry.spec == spec && !spec.empty()) return true;  // idempotent
  registry.points = std::move(points);
  registry.seed = seed;
  registry.spec = spec;
  g_armed.store(!registry.points.empty(), std::memory_order_release);
  return true;
}

void Reset() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.points.clear();
  registry.spec.clear();
  registry.seed = 0;
  g_armed.store(false, std::memory_order_release);
}

bool Armed() {
  return g_armed.load(std::memory_order_relaxed) &&
         g_suspended.load(std::memory_order_relaxed) == 0;
}

bool Triggered(const char* point) {
  if (!Armed()) return false;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return FireLocked(registry, point) != nullptr;
}

std::uint64_t StallMs(const char* point) {
  if (!Armed()) return 0;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  PointState* fired = FireLocked(registry, point);
  return fired != nullptr ? fired->trigger.stall_ms : 0;
}

std::uint64_t HitCount(const std::string& point) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.hits;
}

std::uint64_t FireCount(const std::string& point) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.fires;
}

std::string ActiveSpec() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.spec;
}

std::vector<std::string> KnownPoints() {
  return std::vector<std::string>(std::begin(kKnownPoints),
                                  std::end(kKnownPoints));
}

ScopedSuspend::ScopedSuspend() {
  g_suspended.fetch_add(1, std::memory_order_relaxed);
}

ScopedSuspend::~ScopedSuspend() {
  g_suspended.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace mbb::faults
