#include "serve/protocol.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "graph/datasets.h"
#include "graph/generators.h"

namespace mbb::serve {

namespace {

bool FailParse(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

/// Reads a non-negative integer field, rejecting fractions and overflow.
bool GetUint(const Json& json, const std::string& key, std::uint64_t max,
             std::uint64_t* out, std::string* error) {
  const Json* value = json.Find(key);
  if (value == nullptr) return true;  // optional, keep default
  if (!value->is_number()) {
    return FailParse(error, "field '" + key + "' must be a number");
  }
  const double number = value->AsDouble();
  if (number < 0 || number != std::floor(number)) {
    return FailParse(error, "field '" + key +
                                "' must be a non-negative integer");
  }
  if (number > static_cast<double>(max)) {
    return FailParse(error, "field '" + key + "' out of range (max " +
                                std::to_string(max) + ")");
  }
  *out = static_cast<std::uint64_t>(number);
  return true;
}

/// Materialises the graph from whichever source the request carries.
bool ParseGraphSource(const Json& json, Request* out, std::string* error,
                      const RequestLimits& limits) {
  const Json* edges = json.Find("edges");
  const Json* edge_list = json.Find("edge_list");
  const Json* dataset = json.Find("dataset");
  const Json* random = json.Find("random");
  const int sources = (edges != nullptr) + (edge_list != nullptr) +
                      (dataset != nullptr) + (random != nullptr);
  if (sources != 1) {
    return FailParse(error,
                     "need exactly one graph source: 'edges', 'edge_list', "
                     "'dataset', or 'random'");
  }

  if (edges != nullptr) {
    if (!edges->is_array()) {
      return FailParse(error, "'edges' must be an array of [left, right]");
    }
    if (edges->AsArray().size() > limits.max_inline_edges) {
      return FailParse(error, "'edges' too large (max " +
                                  std::to_string(limits.max_inline_edges) +
                                  ")");
    }
    std::vector<Edge> parsed;
    parsed.reserve(edges->AsArray().size());
    std::uint64_t max_left = 0;
    std::uint64_t max_right = 0;
    for (const Json& pair : edges->AsArray()) {
      if (!pair.is_array() || pair.AsArray().size() != 2 ||
          !pair.AsArray()[0].is_number() || !pair.AsArray()[1].is_number()) {
        return FailParse(error, "'edges' entries must be [left, right]");
      }
      const double l = pair.AsArray()[0].AsDouble();
      const double r = pair.AsArray()[1].AsDouble();
      if (l < 0 || r < 0 || l != std::floor(l) || r != std::floor(r) ||
          l >= static_cast<double>(limits.max_side) ||
          r >= static_cast<double>(limits.max_side)) {
        return FailParse(error, "edge endpoint out of range: [" +
                                    std::to_string(l) + ", " +
                                    std::to_string(r) + "]");
      }
      const auto lv = static_cast<VertexId>(l);
      const auto rv = static_cast<VertexId>(r);
      parsed.emplace_back(lv, rv);
      max_left = std::max<std::uint64_t>(max_left, lv);
      max_right = std::max<std::uint64_t>(max_right, rv);
    }
    std::uint64_t num_left = parsed.empty() ? 0 : max_left + 1;
    std::uint64_t num_right = parsed.empty() ? 0 : max_right + 1;
    if (!GetUint(json, "num_left", limits.max_side, &num_left, error) ||
        !GetUint(json, "num_right", limits.max_side, &num_right, error)) {
      return false;
    }
    if (num_left < (parsed.empty() ? 0 : max_left + 1) ||
        num_right < (parsed.empty() ? 0 : max_right + 1)) {
      return FailParse(error, "num_left/num_right smaller than edge ids");
    }
    out->graph = BipartiteGraph::FromEdges(static_cast<std::uint32_t>(num_left),
                                           static_cast<std::uint32_t>(num_right),
                                           std::move(parsed));
    return true;
  }

  if (edge_list != nullptr) {
    if (!edge_list->is_string()) {
      return FailParse(error, "'edge_list' must be a string");
    }
    std::istringstream in(edge_list->AsString());
    ParsedEdgeList parsed = ReadEdgeListSafe(in, limits.io);
    if (!parsed.ok()) {
      return FailParse(error, "bad edge_list: " + parsed.error.ToString());
    }
    out->graph = std::move(parsed.graph);
    return true;
  }

  if (dataset != nullptr) {
    if (!dataset->is_string()) {
      return FailParse(error, "'dataset' must be a string");
    }
    const DatasetSpec* spec = FindDataset(dataset->AsString());
    if (spec == nullptr) {
      return FailParse(error, "unknown dataset: " + dataset->AsString());
    }
    const double scale = json.GetNumber("scale", 0.05);
    if (!(scale > 0.0) || scale > 1.0) {
      return FailParse(error, "'scale' must be in (0, 1]");
    }
    std::uint64_t seed = 0;
    if (!GetUint(json, "seed", ~std::uint64_t{0} >> 12, &seed, error)) {
      return false;
    }
    out->graph = GenerateSurrogate(*spec, scale, seed);
    return true;
  }

  // "random": [num_left, num_right, density, seed]
  if (!random->is_array() || random->AsArray().size() != 4) {
    return FailParse(error,
                     "'random' must be [num_left, num_right, density, seed]");
  }
  const Json::Array& spec = random->AsArray();
  for (const Json& field : spec) {
    if (!field.is_number()) {
      return FailParse(error, "'random' entries must be numbers");
    }
  }
  const double nl = spec[0].AsDouble();
  const double nr = spec[1].AsDouble();
  const double density = spec[2].AsDouble();
  const double seed = spec[3].AsDouble();
  if (nl < 0 || nr < 0 || nl > static_cast<double>(limits.max_side) ||
      nr > static_cast<double>(limits.max_side) || nl != std::floor(nl) ||
      nr != std::floor(nr)) {
    return FailParse(error, "'random' side sizes out of range");
  }
  if (!(density >= 0.0) || density > 1.0) {
    return FailParse(error, "'random' density must be in [0, 1]");
  }
  if (seed < 0 || seed != std::floor(seed)) {
    return FailParse(error, "'random' seed must be a non-negative integer");
  }
  out->graph = RandomUniform(static_cast<std::uint32_t>(nl),
                             static_cast<std::uint32_t>(nr), density,
                             static_cast<std::uint64_t>(seed));
  return true;
}

}  // namespace

bool ParseRequest(const Json& json, Request* out, std::string* error,
                  const RequestLimits& limits) {
  if (!json.is_object()) {
    return FailParse(error, "request must be a JSON object");
  }
  *out = Request();
  out->id = json.GetString("id");

  const std::string cmd = json.GetString("cmd", "solve");
  if (cmd == "cancel") {
    out->kind = Request::Kind::kCancel;
    out->target = json.GetString("target");
    if (out->target.empty()) {
      return FailParse(error, "cancel needs a 'target' id");
    }
    return true;
  }
  if (cmd == "stats") {
    out->kind = Request::Kind::kStats;
    return true;
  }
  if (cmd == "shutdown") {
    out->kind = Request::Kind::kShutdown;
    return true;
  }
  if (cmd != "solve") {
    return FailParse(error, "unknown cmd: " + cmd);
  }

  out->kind = Request::Kind::kSolve;
  out->algo = json.GetString("algo", "auto");
  const Json* deadline = json.Find("deadline_ms");
  if (deadline != nullptr) {
    if (!deadline->is_number() || deadline->AsDouble() < 0 ||
        deadline->AsDouble() > kMaxDeadlineMs) {
      return FailParse(error, "'deadline_ms' must be a number in [0, 1e12]");
    }
    out->deadline_ms = deadline->AsDouble();
  }
  std::uint64_t value = 0;
  if (!GetUint(json, "threads", kMaxThreads, &value, error)) return false;
  out->threads = static_cast<std::uint32_t>(value);
  value = 0;
  if (!GetUint(json, "initial_bound", ~std::uint32_t{0}, &value, error)) {
    return false;
  }
  out->initial_bound = static_cast<std::uint32_t>(value);
  value = 1;
  if (!GetUint(json, "a", ~std::uint32_t{0}, &value, error)) return false;
  out->size_a = static_cast<std::uint32_t>(value);
  value = 1;
  if (!GetUint(json, "b", ~std::uint32_t{0}, &value, error)) return false;
  out->size_b = static_cast<std::uint32_t>(value);
  value = 3;
  if (!GetUint(json, "k", 1u << 20, &value, error)) return false;
  out->top_k = static_cast<std::uint32_t>(value);
  value = 0;
  if (!GetUint(json, "budget_mb", 1u << 20, &value, error)) return false;
  out->budget_mb = static_cast<std::uint32_t>(value);
  const Json* cache = json.Find("cache");
  if (cache != nullptr) {
    if (!cache->is_bool()) {
      return FailParse(error, "'cache' must be a boolean");
    }
    out->use_cache = cache->AsBool();
  }
  return ParseGraphSource(json, out, error, limits);
}

bool ParseRequestLine(const std::string& line, Request* out,
                      std::string* error, const RequestLimits& limits) {
  Json json;
  if (!ParseJson(line, &json, error)) return false;
  return ParseRequest(json, out, error, limits);
}

std::string SerializeResponse(const Response& response) {
  Json::Object object;
  object.emplace("id", Json(response.id));
  object.emplace("ok", Json(response.ok));
  if (!response.ok) {
    object.emplace("error", Json(response.error));
    // Structured errors (watchdog abandons, shutdown rejections) carry
    // their cause so clients can distinguish them from invalid requests.
    if (!response.stop_cause.empty()) {
      object.emplace("stop_cause", Json(response.stop_cause));
    }
    return Json(std::move(object)).Dump();
  }
  if (response.has_payload) {
    object.emplace("stats", response.payload);
    return Json(std::move(object)).Dump();
  }
  if (!response.cache.empty()) {
    object.emplace("size", Json(response.size));
    Json::Array left;
    for (const VertexId v : response.left) left.emplace_back(v);
    Json::Array right;
    for (const VertexId v : response.right) right.emplace_back(v);
    object.emplace("left", Json(std::move(left)));
    object.emplace("right", Json(std::move(right)));
    if (!response.pool.empty()) {
      Json::Array pool;
      for (const Biclique& biclique : response.pool) {
        Json::Object entry;
        Json::Array pool_left;
        for (const VertexId v : biclique.left) pool_left.emplace_back(v);
        Json::Array pool_right;
        for (const VertexId v : biclique.right) pool_right.emplace_back(v);
        entry.emplace("left", Json(std::move(pool_left)));
        entry.emplace("right", Json(std::move(pool_right)));
        pool.emplace_back(std::move(entry));
      }
      object.emplace("pool", Json(std::move(pool)));
    }
    object.emplace("exact", Json(response.exact));
    if (response.degraded) object.emplace("degraded", Json(true));
    if (!response.stop_cause.empty()) {
      object.emplace("stop_cause", Json(response.stop_cause));
    }
    object.emplace("cache", Json(response.cache));
    // Microsecond granularity keeps the lines short and diffable.
    object.emplace("queue_ms", Json(std::round(response.queue_ms * 1e3) / 1e3));
    object.emplace("solve_ms", Json(std::round(response.solve_ms * 1e3) / 1e3));
    object.emplace("recursions", Json(response.recursions));
  }
  return Json(std::move(object)).Dump();
}

std::string StopCauseName(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "";
    case StopCause::kDeadline: return "deadline";
    case StopCause::kRecursionCap: return "recursion_cap";
    case StopCause::kExternal: return "external";
    case StopCause::kResourceExhausted: return "resource_exhausted";
  }
  return "";
}

}  // namespace mbb::serve
