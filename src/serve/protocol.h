#ifndef MBB_SERVE_PROTOCOL_H_
#define MBB_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "graph/bipartite_graph.h"
#include "graph/io.h"
#include "serve/json.h"

namespace mbb::serve {

/// One framed request of the JSON-lines protocol (see docs/SERVING.md for
/// the wire spec). Exactly one graph source is present on solve requests:
/// inline `edges`, a KONECT-text `edge_list`, a named `dataset` surrogate,
/// or a `random` generator spec.
struct Request {
  enum class Kind : std::uint8_t { kSolve, kCancel, kStats, kShutdown };

  Kind kind = Kind::kSolve;
  std::string id;
  std::string target;  // cancel: the id to cancel

  std::string algo = "auto";
  BipartiteGraph graph;  // materialised at parse time (solve only)
  double deadline_ms = 0.0;  // 0 = server default
  std::uint32_t threads = 0;  // 0 = server default
  std::uint32_t initial_bound = 0;
  std::uint32_t size_a = 1;  // sizecon
  std::uint32_t size_b = 1;
  std::uint32_t top_k = 3;   // topk
  /// Per-request memory budget in MiB (0 = the server default, which may
  /// itself be unlimited). Metered at the arena layer; exceeding it yields
  /// a degraded `resource_exhausted` response instead of an OOM kill.
  std::uint32_t budget_mb = 0;
  bool use_cache = true;
};

/// One response line. `ok == false` carries `error` and nothing else
/// meaningful; control responses fill only the fields they mention.
struct Response {
  std::string id;
  bool ok = true;
  std::string error;

  // Solve responses.
  std::uint32_t size = 0;
  std::vector<VertexId> left;
  std::vector<VertexId> right;
  std::vector<Biclique> pool;  // topk only
  bool exact = true;
  /// "", "deadline", "recursion_cap", "external", "resource_exhausted",
  /// or "watchdog" (the job was hard-abandoned).
  std::string stop_cause;
  /// True when the server substituted a fallback incumbent (budget
  /// exhaustion, expired-in-queue) instead of letting the solver finish —
  /// i.e. the answer is best-effort beyond the ordinary `exact:false`.
  bool degraded = false;
  std::string cache;       // "hit", "warm", "miss", "bypass"
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::uint64_t recursions = 0;

  // Stats/inspection responses carry a free-form JSON payload.
  Json payload;
  bool has_payload = false;
};

/// Largest `threads` a request (or the server's `--threads` and
/// `--workers` flags) may ask for.
inline constexpr std::uint32_t kMaxThreads = 1024;

/// Largest deadline, in milliseconds (about 31.7 years), a request's
/// `deadline_ms` or a server `*-ms` flag may carry. Values past ~9.2e12 ms
/// overflow the steady-clock arithmetic that turns a deadline into a time
/// point, which would make the query expire at once.
inline constexpr double kMaxDeadlineMs = 1e12;

/// Limits applied while materialising request graphs — the admission
/// half of payload hardening (the parse half lives in `EdgeListLimits`).
struct RequestLimits {
  EdgeListLimits io;
  /// Max entries of an inline `edges` array.
  std::uint64_t max_inline_edges = 4u << 20;
  /// Max side size of inline / random graphs.
  std::uint64_t max_side = 1u << 24;
};

/// Parses one request line (already JSON-decoded). Returns false with a
/// human-readable `error` on any malformed field; never throws. The graph
/// (when the request is a solve) is fully materialised and validated —
/// downstream code touches no untrusted data.
bool ParseRequest(const Json& json, Request* out, std::string* error,
                  const RequestLimits& limits = {});

/// Convenience: parse from the raw line.
bool ParseRequestLine(const std::string& line, Request* out,
                      std::string* error, const RequestLimits& limits = {});

/// Serializes a response as one JSON line (no trailing newline).
std::string SerializeResponse(const Response& response);

/// Maps a `StopCause` to its wire string ("" for kNone).
std::string StopCauseName(StopCause cause);

}  // namespace mbb::serve

#endif  // MBB_SERVE_PROTOCOL_H_
