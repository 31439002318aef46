// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark's own code around calls into the library's public
// functions; nothing inside the library is instrumented. Single-threaded:
// spans of concurrent work are added after the fact with `Add`.
#ifndef BENCH_RECORD_TRACE_H_
#define BENCH_RECORD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace record {

struct Span {
  std::string name;
  double start = 0;  // steady-clock seconds
  double end = 0;
  int parent = -1;   // index into the tracer's spans, -1 = root
  std::uint64_t id = 0;  // solve / request id shared by a span tree
};

class Tracer {
 public:
  int Begin(std::string name, int parent, std::uint64_t id);
  void End(int index);
  int Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int index) const;
  /// Self time of every span from `first` on: its duration minus the part
  /// of it its children cover. Children are recorded after their parent,
  /// so a tree opened at `first` is complete in the result.
  std::vector<double> SelfTimes(std::size_t first = 0) const;

  /// Writes the spans as a Chrome trace-event JSON array (one complete
  /// event per span, microseconds from the first span). Returns false when
  /// the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, so untraced and traced code paths are one.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, std::uint64_t id)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, parent, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace record

#endif  // BENCH_RECORD_TRACE_H_
