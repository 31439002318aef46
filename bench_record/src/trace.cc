#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util.h"

namespace record {

int Tracer::Begin(std::string name, int parent, std::uint64_t id) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.id = id;
  span.start = Now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) { spans_[static_cast<std::size_t>(index)].end = Now(); }

int Tracer::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::Duration(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end - s.start;
}

std::vector<double> Tracer::SelfTimes(std::size_t first) const {
  const std::size_t count = spans_.size() - std::min(first, spans_.size());
  std::vector<std::vector<std::pair<double, double>>> children(count);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) >= first) {
      children[static_cast<std::size_t>(parent) - first].emplace_back(
          spans_[i].start, spans_[i].end);
    }
  }
  std::vector<double> self(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[first + i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals clipped to the parent.
    double covered = 0;
    double run_start = 0;
    double run_end = -1e300;
    for (auto [a, b] : intervals) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << JsonString(s.name) << ",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.id << ",\"ts\":" << JsonNumber((s.start - origin) * 1e6)
        << ",\"dur\":" << JsonNumber((s.end - s.start) * 1e6)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace record
