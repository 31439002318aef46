#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <random>
#include <stdexcept>

namespace record {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

mbb::BipartiteGraph Relabel(const mbb::BipartiteGraph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<mbb::VertexId> left(g.num_left());
  std::vector<mbb::VertexId> right(g.num_right());
  for (mbb::VertexId v = 0; v < g.num_left(); ++v) left[v] = v;
  for (mbb::VertexId v = 0; v < g.num_right(); ++v) right[v] = v;
  std::shuffle(left.begin(), left.end(), rng);
  std::shuffle(right.begin(), right.end(), rng);
  std::vector<mbb::Edge> edges;
  edges.reserve(g.num_edges());
  for (mbb::VertexId l = 0; l < g.num_left(); ++l) {
    for (const mbb::VertexId r : g.Neighbors(mbb::Side::kLeft, l)) {
      edges.emplace_back(left[l], right[r]);
    }
  }
  return mbb::BipartiteGraph::FromEdges(g.num_left(), g.num_right(),
                                        std::move(edges));
}

std::string CheckBiclique(const mbb::BipartiteGraph& g,
                          const mbb::Biclique& b) {
  std::vector<mbb::VertexId> left = b.left;
  std::vector<mbb::VertexId> right = b.right;
  std::sort(left.begin(), left.end());
  std::sort(right.begin(), right.end());
  if (std::adjacent_find(left.begin(), left.end()) != left.end() ||
      std::adjacent_find(right.begin(), right.end()) != right.end()) {
    return "witness repeats a vertex";
  }
  if ((!left.empty() && left.back() >= g.num_left()) ||
      (!right.empty() && right.back() >= g.num_right())) {
    return "witness vertex out of range";
  }
  for (const mbb::VertexId l : left) {
    const auto adj = g.Neighbors(mbb::Side::kLeft, l);
    for (const mbb::VertexId r : right) {
      if (!std::binary_search(adj.begin(), adj.end(), r)) {
        return "witness pair (" + std::to_string(l) + "," +
               std::to_string(r) + ") is not an edge";
      }
    }
  }
  return "";
}

std::string CheckBalancedBiclique(const mbb::BipartiteGraph& g,
                                  const mbb::Biclique& b) {
  if (b.left.size() != b.right.size()) {
    return "witness unbalanced (" + std::to_string(b.left.size()) + " vs " +
           std::to_string(b.right.size()) + ")";
  }
  return CheckBiclique(g, b);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CalibrationMs() {
  // xorshift + multiply-accumulate chain: integer ALU latency bound, no
  // memory traffic, identical work on every run. Best of three.
  double best = 1e300;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = Now();
    std::uint64_t x = 0x243f6a8885a308d3ULL + static_cast<std::uint64_t>(rep);
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0x5851f42d4c957f2dULL + x;
    }
    sink += acc;
    best = std::min(best, (Now() - start) * 1e3);
  }
  if (sink == 42) best += 1e-9;  // keep the loop observable
  return best;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Config::Param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw std::invalid_argument("missing --param " + key);
  return std::stod(it->second);
}

}  // namespace record
