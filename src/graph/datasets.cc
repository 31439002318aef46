#include "graph/datasets.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "graph/generators.h"

namespace mbb {

namespace {

// Shape parameters transcribed from Table 5 of the paper. Density is the
// printed "Density x 1e-4" value times 1e-4. The dblp-author row is printed
// as |R| = 4,000 in the arXiv text, which is inconsistent with the published
// KONECT statistics (about 4 million publications); we use the KONECT value
// and recompute its density from the real edge count.
constexpr std::array<DatasetSpec, 30> kTable5 = {{
    {"unicodelang", 254, 614, 8.0e-4, 4, false},
    {"moreno-crime-crime", 829, 551, 3.2e-4, 2, false},
    {"opsahl-ucforum", 899, 522, 71.855e-4, 5, false},
    {"escorts", 10106, 6624, 0.756e-4, 6, false},
    {"jester", 173421, 100, 563.376e-4, 100, true},
    {"pics-ut", 17122, 82035, 1.637e-4, 30, true},
    {"youtube-groupmemberships", 94238, 30087, 0.103e-4, 12, false},
    {"dbpedia-writer", 89356, 46213, 0.035e-4, 6, false},
    {"dbpedia-starring", 76099, 81085, 0.046e-4, 6, false},
    {"github", 56519, 120867, 0.064e-4, 12, true},
    {"dbpedia-recordlabel", 168337, 18421, 0.075e-4, 6, false},
    {"dbpedia-producer", 48833, 138844, 0.031e-4, 6, false},
    {"dbpedia-location", 172091, 53407, 0.032e-4, 5, false},
    {"dbpedia-occupation", 127577, 101730, 0.019e-4, 6, false},
    {"dbpedia-genre", 258934, 7783, 0.230e-4, 7, false},
    {"discogs-lgenre", 270771, 15, 1021.2e-4, 15, false},
    {"bookcrossing-full-rating", 105278, 340523, 0.032e-4, 13, true},
    {"flickr-groupmemberships", 395979, 103631, 0.208e-4, 47, true},
    {"actor-movie", 127823, 383640, 0.030e-4, 8, true},
    {"stackexchange-stackoverflow", 545196, 96680, 0.025e-4, 9, true},
    {"bibsonomy-2ui", 5794, 767447, 0.575e-4, 8, false},
    {"dbpedia-team", 901166, 34461, 0.044e-4, 6, false},
    {"reuters", 781265, 283911, 0.273e-4, 51, true},
    {"discogs-style", 1617943, 383, 38.868e-4, 42, true},
    {"gottron-trec", 556077, 1173225, 0.128e-4, 101, true},
    {"edit-frwiktionary", 5017, 1907247, 0.773e-4, 19, false},
    {"discogs-affiliation", 1754823, 270771, 0.030e-4, 26, true},
    {"wiki-en-cat", 1853493, 182947, 0.011e-4, 14, false},
    {"edit-dewiki", 425842, 3195148, 0.042e-4, 49, true},
    {"dblp-author", 1425813, 4000150, 0.015e-4, 10, false},
}};

// Table 6 lists the tough datasets top-down as D1..D12 in this order.
constexpr std::array<DatasetSpec, 12> kTough = {{
    kTable5[4],   // D1  jester
    kTable5[5],   // D2  pics-ut
    kTable5[9],   // D3  github
    kTable5[16],  // D4  bookcrossing-full-rating
    kTable5[17],  // D5  flickr-groupmemberships
    kTable5[18],  // D6  actor-movie
    kTable5[19],  // D7  stackexchange-stackoverflow
    kTable5[22],  // D8  reuters
    kTable5[23],  // D9  discogs-style
    kTable5[24],  // D10 gottron-trec
    kTable5[26],  // D11 discogs-affiliation
    kTable5[28],  // D12 edit-dewiki
}};

std::uint64_t HashName(std::string_view name) {
  // FNV-1a, stable across platforms so surrogates are reproducible.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::span<const DatasetSpec> Table5Datasets() { return kTable5; }

std::span<const DatasetSpec> ToughDatasets() { return kTough; }

const DatasetSpec* FindDataset(std::string_view name) {
  const auto it =
      std::find_if(kTable5.begin(), kTable5.end(),
                   [name](const DatasetSpec& d) { return d.name == name; });
  return it == kTable5.end() ? nullptr : &*it;
}

std::uint64_t SurrogateEdgeTarget(const DatasetSpec& spec, double scale) {
  const double nl = std::max(
      static_cast<double>(spec.optimum),
      std::round(static_cast<double>(spec.num_left) * scale));
  const double nr = std::max(
      static_cast<double>(spec.optimum),
      std::round(static_cast<double>(spec.num_right) * scale));
  return static_cast<std::uint64_t>(spec.density * nl * nr);
}

namespace {

/// Draws up to `count` distinct vertices of [0, n) outside `forbidden`,
/// uniformly with rejection; gives up after a bounded number of draws, so
/// a crowded side can return fewer.
std::vector<VertexId> SamplePatch(Rng& rng, std::uint32_t n,
                                  std::uint32_t count,
                                  const std::vector<bool>& forbidden) {
  std::vector<VertexId> out;
  out.reserve(count);
  std::uniform_int_distribution<std::uint32_t> dist(0, n - 1);
  std::vector<bool> taken(n, false);
  std::uint32_t guard = 0;
  while (out.size() < count && ++guard < 20 * count + 1000) {
    const VertexId v = dist(rng);
    if (taken[v] || forbidden[v]) continue;
    taken[v] = true;
    out.push_back(v);
  }
  return out;
}

/// Adds a "decoy community" to `edges`: a crown — a complete (k+2) x (k+2)
/// biclique minus a perfect matching — on fresh vertices. Its minimum
/// degree is k+1, so it survives Lemma 4's (k+1)-core reduction and keeps
/// the graph degeneracy above the planted optimum (defeating the Lemma 5
/// certificate), yet its own maximum balanced biclique is only
/// ⌊(k+2)/2⌋ by the König bound (the complement is a perfect matching).
/// Real KONECT graphs are full of such dense-but-incomplete communities;
/// they are what forces the paper's pipeline past step 1 and into the
/// bridge / verification machinery. The crown's complement is a union of
/// single edges, so verification also exercises Algorithm 2's polynomial
/// path handling.
void AddCrownDecoy(std::uint32_t num_left, std::uint32_t num_right,
                   std::uint32_t m, const std::vector<bool>& forbidden_left,
                   const std::vector<bool>& forbidden_right, Rng& rng,
                   std::vector<Edge>& edges) {
  if (m > num_left / 3 || m > num_right / 3) return;

  const std::vector<VertexId> left =
      SamplePatch(rng, num_left, m, forbidden_left);
  const std::vector<VertexId> right =
      SamplePatch(rng, num_right, m, forbidden_right);
  if (left.size() < m || right.size() < m) return;

  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      if (i == j) continue;  // the removed perfect matching
      edges.emplace_back(left[i], right[j]);
    }
  }
}

/// Marks a decoy's vertices as used so successive decoys stay disjoint.
void ForbidVertices(const std::vector<Edge>& edges, std::size_t from,
                    std::vector<bool>& forbidden_left,
                    std::vector<bool>& forbidden_right) {
  for (std::size_t i = from; i < edges.size(); ++i) {
    forbidden_left[edges[i].first] = true;
    forbidden_right[edges[i].second] = true;
  }
}

/// A "rough" decoy: a complete m x m biclique minus three disjoint perfect
/// matchings (circulant: left i misses right (i+j) mod m for j in {0,1,2}).
/// Minimum degree m-3, so with m = k+4 it survives the (k+1)-core; the
/// complement is 3-regular — beyond Lemma 3 — so the verification search
/// has to branch before the polynomial case applies, exercising the real
/// denseMBB machinery (this is what gives Figure 5 its non-trivial search
/// depths). Its MBB is at most ⌊m/2⌋ by König (regular bipartite
/// complements have perfect matchings), safely below the planted optimum.
void AddRoughDecoy(std::uint32_t num_left, std::uint32_t num_right,
                   std::uint32_t m, const std::vector<bool>& forbidden_left,
                   const std::vector<bool>& forbidden_right, Rng& rng,
                   std::vector<Edge>& edges) {
  if (m < 6 || m > num_left / 3 || m > num_right / 3) return;

  const std::vector<VertexId> left =
      SamplePatch(rng, num_left, m, forbidden_left);
  const std::vector<VertexId> right =
      SamplePatch(rng, num_right, m, forbidden_right);
  if (left.size() < m || right.size() < m) return;

  for (std::uint32_t i = 0; i < m; ++i) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::uint32_t offset = (j + m - i) % m;
      if (offset <= 2) continue;  // the three removed matchings
      edges.emplace_back(left[i], right[j]);
    }
  }
}

}  // namespace

BipartiteGraph GenerateSurrogate(const DatasetSpec& spec, double scale,
                                 std::uint64_t seed_mix) {
  const std::uint32_t nl = std::max(
      spec.optimum, static_cast<std::uint32_t>(std::round(
                        static_cast<double>(spec.num_left) * scale)));
  const std::uint32_t nr = std::max(
      spec.optimum, static_cast<std::uint32_t>(std::round(
                        static_cast<double>(spec.num_right) * scale)));
  const std::uint64_t target =
      static_cast<std::uint64_t>(spec.density * static_cast<double>(nl) *
                                 static_cast<double>(nr));
  const std::uint64_t seed = HashName(spec.name) ^ seed_mix;

  // Exponent ~2.1 matches the heavy-tailed degree distributions typical of
  // the KONECT collection.
  std::vector<Edge> edges =
      ChungLuEdges(nl, nr, target, /*exponent=*/2.1, seed);

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const PlantedBiclique planted =
      PlantBalancedBiclique(nl, nr, spec.optimum, rng, edges);

  // Decoy communities (only for optima large enough that the crown MBB
  // ⌊(k+2)/2⌋ stays strictly below the planted optimum).
  if (spec.optimum >= 8) {
    std::vector<bool> forbidden_left(nl, false);
    std::vector<bool> forbidden_right(nr, false);
    for (const VertexId v : planted.left) forbidden_left[v] = true;
    for (const VertexId v : planted.right) forbidden_right[v] = true;
    // Crown size tunes which pipeline step certifies the result: a
    // (k+2)-crown loses its matched partner inside the vertex-centred
    // subgraph, leaving degeneracy exactly k*, so the bridge prunes it
    // (S2); a (k+3)-crown survives into step 3 and makes the verification
    // search run for real (tough datasets).
    const int decoys = spec.tough ? 3 : 1;
    const std::uint32_t crown_m = spec.optimum + (spec.tough ? 3 : 2);
    for (int i = 0; i < decoys; ++i) {
      const std::size_t before = edges.size();
      AddCrownDecoy(nl, nr, crown_m, forbidden_left, forbidden_right, rng,
                    edges);
      ForbidVertices(edges, before, forbidden_left, forbidden_right);
    }
    if (spec.tough) {
      // Two rough decoys per tough dataset: m = k+8 keeps the centred
      // subgraph's degeneracy above k even after the construction shaves
      // the centre's three missing partners, so verification must branch.
      for (int i = 0; i < 2; ++i) {
        const std::size_t before = edges.size();
        AddRoughDecoy(nl, nr, spec.optimum + 8, forbidden_left,
                      forbidden_right, rng, edges);
        ForbidVertices(edges, before, forbidden_left, forbidden_right);
      }
    }
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

}  // namespace mbb
