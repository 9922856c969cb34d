#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "search/alphabet.hpp"
#include "search/combinations.hpp"

namespace perfbench {

using qarch::Rng;
namespace graph = qarch::graph;
namespace qaoa = qarch::qaoa;
namespace search = qarch::search;

namespace {

// Fixed base instances. The run seed never changes their structure, only
// their labels (see SearchInputs).
constexpr std::uint64_t kSearchBaseSeed = 2023;
constexpr std::uint64_t kSampleBaseSeed = 2024;
constexpr std::uint64_t kSampleMixerSeed = 77;
constexpr std::size_t kSampleMixers = 12;

// Distinct streams per purpose, so adding a draw to one never shifts
// another.
std::uint64_t stream(std::uint64_t seed, std::uint64_t purpose) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (purpose + 0x632be59bd9b4e019ULL);
}

template <typename T>
void shuffle(std::vector<T>& xs, Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i)
    std::swap(xs[i - 1], xs[rng.uniform_int(i)]);
}

std::vector<qaoa::MixerSpec> product_space(std::size_t k_max) {
  return search::all_combinations(search::GateAlphabet::standard(), k_max,
                                  search::CombinationMode::Product);
}

}  // namespace

Workload workload_from_name(const std::string& name) {
  if (name == "search_sv") return Workload::SearchSv;
  if (name == "search_tn") return Workload::SearchTn;
  if (name == "sample_tn") return Workload::SampleTn;
  if (name == "serve_mixed") return Workload::ServeMixed;
  throw std::invalid_argument("unknown workload: " + name);
}

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::SearchSv: return "search_sv";
    case Workload::SearchTn: return "search_tn";
    case Workload::SampleTn: return "sample_tn";
    case Workload::ServeMixed: return "serve_mixed";
  }
  throw std::invalid_argument("invalid workload");
}

graph::Graph relabel(const graph::Graph& base, std::uint64_t seed) {
  std::vector<std::size_t> perm(base.num_vertices());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(seed);
  shuffle(perm, rng);
  graph::Graph g(base.num_vertices());
  for (const graph::Edge& e : base.edges())
    g.add_edge(perm[e.u], perm[e.v], e.weight);
  return g;
}

graph::Graph reorder_edges(const graph::Graph& base, std::uint64_t seed) {
  std::vector<graph::Edge> edges = base.edges();
  Rng rng(seed);
  shuffle(edges, rng);
  graph::Graph g(base.num_vertices());
  for (const graph::Edge& e : edges) g.add_edge(e.u, e.v, e.weight);
  return g;
}

SearchInputs search_inputs(Workload w, std::uint64_t seed) {
  if (w == Workload::ServeMixed)
    throw std::invalid_argument("serve_mixed is not a search workload");
  SearchInputs in;
  in.workload = w;
  if (w == Workload::SampleTn) {
    Rng base_rng(kSampleBaseSeed);
    in.graph = reorder_edges(graph::random_regular(10, 3, base_rng),
                             stream(seed, 1));
    in.p_max = 1;
    // A fixed dozen of the k<=2 mixers: the CVaR sampling cost differs about
    // 3x between mixers, so redrawing them per seed would swamp any change
    // being measured.
    std::vector<qaoa::MixerSpec> space = product_space(2);
    Rng mixer_rng(kSampleMixerSeed);
    shuffle(space, mixer_rng);
    space.resize(kSampleMixers);
    in.mixers = std::move(space);
  } else {
    Rng base_rng(kSearchBaseSeed);
    in.graph = relabel(graph::random_regular(14, 3, base_rng),
                       stream(seed, 1));
    in.p_max = 2;
    in.mixers = product_space(2);  // 5 + 25 = 30 mixers per depth
  }
  for (std::size_t p = 1; p <= in.p_max; ++p)
    for (const qaoa::MixerSpec& m : in.mixers) in.candidates.push_back({m, p});
  return in;
}

ServeInputs serve_inputs(std::uint64_t seed, double window_seconds) {
  ServeInputs in;
  Rng graph_rng(stream(seed, 2));
  in.graphs.push_back(
      graph::random_regular(ServeInputs::kQubits, 3, graph_rng));
  in.cohort = product_space(2);

  // A fixed-rate open loop: rate x window sends at even spacing, every
  // fifth one a fresh candidate (kHitShare = 0.8). Every seed offers the
  // same load; the seed picks the graphs, the fresh candidates and which
  // cohort member each hit resubmits.
  Rng hit_rng(stream(seed, 3));
  const auto total =
      static_cast<std::size_t>(std::llround(ServeInputs::kRate * window_seconds));
  const auto period = static_cast<std::size_t>(
      std::llround(1.0 / (1.0 - ServeInputs::kHitShare)));
  std::size_t fresh_count = 0;
  for (std::size_t i = 0; i < total; ++i) {
    Request r;
    r.at = static_cast<double>(i) / ServeInputs::kRate;
    r.hit = i % period != period - 1;
    r.index = r.hit ? hit_rng.uniform_int(in.cohort.size()) : fresh_count++;
    in.schedule.push_back(r);
  }

  // Fresh pool: the k<=4 space on graphs[0] minus the cohort, then the
  // whole space on further seeded graphs, each block shuffled.
  const std::vector<qaoa::MixerSpec> space = product_space(4);
  const std::set<std::string> warmed = [&] {
    std::set<std::string> s;
    for (const auto& m : in.cohort) s.insert(m.to_string());
    return s;
  }();
  Rng pool_rng(stream(seed, 4));
  for (std::size_t gi = 0; in.fresh.size() < fresh_count; ++gi) {
    if (gi == in.graphs.size())
      in.graphs.push_back(
          graph::random_regular(ServeInputs::kQubits, 3, graph_rng));
    std::vector<FreshCandidate> block;
    for (const qaoa::MixerSpec& m : space)
      if (gi != 0 || warmed.count(m.to_string()) == 0)
        block.push_back({gi, m});
    shuffle(block, pool_rng);
    for (FreshCandidate& c : block) in.fresh.push_back(std::move(c));
  }
  in.fresh.resize(fresh_count);
  return in;
}

}  // namespace perfbench
