// The seeded input generator: every graph, candidate list and request
// schedule a workload uses is a pure function of (workload, seed[, window]).
// The program under test only ever sees these generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "qaoa/mixer.hpp"

namespace perfbench {

enum class Workload { SearchSv, SearchTn, SampleTn, ServeMixed };

/// Parses "search_sv" / "search_tn" / "sample_tn" / "serve_mixed"; throws
/// std::invalid_argument otherwise.
Workload workload_from_name(const std::string& name);
std::string workload_name(Workload w);

/// `base` with its vertex labels permuted by a seeded Fisher-Yates shuffle.
/// The edge list keeps its order; only the endpoints are renamed.
qarch::graph::Graph relabel(const qarch::graph::Graph& base,
                            std::uint64_t seed);

/// `base` with its edge list in a seeded order (same vertices, same edges).
qarch::graph::Graph reorder_edges(const qarch::graph::Graph& base,
                                  std::uint64_t seed);

struct Candidate {
  qarch::qaoa::MixerSpec mixer;
  std::size_t p = 1;
};

/// Inputs of the three search workloads.
///
/// Each workload has one fixed seeded 3-regular graph; the run seed varies
/// how it is presented. search_sv and search_tn draw a random relabelling:
/// it changes every edge, every candidate circuit and every cache key while
/// keeping the problem isomorphic, so the cost of a run does not depend on
/// the seed (freshly drawn n=16 graphs vary the tensor-network search time
/// 2.4x between seeds) and the trained ratios can be checked against one
/// committed reference for every seed. sample_tn draws a random edge order
/// instead: its sampler walks the qubits in label order, so relabelling
/// would change the contraction cost per seed.
struct SearchInputs {
  Workload workload = Workload::SearchSv;
  qarch::graph::Graph graph;
  std::size_t p_max = 1;
  /// Mixers proposed at every depth, in proposal order.
  std::vector<qarch::qaoa::MixerSpec> mixers;
  /// Every (mixer, p) in the order the search submits them (depth-major).
  std::vector<Candidate> candidates;
};

SearchInputs search_inputs(Workload w, std::uint64_t seed);

/// One request of the serve_mixed open loop.
struct Request {
  double at = 0.0;         ///< scheduled send time, seconds from window start
  bool hit = false;        ///< resubmit of the warmed cohort (cache read)
  std::size_t index = 0;   ///< cohort index (hit) or fresh-pool index
};

/// A fresh (never evaluated) serve_mixed candidate.
struct FreshCandidate {
  std::size_t graph = 0;   ///< index into ServeInputs::graphs
  qarch::qaoa::MixerSpec mixer;
};

/// Inputs of serve_mixed: random 3-regular n=12 graphs, a warm cohort on
/// graphs[0], a pool of distinct fresh candidates, and a fixed-rate
/// schedule over the measurement window.
struct ServeInputs {
  static constexpr std::size_t kQubits = 12;
  static constexpr std::size_t kDepth = 1;
  /// Total request rate. Fresh candidates cost ~11.6 ms each on the seed
  /// build (sv, n=12, p=1), so 20% of 400/s keeps the 2 workers ~46% busy.
  static constexpr double kRate = 400.0;
  static constexpr double kHitShare = 0.8;

  std::vector<qarch::graph::Graph> graphs;
  std::vector<qarch::qaoa::MixerSpec> cohort;   ///< on graphs[0]
  std::vector<FreshCandidate> fresh;            ///< one per fresh request
  std::vector<Request> schedule;                ///< sorted by `at`
};

ServeInputs serve_inputs(std::uint64_t seed, double window_seconds);

}  // namespace perfbench
