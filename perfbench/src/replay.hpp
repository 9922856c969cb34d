// Serial replays of Evaluator::evaluate for the traced run.
//
// `Replayer::replay` re-runs one candidate through the same public calls the
// evaluator makes — build_qaoa_circuit, circuit::optimize,
// EnergyEvaluator::plan_for, Cobyla::minimize over EnergyPlan::energy (or
// query::Sampler::sample for sampled objectives), then expected_best_cut —
// with a span around each, and must reproduce the evaluator's result bit
// for bit. The traced run also times the real Evaluator::evaluate on the
// same candidates, untraced: the baseline for tracing overhead and parallel
// efficiency.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "inputs.hpp"
#include "optim/cobyla.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/hamiltonian.hpp"
#include "query/sampler.hpp"
#include "search/evaluator.hpp"
#include "trace.hpp"

namespace perfbench {

/// Evaluator options as the service builds them for one engine, with a
/// private cold contraction-plan cache (the service's in-process plan cache
/// starts cold too).
qarch::search::EvaluatorOptions cold_options(
    qarch::search::EvaluatorOptions options);

/// Per-graph state of a traced replay (the evaluator's constructor work).
class Replayer {
 public:
  Replayer(const qarch::graph::Graph& g,
           const qarch::search::EvaluatorOptions& options);

  /// Replays one candidate serially with spans named
  ///   evaluator.evaluate > circuit.build | qaoa.plan_compile |
  ///   optim.minimize > (qaoa.energy | query.sample) | query.sampler_build |
  ///   qaoa.score
  [[nodiscard]] qarch::search::CandidateResult replay(const Candidate& c,
                                                      Trace& trace,
                                                      std::size_t job) const;

  /// Compile-time facts of one candidate's energy plan, computed outside
  /// any span (memory passes of the statevector program; width and
  /// estimated flops of the tensor-network programs).
  struct PlanFacts {
    double memory_passes = 0.0;       ///< full-state sweeps per energy call
    double max_width = 0.0;           ///< widest contraction intermediate
    double est_flops = 0.0;           ///< planner estimate per energy call
    double compiled_programs = 0.0;
    double distinct_shapes = 0.0;
  };
  [[nodiscard]] PlanFacts plan_facts(const Candidate& c) const;

 private:
  [[nodiscard]] qarch::circuit::Circuit ansatz(const Candidate& c) const;

  qarch::graph::Graph graph_;
  qarch::search::EvaluatorOptions options_;
  qarch::qaoa::EnergyOptions energy_options_;
  qarch::qaoa::Hamiltonian ham_;
  qarch::qaoa::EnergyEvaluator energy_;
  qarch::optim::Cobyla cobyla_;
  qarch::query::SamplerOptions sampler_options_;
  double classical_optimum_ = 0.0;
};

/// One candidate of a serial replay and the result the service gave for it.
struct ReplayJob {
  const qarch::graph::Graph* graph = nullptr;
  Candidate candidate;
  const qarch::search::CandidateResult* expected = nullptr;
};

/// Outcome of replaying a list of candidates serially, twice per candidate:
/// once through the real Evaluator::evaluate (untraced, timed as a whole)
/// and once through Replayer::replay (traced).
struct ReplayReport {
  Trace trace;
  double evaluate_untraced_s = 0.0;  ///< Σ Evaluator::evaluate wall time
  std::vector<double> evaluate_s;    ///< per job, same order as the jobs
  std::size_t mismatches = 0;        ///< evaluate or replay != expected
  // Probe deltas over the traced replays only.
  double program_compiles = 0.0;
  double network_builds = 0.0;
  double planner_invocations = 0.0;
  // Plan facts, weighted by each candidate's objective calls.
  double memory_passes_per_energy = 0.0;
  double bytes_per_energy = 0.0;
  double est_flops_per_energy = 0.0;
  double max_width = 0.0;
  double compiled_programs = 0.0;    ///< Σ over candidates
  double distinct_shapes = 0.0;      ///< Σ over candidates
  std::size_t shots_per_sample = 0;
};

ReplayReport replay_all(const std::vector<ReplayJob>& jobs,
                        const qarch::search::EvaluatorOptions& options);

/// The evaluator-side layer metrics (evaluator, circuit, qaoa, optim, sim,
/// qtensor, query, trace) of a replay, keyed by metric name.
std::map<std::string, double> replay_layer_metrics(const ReplayReport& r);

/// True when two results agree bit for bit on everything the evaluator
/// computes (energy, ratios, theta, evaluation count).
bool same_result(const qarch::search::CandidateResult& a,
                 const qarch::search::CandidateResult& b);

}  // namespace perfbench
