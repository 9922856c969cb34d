#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <string>

#include "circuit/optimizer.hpp"
#include "common/rng.hpp"
#include "graph/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/objective.hpp"
#include "qaoa/sampling.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/program.hpp"
#include "qtensor/shape.hpp"
#include "query/program.hpp"
#include "sim/sim_program.hpp"
#include "stats.hpp"
#include "qtensor/network.hpp"
#include "qtensor/planner.hpp"

namespace perfbench {

namespace qaoa = qarch::qaoa;
namespace search = qarch::search;
using qarch::Rng;

search::EvaluatorOptions cold_options(search::EvaluatorOptions options) {
  options.energy.qtensor.plan_cache =
      std::make_shared<qarch::qtensor::PlanCache>();
  return options;
}

namespace {

qarch::query::SamplerOptions sampler_options_for(
    const qaoa::EnergyOptions& energy) {
  qarch::query::SamplerOptions so;
  so.engine = energy.engine == qaoa::EngineKind::Statevector
                  ? qarch::query::SamplerEngine::Statevector
                  : qarch::query::SamplerEngine::TensorNetwork;
  so.query = qarch::query::query_options(energy.qtensor);
  so.tn_backend = energy.qtensor.backend;
  so.sv_plan = energy.sv_plan;
  so.sv_workers = energy.inner_workers;
  return so;
}

}  // namespace

Replayer::Replayer(const qarch::graph::Graph& g,
                   const search::EvaluatorOptions& options)
    : graph_(g),
      options_(options),
      energy_options_(options.effective_energy()),
      ham_(options.hamiltonian.build(g)),
      energy_(ham_, energy_options_),
      cobyla_(options.cobyla),
      sampler_options_(sampler_options_for(energy_options_)),
      classical_optimum_(options.hamiltonian.is_default()
                             ? qarch::graph::maxcut_exact(g).value
                             : qaoa::classical_maximum(ham_)) {}

qarch::circuit::Circuit Replayer::ansatz(const Candidate& c) const {
  qarch::circuit::Circuit a = qaoa::build_qaoa_circuit(graph_, c.p, c.mixer);
  if (options_.simplify_circuit) a = qarch::circuit::optimize(a);
  return a;
}

search::CandidateResult Replayer::replay(const Candidate& c, Trace& trace,
                                         std::size_t job) const {
  const auto evaluate_span = trace.scope("evaluator.evaluate", job);
  qarch::circuit::Circuit a;
  {
    const auto s = trace.scope("circuit.build", job);
    a = ansatz(c);
  }
  const std::vector<double> x0(a.num_params(), options_.train.initial_value);
  qarch::optim::OptimState state;
  qarch::optim::OptimResult trained;
  if (options_.objective.kind == qaoa::ObjectiveKind::Expectation) {
    std::shared_ptr<const qaoa::EnergyPlan> plan;
    {
      const auto s = trace.scope("qaoa.plan_compile", job);
      plan = energy_.plan_for(a);
    }
    const qarch::optim::Objective objective =
        [&](std::span<const double> theta) {
          const auto s = trace.scope("qaoa.energy", job);
          return -plan->energy(theta);
        };
    const auto s = trace.scope("optim.minimize", job);
    trained = cobyla_.minimize(objective, x0, state, nullptr);
  } else {
    std::unique_ptr<qarch::query::Sampler> sampler;
    {
      const auto s = trace.scope("query.sampler_build", job);
      sampler = std::make_unique<qarch::query::Sampler>(a, sampler_options_);
    }
    const std::size_t shots = options_.objective.shots > 0
                                  ? options_.objective.shots
                                  : options_.shots;
    const qarch::optim::Objective objective =
        [&](std::span<const double> theta) {
          Rng rng(options_.sample_seed ^ 0x0051ed2700c1a9ULL);
          std::vector<std::size_t> samples;
          {
            const auto s = trace.scope("query.sample", job);
            samples = sampler->sample(theta, shots, rng);
          }
          std::vector<double> values(samples.size());
          for (std::size_t i = 0; i < samples.size(); ++i)
            values[i] = ham_.classical_value_bits(samples[i]);
          return -qaoa::objective_value(options_.objective, std::move(values));
        };
    const auto s = trace.scope("optim.minimize", job);
    trained = cobyla_.minimize(objective, x0, state, nullptr);
  }

  search::CandidateResult r;
  r.mixer = c.mixer;
  r.p = c.p;
  r.energy = -trained.value;
  r.ratio = classical_optimum_ > 0.0 ? r.energy / classical_optimum_ : 0.0;
  {
    const auto s = trace.scope("qaoa.score", job);
    Rng rng(options_.sample_seed ^ (c.p * 0x9e3779b97f4a7c15ULL) ^
            c.mixer.gates.size());
    const double best = qaoa::expected_best_cut(
        a, trained.x, graph_, options_.shots, options_.sample_trials, rng);
    r.sampled_ratio =
        classical_optimum_ > 0.0 ? best / classical_optimum_ : 0.0;
  }
  r.theta = trained.x;
  r.evaluations = trained.evaluations;
  return r;
}

Replayer::PlanFacts Replayer::plan_facts(const Candidate& c) const {
  const qarch::circuit::Circuit a = ansatz(c);
  PlanFacts f;
  if (options_.objective.kind != qaoa::ObjectiveKind::Expectation) {
    // Sampled objectives: one objective call draws `shots` samples, each
    // contracting every marginal step once.
    const qarch::query::Sampler sampler(a, sampler_options_);
    const std::size_t shots = options_.objective.shots > 0
                                  ? options_.objective.shots
                                  : options_.shots;
    std::set<std::string> keys;
    for (const auto& st : sampler.step_stats()) {
      f.max_width = std::max(f.max_width, static_cast<double>(st.width));
      f.est_flops += st.est_flops * static_cast<double>(shots);
      f.compiled_programs += 1.0;
      keys.insert(st.shape_key);
    }
    f.distinct_shapes = static_cast<double>(keys.size());
    return f;
  }
  if (energy_options_.engine == qaoa::EngineKind::Statevector) {
    const qarch::sim::SimProgram program(a, energy_options_.sv_plan);
    // Program sweeps plus the |+> fill and the batched <ZZ> read.
    f.memory_passes = static_cast<double>(program.stats().memory_passes) + 2.0;
    return f;
  }
  // Tensor network: the plan's own accounting for program counts, plus one
  // program per distinct lightcone shape for width and estimated flops.
  const qaoa::EnergyPlanInfo info = energy_.plan_for(a)->info();
  f.compiled_programs = static_cast<double>(info.compiled_programs);
  f.distinct_shapes = static_cast<double>(info.distinct_shapes);
  const auto po = energy_options_.qtensor.program_options();
  std::set<std::string> keys;
  for (const auto& t : ham_.terms()) {
    if (!keys.insert(qarch::qtensor::lightcone_shape(a, t.u, t.v).key).second)
      continue;
    const qarch::qtensor::ContractionProgram program(a, t.u, t.v, po);
    const auto& st = program.stats();
    f.max_width = std::max(f.max_width, static_cast<double>(st.width));
    f.est_flops +=
        st.est_flops * std::ldexp(1.0, static_cast<int>(st.slice_vars));
  }
  return f;
}

ReplayReport replay_all(const std::vector<ReplayJob>& jobs,
                        const search::EvaluatorOptions& options) {
  ReplayReport out;
  out.shots_per_sample = options.objective.shots > 0 ? options.objective.shots
                                                     : options.shots;
  // One evaluator and one replayer per graph, built outside any timing —
  // the service builds its evaluators once per graph too.
  std::map<const qarch::graph::Graph*, std::unique_ptr<search::Evaluator>>
      evaluators;
  std::map<const qarch::graph::Graph*, std::unique_ptr<Replayer>> replayers;
  for (const ReplayJob& j : jobs) {
    if (evaluators.count(j.graph) != 0) continue;
    evaluators[j.graph] =
        std::make_unique<search::Evaluator>(*j.graph, cold_options(options));
    replayers[j.graph] =
        std::make_unique<Replayer>(*j.graph, cold_options(options));
  }
  // Each candidate runs untraced and traced back to back, alternating which
  // goes first, so neither pass is the one that always finds caches warm.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ReplayJob& j = jobs[i];
    search::CandidateResult direct;
    const auto untraced = [&] {
      const auto t0 = Trace::clock::now();
      direct = evaluators[j.graph]->evaluate(j.candidate.mixer, j.candidate.p);
      out.evaluate_s.push_back(
          std::chrono::duration<double>(Trace::clock::now() - t0).count());
      out.evaluate_untraced_s += out.evaluate_s.back();
    };
    if (i % 2 == 0) untraced();
    const auto compiles = qarch::sim::program_compile_count();
    const auto builds = qarch::qtensor::network_build_count();
    const auto plans = qarch::qtensor::planner_invocation_count();
    const search::CandidateResult replayed =
        replayers[j.graph]->replay(j.candidate, out.trace, i + 1);
    out.program_compiles +=
        static_cast<double>(qarch::sim::program_compile_count() - compiles);
    out.network_builds +=
        static_cast<double>(qarch::qtensor::network_build_count() - builds);
    out.planner_invocations += static_cast<double>(
        qarch::qtensor::planner_invocation_count() - plans);
    if (i % 2 == 1) untraced();

    if (!same_result(direct, replayed) ||
        (j.expected != nullptr && !same_result(direct, *j.expected)))
      ++out.mismatches;
  }

  // Plan facts after the counters are read, weighted per objective call.
  std::map<std::size_t, double> calls;
  for (const Span& sp : out.trace.spans())
    if (std::string(sp.name) == "qaoa.energy" ||
        std::string(sp.name) == "query.sample")
      calls[sp.job] += 1.0;
  double total_calls = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Replayer::PlanFacts f =
        replayers[jobs[i].graph]->plan_facts(jobs[i].candidate);
    const double w = calls[i + 1];
    const double dim = std::ldexp(
        1.0, static_cast<int>(jobs[i].graph->num_vertices()));
    total_calls += w;
    out.memory_passes_per_energy += w * f.memory_passes;
    out.bytes_per_energy += w * f.memory_passes * dim * 16.0;
    out.est_flops_per_energy += w * f.est_flops;
    out.max_width = std::max(out.max_width, f.max_width);
    out.compiled_programs += f.compiled_programs;
    out.distinct_shapes += f.distinct_shapes;
  }
  if (total_calls > 0.0) {
    out.memory_passes_per_energy /= total_calls;
    out.bytes_per_energy /= total_calls;
    out.est_flops_per_energy /= total_calls;
  }
  return out;
}

std::map<std::string, double> replay_layer_metrics(const ReplayReport& r) {
  const auto total = r.trace.total_seconds();
  const auto self = r.trace.self_seconds();
  const auto count = r.trace.counts();
  const auto get = [](const auto& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<double> energy_us = r.trace.durations("qaoa.energy");
  for (double& d : energy_us) d *= 1e6;
  const double evaluate_s = get(total, "evaluator.evaluate");
  const double sample_calls = get(count, "query.sample");
  const double shots = sample_calls * static_cast<double>(r.shots_per_sample);

  std::map<std::string, double> m;
  m["evaluator.evaluate_ms_total"] = evaluate_s * 1e3;
  m["circuit.build_ms_total"] = get(total, "circuit.build") * 1e3;
  m["qaoa.plan_compile_ms_total"] = get(total, "qaoa.plan_compile") * 1e3;
  m["qaoa.energy_calls"] = get(count, "qaoa.energy");
  m["qaoa.energy_ms_total"] = get(total, "qaoa.energy") * 1e3;
  m["qaoa.energy_us_p50"] = median(energy_us);
  m["qaoa.score_ms_total"] = get(total, "qaoa.score") * 1e3;
  m["optim.self_ms_total"] = get(self, "optim.minimize") * 1e3;
  m["sim.program_compiles"] = r.program_compiles;
  m["sim.memory_passes_per_energy"] = r.memory_passes_per_energy;
  m["sim.bytes_per_energy_computed"] = r.bytes_per_energy;
  m["qtensor.planner_invocations"] = r.planner_invocations;
  m["qtensor.network_builds"] = r.network_builds;
  m["qtensor.compiled_programs"] = r.compiled_programs;
  m["qtensor.distinct_shapes"] = r.distinct_shapes;
  m["qtensor.max_width"] = r.max_width;
  m["qtensor.est_flops_per_energy"] = r.est_flops_per_energy;
  m["query.sampler_build_ms_total"] = get(total, "query.sampler_build") * 1e3;
  m["query.sample_ms_total"] = get(total, "query.sample") * 1e3;
  m["query.sample_calls"] = sample_calls;
  m["query.shots"] = shots;
  m["query.sample_us_per_shot"] =
      shots > 0.0 ? get(total, "query.sample") * 1e6 / shots : 0.0;
  // The layers split each evaluate span; what they leave uncovered is the
  // evaluate span's own self time.
  m["trace.coverage"] =
      evaluate_s > 0.0 ? 1.0 - get(self, "evaluator.evaluate") / evaluate_s
                       : 0.0;
  m["trace.overhead_frac"] =
      r.evaluate_untraced_s > 0.0 ? evaluate_s / r.evaluate_untraced_s - 1.0
                                  : 0.0;
  return m;
}

bool same_result(const search::CandidateResult& a,
                 const search::CandidateResult& b) {
  return a.mixer.gates == b.mixer.gates && a.p == b.p &&
         a.energy == b.energy && a.ratio == b.ratio &&
         a.sampled_ratio == b.sampled_ratio && a.theta == b.theta &&
         a.evaluations == b.evaluations;
}

}  // namespace perfbench
