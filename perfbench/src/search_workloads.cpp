// search_sv, search_tn and sample_tn: Algorithm-1 searches against a fresh
// EvalService, timed as a whole and repeated for the run's duration.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "circuit/optimizer.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qtensor/plan_cache.hpp"
#include "replay.hpp"
#include "search/engine.hpp"
#include "search/eval_service.hpp"
#include "search/qbuilder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = qarch::json;
namespace qaoa = qarch::qaoa;
namespace search = qarch::search;
using qarch::SessionConfig;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups measured before each search (setup_s is their median).
constexpr std::size_t kSetupsPerSearch = 25;
/// Trained ratios may differ from the reference by this much: relabelled
/// graphs only reorder floating-point sums (observed differences are
/// ~1e-11 after 200 COBYLA steps).
constexpr double kRatioTol = 1e-6;
/// Cross-engine agreement of <C> at identical theta.
constexpr double kEnergyTol = 1e-10;

/// The production SessionConfig of a search workload: engine choice,
/// 4 outer x 1 inner workers, and for sample_tn the CVaR objective. No
/// persistent caches, no ablation toggles.
SessionConfig search_session(Workload w) {
  SessionConfig s;
  s.backend = w == Workload::SearchSv ? qarch::BackendChoice::Statevector
                                      : qarch::BackendChoice::TensorNetwork;
  s.workers = 4;
  s.inner_workers = 1;
  if (w == Workload::SampleTn) {
    s.objective.kind = qaoa::ObjectiveKind::CVaR;
    s.objective.alpha = 0.25;
    s.objective.shots = 128;
  }
  return s;
}

/// Proposes a fixed mixer list once per depth round.
class ListPredictor final : public search::Predictor {
 public:
  explicit ListPredictor(const std::vector<qaoa::MixerSpec>& mixers) {
    const search::QBuilder builder(search::GateAlphabet::standard());
    for (const auto& m : mixers) encodings_.push_back(builder.encode(m));
  }
  std::vector<search::Encoding> propose(std::size_t max_batch) override {
    const std::size_t end = std::min(encodings_.size(), cursor_ + max_batch);
    std::vector<search::Encoding> out(encodings_.begin() + cursor_,
                                      encodings_.begin() + end);
    cursor_ = end;
    return out;
  }
  void feedback(const std::vector<search::Encoding>&,
                const std::vector<double>&) override {}
  void reset() override { cursor_ = 0; }
  [[nodiscard]] bool exhausted() const override {
    return cursor_ >= encodings_.size();
  }
  [[nodiscard]] std::string name() const override { return "list"; }

 private:
  std::vector<search::Encoding> encodings_;
  std::size_t cursor_ = 0;
};

search::SearchReport run_engine(search::EvalService& service,
                                const SearchInputs& in,
                                const SessionConfig& session) {
  search::SearchConfig cfg;
  cfg.p_max = in.p_max;
  cfg.session = session;
  const search::SearchEngine engine(cfg);
  if (in.workload == Workload::SampleTn) {
    ListPredictor predictor(in.mixers);
    return engine.run(service, in.graph, predictor);
  }
  return engine.run_exhaustive(service, in.graph, 2);
}

json::Value load_reference(const std::string& path, Workload w) {
  std::ifstream f(path);
  if (!f) return {};
  std::stringstream buf;
  buf << f.rdbuf();
  const json::Value all = json::parse(buf.str());
  return all.contains(workload_name(w)) ? all.at(workload_name(w))
                                        : json::Value{};
}

std::string candidate_key(const qaoa::MixerSpec& m, std::size_t p) {
  return m.to_string() + "@" + std::to_string(p);
}

/// Index of SELECT_BEST's choice: the first candidate of highest energy.
std::size_t best_index(const std::vector<search::CandidateResult>& results) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i)
    if (results[i].energy > results[best].energy) best = i;
  return best;
}

/// The correctness gate every search result list passes: one result per
/// input candidate in submission order, and (where the reference applies)
/// the committed ratios and best mixer.
void check_results(const SearchInputs& in,
                   const std::vector<search::CandidateResult>& results,
                   const json::Value& ref, RunResult& out) {
  if (results.size() != in.candidates.size()) {
    out.fail("search returned " + std::to_string(results.size()) +
                 " results for " + std::to_string(in.candidates.size()) +
                 " candidates",
             in.candidates.size());
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].mixer.gates != in.candidates[i].mixer.gates ||
        results[i].p != in.candidates[i].p)
      out.fail("result " + std::to_string(i) + " is for another candidate");

  // Every seed presents the same instance (relabelled or with its edges
  // reordered), so the reference recorded at seed 1 holds for all seeds.
  if (ref.is_null()) {
    out.fail("no reference results for " + workload_name(in.workload));
    return;
  }
  const json::Value& cands = ref.at("candidates");
  if (cands.size() != results.size()) {
    out.fail("reference size mismatch", results.size());
    return;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double want = cands.at(i).at("ratio").as_number();
    const double diff = std::abs(results[i].ratio - want);
    worst = std::max(worst, diff);
    if (cands.at(i).at("key").as_string() !=
            candidate_key(results[i].mixer, results[i].p) ||
        !(diff <= kRatioTol))
      out.fail("ratio of " + candidate_key(results[i].mixer, results[i].p) +
               " differs from the reference by " + std::to_string(diff));
  }
  // The reference's best must be a best here too (ties may pick either).
  const std::string ref_best = ref.at("best").as_string();
  const double top = results[best_index(results)].energy;
  for (const auto& r : results)
    if (candidate_key(r.mixer, r.p) == ref_best &&
        !(top - r.energy <= kRatioTol * std::max(1.0, std::abs(top))))
      out.fail("best mixer differs from the reference " + ref_best);
  out.details.set("reference_max_ratio_diff", worst);
}

/// search_tn gate: <C> on the tensor network at the sv-trained theta of
/// the reference agrees with the statevector engine to 1e-10.
void check_cross_engine(const SearchInputs& in, const SessionConfig& session,
                        const std::string& reference_path, RunResult& out) {
  const json::Value sv_ref = load_reference(reference_path, Workload::SearchSv);
  if (sv_ref.is_null()) {
    out.fail("no search_sv reference for the cross-engine check");
    return;
  }
  qaoa::EnergyOptions tn_opts =
      session.energy_options(qaoa::EngineKind::TensorNetwork);
  tn_opts.qtensor.plan_cache = std::make_shared<qarch::qtensor::PlanCache>();
  const qaoa::EnergyEvaluator sv(
      in.graph, session.energy_options(qaoa::EngineKind::Statevector));
  const qaoa::EnergyEvaluator tn(in.graph, tn_opts);
  const json::Value& cands = sv_ref.at("candidates");
  double worst = 0.0;
  for (std::size_t i = 0; i < in.candidates.size() && i < cands.size(); ++i) {
    const Candidate& c = in.candidates[i];
    std::vector<double> theta;
    const json::Value& t = cands.at(i).at("theta");
    for (std::size_t k = 0; k < t.size(); ++k)
      theta.push_back(t.at(k).as_number());
    qarch::circuit::Circuit a = qaoa::build_qaoa_circuit(in.graph, c.p, c.mixer);
    if (session.simplify_circuit) a = qarch::circuit::optimize(a);
    const double e_sv = sv.plan_for(a)->energy(theta);
    const double e_tn = tn.plan_for(a)->energy(theta);
    const double diff = std::abs(e_sv - e_tn);
    worst = std::max(worst, diff);
    if (!(diff <= kEnergyTol * std::max(1.0, std::abs(e_sv))))
      out.fail("tn and sv energies of " + candidate_key(c.mixer, c.p) +
               " differ by " + std::to_string(diff));
  }
  out.details.set("cross_engine_max_energy_diff", worst);
}

/// sample_tn gate: the statevector engine trains every candidate to the
/// same ratios as the tensor network.
void check_sampled_on_sv(const SearchInputs& in, const SessionConfig& session,
                         const std::vector<search::CandidateResult>& results,
                         RunResult& out) {
  const search::Evaluator sv(
      in.graph, session.evaluator_options(qaoa::EngineKind::Statevector));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const search::CandidateResult r =
        sv.evaluate(in.candidates[i].mixer, in.candidates[i].p);
    if (r.ratio != results[i].ratio)
      out.fail("sv and tn CVaR ratios of " +
               candidate_key(r.mixer, r.p) + " differ");
  }
}

/// The cross-engine gate of the tensor-network workloads.
void check_engines(const SearchInputs& in, const SessionConfig& session,
                   const std::vector<search::CandidateResult>& results,
                   const std::string& reference_path, RunResult& out) {
  if (in.workload == Workload::SearchTn)
    check_cross_engine(in, session, reference_path, out);
  if (in.workload == Workload::SampleTn)
    check_sampled_on_sv(in, session, results, out);
}

json::Value inputs_json(const SearchInputs& in) {
  json::Value v = json::Value::object();
  v.set("qubits", in.graph.num_vertices());
  v.set("edges", in.graph.num_edges());
  v.set("p_max", in.p_max);
  v.set("mixers_per_depth", in.mixers.size());
  v.set("candidates", in.candidates.size());
  return v;
}

RunResult run_search_untraced(const Options& o) {
  RunResult out;
  const SessionConfig session = search_session(o.workload);
  const json::Value ref = load_reference(o.reference_path, o.workload);
  std::vector<double> setups, walls, fresh_ms;
  std::size_t fresh = 0;
  std::vector<search::CandidateResult> first;
  SearchInputs in;

  const auto start = Clock::now();
  double last_rep = 0.0;
  do {
    const auto rep0 = Clock::now();
    // Set up several times and keep the last: one set-up takes ~0.1 ms, so
    // setup_s is the median of many, spread over the run.
    std::unique_ptr<search::EvalService> service;
    for (std::size_t k = 0; k < kSetupsPerSearch; ++k) {
      service.reset();
      const auto t0 = Clock::now();
      in = search_inputs(o.workload, o.seed);
      service = std::make_unique<search::EvalService>(session);
      setups.push_back(since(t0));
    }

    const auto t1 = Clock::now();
    const search::SearchReport report = run_engine(*service, in, session);
    walls.push_back(since(t1));
    fresh += report.cache_misses;

    out.attempted += in.candidates.size();
    for (const auto& r : report.evaluated)
      // Latency percentiles cover the deepest round only: it holds most of
      // the work, and pooling both depths would put the median in the gap
      // between the p=1 and p=2 latencies.
      if (!r.from_cache && r.p == in.p_max)
        fresh_ms.push_back((r.queue_seconds + r.eval_seconds) * 1e3);
    if (service->stats().failed != 0)
      out.fail("service reported failed jobs", service->stats().failed);
    check_results(in, report.evaluated, ref, out);
    if (first.empty()) {
      first = report.evaluated;
    } else {
      for (std::size_t i = 0; i < first.size() && i < report.evaluated.size(); ++i)
        if (!same_result(first[i], report.evaluated[i]))
          out.fail("repeated search gave a different result");
    }

    last_rep = since(rep0);
  } while (since(start) + last_rep <= o.seconds);

  check_engines(in, session, first, o.reference_path, out);

  double busy_wall = 0.0;
  for (double w : walls) busy_wall += w;
  out.add("setup_s", median(setups), "s", setups.size());
  out.add("wall_s", median(walls), "s", walls.size());
  out.add("candidates_per_s", static_cast<double>(fresh) / busy_wall, "1/s",
          fresh);
  // Every candidate of a search is a fresh evaluation.
  out.add("latency_p50_ms", quantile(fresh_ms, 0.50), "ms", fresh_ms.size());
  out.add("fresh_p50_ms", quantile(fresh_ms, 0.50), "ms", fresh_ms.size());
  out.add("fresh_p90_ms", quantile(fresh_ms, 0.90), "ms", fresh_ms.size());
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.details.set("inputs", inputs_json(in));
  out.details.set("searches", walls.size());
  if (walls.size() >= 2) {
    const Quartiles q = quartiles(walls);
    json::Value wq = json::Value::array();
    for (double v : {q.q1, q.median, q.q3}) wq.push_back(v);
    out.details.set("wall_s_quartiles", std::move(wq));
  }
  out.details.set("fresh_supported_tail", supported_tail(fresh_ms.size()));
  return out;
}

RunResult run_search_traced(const Options& o) {
  RunResult out;
  const SessionConfig session = search_session(o.workload);
  const json::Value ref = load_reference(o.reference_path, o.workload);
  const SearchInputs in = search_inputs(o.workload, o.seed);
  search::EvalService service(session);
  const qaoa::EngineKind engine = session.backend == qarch::BackendChoice::Statevector
                                      ? qaoa::EngineKind::Statevector
                                      : qaoa::EngineKind::TensorNetwork;

  // The search's service calls, made here so each submit can be timed:
  // the engine's batches (4 x workers), depth by depth.
  Trace service_trace;
  const search::EvalClient client = service.register_client("search");
  search::JobOptions job;
  job.client = client.id();
  const std::size_t batch = 4 * service.workers();
  std::vector<search::CandidateResult> results;
  const auto t0 = Clock::now();
  for (std::size_t begin = 0; begin < in.candidates.size();) {
    const std::size_t p = in.candidates[begin].p;
    std::size_t end = begin;
    while (end < in.candidates.size() && end - begin < batch &&
           in.candidates[end].p == p)
      ++end;
    std::vector<search::EvalTicket> tickets;
    for (std::size_t i = begin; i < end; ++i) {
      const auto s = service_trace.scope("service.submit", i + 1);
      tickets.push_back(service.submit(in.graph, in.candidates[i].mixer, p, job));
    }
    for (const auto& t : tickets) results.push_back(t.wait());
    begin = end;
  }
  const double wall = since(t0);
  out.attempted += results.size();
  check_results(in, results, ref, out);
  check_engines(in, session, results, o.reference_path, out);
  const auto stats = service.stats();

  std::vector<ReplayJob> jobs;
  for (std::size_t i = 0; i < in.candidates.size() && i < results.size(); ++i)
    jobs.push_back({&in.graph, in.candidates[i], &results[i]});
  const ReplayReport replay =
      replay_all(jobs, session.evaluator_options(engine));
  out.attempted += jobs.size();
  if (replay.mismatches != 0)
    out.fail("serial replay differs from the service result",
             replay.mismatches);

  std::vector<double> queue_ms, eval_ms, submit_us;
  double busy = 0.0;
  for (const auto& r : results) {
    queue_ms.push_back(r.queue_seconds * 1e3);
    eval_ms.push_back(r.eval_seconds * 1e3);
    busy += r.eval_seconds;
  }
  for (double d : service_trace.durations("service.submit"))
    submit_us.push_back(d * 1e6);
  const double workers = static_cast<double>(service.workers());
  std::map<std::string, double> m = replay_layer_metrics(replay);
  m["service.submit_us_p50"] = median(submit_us);
  m["service.queue_wait_ms_p50"] = quantile(queue_ms, 0.5);
  m["service.queue_wait_ms_p90"] = quantile(queue_ms, 0.9);
  m["service.eval_ms_p50"] = quantile(eval_ms, 0.5);
  m["service.cache_hits"] = static_cast<double>(stats.cache_hits);
  m["service.cache_misses"] = static_cast<double>(stats.cache_misses);
  m["service.hit_ratio"] =
      static_cast<double>(stats.cache_hits) /
      static_cast<double>(std::max<std::size_t>(1, stats.cache_hits + stats.cache_misses));
  m["service.worker_busy_frac"] = busy / (wall * workers);
  m["service.jobs_failed"] = static_cast<double>(stats.failed);
  m["parallel.efficiency"] = replay.evaluate_untraced_s / (wall * workers);
  if (stats.failed != 0) out.fail("service reported failed jobs", stats.failed);
  for (const auto& [name, unit] : layer_metric_units())
    out.add(name, m.count(name) != 0 ? m[name] : 0.0, unit);

  out.details.set("inputs", inputs_json(in));
  out.details.set("service_wall_s", wall);
  out.details.set("evaluate_untraced_s", replay.evaluate_untraced_s);
  if (!o.trace_out.empty()) {
    service_trace.append_jsonl(o.trace_out, workload_name(o.workload) + ".service");
    replay.trace.append_jsonl(o.trace_out, workload_name(o.workload) + ".replay");
  }
  return out;
}

}  // namespace

RunResult run_search(const Options& o) {
  return o.trace ? run_search_traced(o) : run_search_untraced(o);
}

json::Value search_reference(Workload w, std::uint64_t seed) {
  const SessionConfig session = search_session(w);
  const SearchInputs in = search_inputs(w, seed);
  search::EvalService service(session);
  const search::SearchReport report = run_engine(service, in, session);
  json::Value cands = json::Value::array();
  for (const auto& r : report.evaluated) {
    json::Value c = json::Value::object();
    c.set("key", candidate_key(r.mixer, r.p));
    c.set("ratio", r.ratio);
    c.set("energy", r.energy);
    json::Value theta = json::Value::array();
    for (double t : r.theta) theta.push_back(t);
    c.set("theta", std::move(theta));
    cands.push_back(std::move(c));
  }
  json::Value v = json::Value::object();
  v.set("seed", static_cast<double>(seed));
  v.set("best", candidate_key(report.best.mixer, report.best.p));
  v.set("candidates", std::move(cands));
  return v;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
