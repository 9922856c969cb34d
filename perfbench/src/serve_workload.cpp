// serve_mixed: an in-process qarchd on loopback, driven by an open loop.
//
// Two tenants, one client connection each. The "interactive" connection
// resubmits candidates of a cohort warmed during set-up (result-cache
// reads); the "batch" connection submits fresh candidates, which train on
// the 2 service workers and then write to the cache. Requests follow one
// fixed-rate schedule and are timed from their scheduled send time, so
// a stall also charges the requests queued behind it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>

#include "replay.hpp"
#include "search/report_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = qarch::json;
namespace qaoa = qarch::qaoa;
namespace search = qarch::search;
namespace server = qarch::server;
using qarch::SessionConfig;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kSetups = 3;
/// A send more than this late counts as late; a run with more than
/// kMaxLateFrac late sends (or any send missing) is invalid.
constexpr double kLateThreshold = 0.020;
constexpr double kMaxLateFrac = 0.01;
constexpr std::size_t kVerifyThreads = 4;
const char* const kHitKey = "interactive-key";
const char* const kFreshKey = "batch-key";

SessionConfig serve_session() {
  SessionConfig s;
  s.backend = qarch::BackendChoice::Statevector;
  s.workers = kServiceWorkers;
  return s;
}

struct Deployment {
  std::unique_ptr<server::QarchServer> server;
  std::vector<search::CandidateResult> cohort;  ///< warm wire results
};

server::QarchClient connect(const Deployment& d, const char* key) {
  server::ClientOptions co;
  co.port = d.server->port();
  co.api_key = key;
  return server::QarchClient(co);
}

/// Polls until the ticket resolves; returns the final response.
json::Value await(server::QarchClient& client, const std::string& ticket) {
  json::Value r = client.result(ticket, 1000.0);
  while (r.at("status").as_string() == "pending")
    r = client.result(ticket, 1000.0);
  return r;
}

/// Starts the daemon and warms the cohort over the wire.
Deployment deploy(const ServeInputs& in) {
  server::ServerConfig cfg;
  cfg.session = serve_session();
  cfg.tenants = {server::TenantSpec{.name = "interactive", .api_key = kHitKey},
                 server::TenantSpec{.name = "batch", .api_key = kFreshKey}};
  Deployment d;
  d.server = std::make_unique<server::QarchServer>(cfg);
  d.server->start();
  server::QarchClient client = connect(d, kHitKey);
  std::vector<std::string> tickets;
  for (const auto& m : in.cohort)
    tickets.push_back(client.submit(server::QarchClient::submit_body(
        in.graphs[0], m.to_string(), ServeInputs::kDepth)));
  for (const auto& t : tickets) {
    const json::Value r = await(client, t);
    if (r.at("status").as_string() != "done")
      throw qarch::Error("cohort warm-up failed: " + r.dump());
    d.cohort.push_back(search::candidate_from_json(r.at("result")));
  }
  return d;
}

/// One wire request as the generator saw it.
struct Outcome {
  double sent = -1.0;       ///< seconds from window start; < 0 = never sent
  double submitted = 0.0;   ///< submit call returned
  double done = -1.0;       ///< result observed; < 0 = never resolved
  std::string error;
  search::CandidateResult result;
};

struct WireRun {
  std::vector<Outcome> outcomes;  ///< aligned with ServeInputs::schedule
  Trace hit_trace;
  Trace fresh_trace;
  double wall = 0.0;              ///< window start → last response
};

void record_done(Outcome& o, const json::Value& r, double now) {
  o.done = now;
  if (r.at("status").as_string() == "done")
    o.result = search::candidate_from_json(r.at("result"));
  else
    o.error = "status " + r.at("status").as_string();
}

/// Drives the schedule: the interactive thread submits each hit and waits
/// for it; the batch thread submits fresh candidates on time and, between
/// sends, long-polls its oldest outstanding ticket until the next send is
/// due.
WireRun drive(const Deployment& d, const ServeInputs& in) {
  WireRun run;
  run.outcomes.resize(in.schedule.size());
  std::vector<json::Value> bodies(in.schedule.size());
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    const Request& r = in.schedule[i];
    bodies[i] = r.hit ? server::QarchClient::submit_body(
                            in.graphs[0], in.cohort[r.index].to_string(),
                            ServeInputs::kDepth)
                      : server::QarchClient::submit_body(
                            in.graphs[in.fresh[r.index].graph],
                            in.fresh[r.index].mixer.to_string(),
                            ServeInputs::kDepth);
  }
  std::vector<std::size_t> hits, fresh;
  for (std::size_t i = 0; i < in.schedule.size(); ++i)
    (in.schedule[i].hit ? hits : fresh).push_back(i);

  server::QarchClient hit_client = connect(d, kHitKey);
  server::QarchClient fresh_client = connect(d, kFreshKey);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto now = [&] { return seconds_between(start, Clock::now()); };
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(in.schedule[i].at));
  };

  std::thread hit_thread([&] {
    for (std::size_t i : hits) {
      std::this_thread::sleep_until(due(i));
      Outcome& o = run.outcomes[i];
      o.sent = now();
      try {
        std::string ticket;
        {
          const auto s = run.hit_trace.scope("server.submit", i + 1);
          ticket = hit_client.submit(bodies[i]);
        }
        o.submitted = now();
        json::Value r;
        {
          const auto s = run.hit_trace.scope("server.result", i + 1);
          r = hit_client.result(ticket, 1000.0);
        }
        if (r.at("status").as_string() == "pending")
          r = await(hit_client, ticket);
        record_done(o, r, now());
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
  });

  std::thread fresh_thread([&] {
    struct Pending {
      std::size_t index;
      std::string ticket;
    };
    std::deque<Pending> pending;
    std::size_t next = 0;
    while (next < fresh.size() || !pending.empty()) {
      if (next < fresh.size() && Clock::now() >= due(fresh[next])) {
        const std::size_t i = fresh[next++];
        Outcome& o = run.outcomes[i];
        o.sent = now();
        try {
          const auto s = run.fresh_trace.scope("server.submit", i + 1);
          pending.push_back({i, fresh_client.submit(bodies[i])});
          o.submitted = now();
        } catch (const std::exception& e) {
          o.error = e.what();
        }
        continue;
      }
      if (pending.empty()) {
        std::this_thread::sleep_until(due(fresh[next]));
        continue;
      }
      const double budget_ms =
          next < fresh.size()
              ? std::max(0.0, seconds_between(Clock::now(), due(fresh[next])) *
                                  1e3)
              : 1000.0;
      const Pending& head = pending.front();
      try {
        json::Value r;
        {
          const auto s =
              run.fresh_trace.scope("server.result", head.index + 1);
          r = fresh_client.result(head.ticket, budget_ms);
        }
        if (r.at("status").as_string() == "pending") continue;
        record_done(run.outcomes[head.index], r, now());
      } catch (const std::exception& e) {
        run.outcomes[head.index].error = e.what();
      }
      pending.pop_front();
    }
  });
  hit_thread.join();
  fresh_thread.join();
  for (const Outcome& o : run.outcomes) run.wall = std::max(run.wall, o.done);
  return run;
}

/// Direct Evaluator results for the cohort and every fresh candidate,
/// computed on kVerifyThreads threads (Evaluator::evaluate is thread-safe).
struct Direct {
  std::vector<search::CandidateResult> cohort;
  std::vector<search::CandidateResult> fresh;
};

Direct direct_results(const ServeInputs& in) {
  const search::EvaluatorOptions options =
      serve_session().evaluator_options(qaoa::EngineKind::Statevector);
  std::vector<std::unique_ptr<search::Evaluator>> evaluators;
  for (const auto& g : in.graphs)
    evaluators.push_back(std::make_unique<search::Evaluator>(g, options));
  Direct d;
  d.cohort.resize(in.cohort.size());
  d.fresh.resize(in.fresh.size());
  std::atomic<std::size_t> cursor{0};
  const std::size_t total = in.cohort.size() + in.fresh.size();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kVerifyThreads; ++t)
    pool.emplace_back([&] {
      for (std::size_t k = cursor++; k < total; k = cursor++) {
        if (k < in.cohort.size()) {
          d.cohort[k] = evaluators[0]->evaluate(in.cohort[k], ServeInputs::kDepth);
        } else {
          const FreshCandidate& f = in.fresh[k - in.cohort.size()];
          d.fresh[k - in.cohort.size()] =
              evaluators[f.graph]->evaluate(f.mixer, ServeInputs::kDepth);
        }
      }
    });
  for (auto& t : pool) t.join();
  return d;
}

/// Gate: every wire result resolved, and is bit-identical to `expect`.
void check_wire(const ServeInputs& in, const WireRun& run,
                const std::vector<search::CandidateResult>& cohort_expect,
                const std::vector<search::CandidateResult>& fresh_expect,
                RunResult& out) {
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    const Request& r = in.schedule[i];
    const Outcome& o = run.outcomes[i];
    if (o.sent < 0.0 || o.done < 0.0 || !o.error.empty()) {
      out.fail("request " + std::to_string(i) + " failed: " +
               (o.error.empty() ? "unresolved" : o.error));
      continue;
    }
    const search::CandidateResult& want =
        r.hit ? cohort_expect[r.index] : fresh_expect[r.index];
    if (!same_result(o.result, want))
      out.fail("wire result " + std::to_string(i) +
               " differs from the direct Evaluator result");
  }
}

json::Value lag_json(const LagReport& lag) {
  json::Value v = json::Value::object();
  v.set("scheduled", lag.scheduled);
  v.set("sent", lag.sent);
  v.set("late", lag.late);
  v.set("p50_ms", lag.p50_ms);
  v.set("p99_ms", lag.p99_ms);
  v.set("max_ms", lag.max_ms);
  v.set("valid", lag.valid);
  return v;
}

}  // namespace

RunResult run_serve(const Options& o) {
  RunResult out;
  std::vector<double> setups;
  ServeInputs in;
  Deployment d;
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (d.server) d.server->stop();
    const auto t0 = Clock::now();
    in = serve_inputs(o.seed, o.seconds);
    d = deploy(in);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  WireRun run = drive(d, in);
  out.attempted = in.schedule.size();

  // Open-loop validity: every send went out, and on time.
  std::vector<double> scheduled, sent;
  for (std::size_t i = 0; i < in.schedule.size(); ++i)
    if (run.outcomes[i].sent >= 0.0) {
      scheduled.push_back(in.schedule[i].at);
      sent.push_back(run.outcomes[i].sent);
    }
  // Sends that never went out stay in the schedule and count as missing.
  scheduled.resize(in.schedule.size(), 0.0);
  const LagReport lag = account_lag(scheduled, sent, kLateThreshold, kMaxLateFrac);
  if (!lag.valid) out.fail("open-loop generator lagged behind its schedule");

  std::vector<double> hit_ms, fresh_ms, wait_ms;
  std::size_t fresh_done = 0;
  double fresh_busy = 0.0;
  std::vector<double> queue_ms, eval_ms;
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    const Outcome& oc = run.outcomes[i];
    if (oc.done < 0.0 || !oc.error.empty()) continue;
    const double latency_ms = (oc.done - in.schedule[i].at) * 1e3;
    if (in.schedule[i].hit) {
      hit_ms.push_back(latency_ms);
    } else {
      fresh_ms.push_back(latency_ms);
      wait_ms.push_back((oc.done - oc.submitted) * 1e3);
      queue_ms.push_back(oc.result.queue_seconds * 1e3);
      eval_ms.push_back(oc.result.eval_seconds * 1e3);
      fresh_busy += oc.result.eval_seconds;
      ++fresh_done;
    }
  }
  const auto counters = d.server->counters();
  const auto stats = d.server->service().stats();
  const std::size_t refused = counters.bad_requests + counters.unauthorized +
                              counters.rate_limited + counters.quota_rejected;

  if (!o.trace) {
    const Direct direct = direct_results(in);
    for (std::size_t k = 0; k < in.cohort.size(); ++k)
      if (!same_result(d.cohort[k], direct.cohort[k]))
        out.fail("warm cohort result differs from the direct Evaluator");
    check_wire(in, run, direct.cohort, direct.fresh, out);
    out.add("setup_s", median(setups), "s", setups.size());
    out.add("wall_s", run.wall, "s");
    out.add("candidates_per_s", static_cast<double>(fresh_done) / run.wall,
            "1/s", fresh_done);
    std::vector<double> all_ms = hit_ms;
    all_ms.insert(all_ms.end(), fresh_ms.begin(), fresh_ms.end());
    out.add("latency_p50_ms", quantile(all_ms, 0.50), "ms", all_ms.size());
    out.add("fresh_p50_ms", quantile(fresh_ms, 0.50), "ms", fresh_ms.size());
    out.add("fresh_p90_ms", quantile(fresh_ms, 0.90), "ms", fresh_ms.size());
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    // Serial replay of every fresh candidate, then of the warm cohort, each
    // checked against its wire result.
    std::vector<ReplayJob> jobs;
    for (std::size_t i = 0; i < in.schedule.size(); ++i) {
      const Request& r = in.schedule[i];
      const Outcome& oc = run.outcomes[i];
      if (r.hit) continue;
      jobs.push_back({&in.graphs[in.fresh[r.index].graph],
                      Candidate{in.fresh[r.index].mixer, ServeInputs::kDepth},
                      oc.error.empty() && oc.done >= 0.0 ? &oc.result : nullptr});
      if (jobs.back().expected == nullptr) out.fail("fresh request failed");
    }
    const std::size_t fresh_jobs = jobs.size();
    for (std::size_t k = 0; k < in.cohort.size(); ++k)
      jobs.push_back({&in.graphs[0], Candidate{in.cohort[k], ServeInputs::kDepth},
                      &d.cohort[k]});
    const ReplayReport replay = replay_all(
        jobs, serve_session().evaluator_options(qaoa::EngineKind::Statevector));
    if (replay.mismatches != 0)
      out.fail("serial replay differs from the wire result", replay.mismatches);
    double fresh_evaluate_s = 0.0;
    for (std::size_t k = 0; k < fresh_jobs; ++k)
      fresh_evaluate_s += replay.evaluate_s[k];
    for (std::size_t i = 0; i < in.schedule.size(); ++i) {
      const Request& r = in.schedule[i];
      const Outcome& oc = run.outcomes[i];
      if (r.hit && (!oc.error.empty() || oc.done < 0.0 ||
                    !same_result(oc.result, d.cohort[r.index])))
        out.fail("cache hit differs from the warm cohort result");
    }

    // The in-process dispatch floor under the wire: direct submits of the
    // warmed cohort against the daemon's own service.
    Trace service_trace;
    for (std::size_t k = 0; k < in.cohort.size(); ++k)
      for (std::size_t round = 0; round < 10; ++round) {
        const auto s = service_trace.scope("service.submit", k + 1);
        (void)d.server->service().submit(in.graphs[0], in.cohort[k],
                                         ServeInputs::kDepth);
      }

    std::vector<double> submit_us, result_us, service_us;
    for (const Trace* t : {&run.hit_trace, &run.fresh_trace})
      for (double s : t->durations("server.submit")) submit_us.push_back(s * 1e6);
    for (double s : run.hit_trace.durations("server.result"))
      result_us.push_back(s * 1e6);
    for (double s : service_trace.durations("service.submit"))
      service_us.push_back(s * 1e6);
    const double workers = static_cast<double>(kServiceWorkers);
    std::map<std::string, double> m = replay_layer_metrics(replay);
    m["server.submit_rtt_us_p50"] = quantile(submit_us, 0.50);
    m["server.submit_rtt_us_p99"] = quantile(submit_us, 0.99);
    m["server.result_rtt_us_p50"] = quantile(result_us, 0.50);
    m["server.result_wait_ms_p50"] = quantile(wait_ms, 0.50);
    m["server.wire_hit_ms_p50"] = quantile(hit_ms, 0.50);
    m["server.wire_hit_ms_p99"] = quantile(hit_ms, 0.99);
    m["server.wire_fresh_ms_p50"] = quantile(fresh_ms, 0.50);
    m["server.wire_fresh_ms_p90"] = quantile(fresh_ms, 0.90);
    m["server.requests"] = static_cast<double>(counters.requests);
    m["server.refused"] = static_cast<double>(refused);
    m["service.submit_us_p50"] = quantile(service_us, 0.50);
    m["service.queue_wait_ms_p50"] = quantile(queue_ms, 0.50);
    m["service.queue_wait_ms_p90"] = quantile(queue_ms, 0.90);
    m["service.eval_ms_p50"] = quantile(eval_ms, 0.50);
    m["service.cache_hits"] = static_cast<double>(stats.cache_hits);
    m["service.cache_misses"] = static_cast<double>(stats.cache_misses);
    m["service.hit_ratio"] =
        static_cast<double>(stats.cache_hits) /
        static_cast<double>(std::max<std::size_t>(1, stats.cache_hits + stats.cache_misses));
    m["service.worker_busy_frac"] = fresh_busy / (run.wall * workers);
    m["service.jobs_failed"] = static_cast<double>(stats.failed);
    m["parallel.efficiency"] = fresh_evaluate_s / (run.wall * workers);
    for (const auto& [name, unit] : layer_metric_units())
      out.add(name, m.count(name) != 0 ? m[name] : 0.0, unit);
    out.attempted += jobs.size();
    if (!o.trace_out.empty()) {
      run.hit_trace.append_jsonl(o.trace_out, "serve_mixed.interactive");
      run.fresh_trace.append_jsonl(o.trace_out, "serve_mixed.batch");
      service_trace.append_jsonl(o.trace_out, "serve_mixed.service");
      replay.trace.append_jsonl(o.trace_out, "serve_mixed.replay");
    }
  }
  if (stats.failed != 0) out.fail("service reported failed jobs", stats.failed);
  if (refused != 0) out.fail("requests were refused", refused);

  json::Value inputs = json::Value::object();
  inputs.set("qubits", ServeInputs::kQubits);
  inputs.set("p", ServeInputs::kDepth);
  inputs.set("rate_per_s", ServeInputs::kRate);
  inputs.set("hit_share", ServeInputs::kHitShare);
  inputs.set("cohort", in.cohort.size());
  inputs.set("fresh", in.fresh.size());
  inputs.set("requests", in.schedule.size());
  inputs.set("graphs", in.graphs.size());
  out.details.set("inputs", inputs);
  out.details.set("generator_lag", lag_json(lag));
  out.details.set("fresh_supported_tail", supported_tail(fresh_ms.size()));
  out.details.set("hit_supported_tail", supported_tail(hit_ms.size()));
  out.details.set("wire_hit_p50_ms", quantile(hit_ms, 0.50));
  out.details.set("wire_hit_p99_ms", quantile(hit_ms, 0.99));
  out.details.set("server_requests", counters.requests);
  d.server->stop();
  return out;
}

}  // namespace perfbench
