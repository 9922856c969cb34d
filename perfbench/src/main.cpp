// perfbench_driver: runs one workload once and prints its metrics.
//
//   perfbench_driver --workload search_sv --seed 1 --seconds 10 --trace 0
//                    --reference perfbench/reference.json [--trace-out F]
//                    [--git-sha SHA]
//   perfbench_driver --write-reference F   (records reference.json, seed 1)
//
// Standard output: a "meta" line (machine, build, SIMD, seed, sizes), a
// "details" line (sample counts, gate diagnostics), then as the LAST line
// one JSON object {correct, attempted, failed, metrics}. Exit code 0 only
// when every correctness gate held.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "sim/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"server.wire_hit_ms_p50", "ms"},
      {"server.wire_hit_ms_p99", "ms"},
      {"server.wire_fresh_ms_p50", "ms"},
      {"server.wire_fresh_ms_p90", "ms"},
      {"server.submit_rtt_us_p50", "us"},
      {"server.submit_rtt_us_p99", "us"},
      {"server.result_rtt_us_p50", "us"},
      {"server.result_wait_ms_p50", "ms"},
      {"server.requests", "count"},
      {"server.refused", "count"},
      {"service.submit_us_p50", "us"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p90", "ms"},
      {"service.eval_ms_p50", "ms"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.hit_ratio", "frac"},
      {"service.worker_busy_frac", "frac"},
      {"service.jobs_failed", "count"},
      {"evaluator.evaluate_ms_total", "ms"},
      {"circuit.build_ms_total", "ms"},
      {"qaoa.plan_compile_ms_total", "ms"},
      {"qaoa.energy_ms_total", "ms"},
      {"qaoa.energy_calls", "count"},
      {"qaoa.energy_us_p50", "us"},
      {"qaoa.score_ms_total", "ms"},
      {"optim.self_ms_total", "ms"},
      {"sim.program_compiles", "count"},
      {"sim.memory_passes_per_energy", "count"},
      {"sim.bytes_per_energy_computed", "B"},
      {"qtensor.planner_invocations", "count"},
      {"qtensor.network_builds", "count"},
      {"qtensor.compiled_programs", "count"},
      {"qtensor.distinct_shapes", "count"},
      {"qtensor.max_width", "count"},
      {"qtensor.est_flops_per_energy", "flop"},
      {"query.sampler_build_ms_total", "ms"},
      {"query.sample_ms_total", "ms"},
      {"query.sample_calls", "count"},
      {"query.shots", "count"},
      {"query.sample_us_per_shot", "us"},
      {"parallel.efficiency", "frac"},
      {"trace.coverage", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return units;
}

namespace {

namespace json = qarch::json;

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

json::Value meta(const Options& o, const std::string& git_sha) {
  json::Value m = json::Value::object();
  m.set("workload", workload_name(o.workload));
  m.set("seed", static_cast<double>(o.seed));
  m.set("seconds", o.seconds);
  m.set("trace", o.trace);
  m.set("cpu_model", cpu_model());
  m.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  m.set("simd_active", qarch::sim::simd::active());
  m.set("cpu_has_avx2", qarch::sim::simd::cpu_has_avx2());
  m.set("build_type", PERFBENCH_BUILD_TYPE);
  m.set("compiler", PERFBENCH_COMPILER);
  m.set("git_sha", git_sha);
  return m;
}

int write_reference(const std::string& path) {
  json::Value all = json::Value::object();
  for (Workload w :
       {Workload::SearchSv, Workload::SearchTn, Workload::SampleTn})
    all.set(workload_name(w), search_reference(w, 1));
  std::ofstream(path) << all.dump(1) << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace json = qarch::json;
  try {
    const qarch::Cli cli(argc, argv);
    if (cli.has("write-reference"))
      return write_reference(cli.get("write-reference", "reference.json"));
    Options o;
    o.workload = workload_from_name(cli.get("workload", ""));
    o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    o.seconds = cli.get_double("seconds", 10.0);
    o.trace = cli.get_int("trace", 0) != 0;
    o.reference_path = cli.get("reference", "perfbench/reference.json");
    o.trace_out = cli.get("trace-out", "");
    json::Value meta_line = json::Value::object();
    meta_line.set("meta", meta(o, cli.get("git-sha", "unknown")));
    std::cout << meta_line.dump() << std::endl;

    RunResult r = o.workload == Workload::ServeMixed ? run_serve(o)
                                                     : run_search(o);

    json::Value samples = json::Value::object();
    json::Value metrics = json::Value::object();
    for (const auto& [name, m] : r.metrics) {
      samples.set(name, m.samples);
      json::Value v = json::Value::object();
      v.set("value", m.value);
      v.set("unit", m.unit);
      metrics.set(name, std::move(v));
    }
    json::Value errors = json::Value::array();
    for (const auto& e : r.errors) errors.push_back(e);
    r.details.set("samples", std::move(samples));
    r.details.set("errors", std::move(errors));
    r.details.set("ops_failed_frac",
                  static_cast<double>(r.failed) /
                      static_cast<double>(std::max<std::size_t>(1, r.attempted)));
    json::Value details_line = json::Value::object();
    details_line.set("details", std::move(r.details));
    std::cout << details_line.dump() << std::endl;

    json::Value last = json::Value::object();
    last.set("correct", r.correct());
    last.set("attempted", std::max<std::size_t>(1, r.attempted));
    last.set("failed", r.failed);
    last.set("metrics", std::move(metrics));
    std::cout << last.dump() << std::endl;
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
