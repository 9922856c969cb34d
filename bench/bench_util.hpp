// Shared helpers for the figure-reproduction harnesses.
//
// Every fig*_ binary accepts:
//   --quick (default)  calibrated-down workload that keeps the figure's
//                      SHAPE while finishing in seconds..minutes
//   --full             the paper's full workload (|A_R|=5, k=1..4 → 780
//                      sequences per depth; 20 graphs; 5 runs)
//   --engine sv|tn     simulator engine (default sv; the paper used the
//                      tensor-network backend — see EXPERIMENTS.md)
//   --csv PATH         also dump the series to CSV
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "parallel/task_pool.hpp"
#include "qaoa/energy.hpp"
#include "search/combinations.hpp"
#include "search/engine.hpp"
#include "session.hpp"

namespace qarch::bench {

/// Standard workload knobs decoded from the CLI.
struct BenchConfig {
  bool full = false;
  qaoa::EngineKind engine = qaoa::EngineKind::Statevector;
  std::string csv_path;
  std::size_t combos = 0;   ///< candidate sequences per depth (0 = mode default)
  std::size_t graphs = 0;   ///< dataset size (0 = mode default)
  std::size_t runs = 0;     ///< repetitions (0 = mode default)
  std::uint64_t seed = 2023;

  static BenchConfig from_cli(const Cli& cli) {
    BenchConfig c;
    c.full = cli.has("full");
    if (cli.get("engine", "sv") == "tn")
      c.engine = qaoa::EngineKind::TensorNetwork;
    c.csv_path = cli.get("csv", "");
    c.combos = static_cast<std::size_t>(cli.get_int("combos", 0));
    c.graphs = static_cast<std::size_t>(cli.get_int("graphs", 0));
    c.runs = static_cast<std::size_t>(cli.get_int("runs", 0));
    c.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2023));
    return c;
  }

  [[nodiscard]] std::size_t combos_or(std::size_t quick,
                                      std::size_t full_value) const {
    if (combos != 0) return combos;
    return full ? full_value : quick;
  }
  [[nodiscard]] std::size_t graphs_or(std::size_t quick,
                                      std::size_t full_value) const {
    if (graphs != 0) return graphs;
    return full ? full_value : quick;
  }
  [[nodiscard]] std::size_t runs_or(std::size_t quick,
                                    std::size_t full_value) const {
    if (runs != 0) return runs;
    return full ? full_value : quick;
  }

  /// The --engine flag as a session-level BackendChoice (never Auto: the
  /// figure harnesses compare the two engines explicitly).
  [[nodiscard]] BackendChoice backend() const {
    return engine == qaoa::EngineKind::Statevector
               ? BackendChoice::Statevector
               : BackendChoice::TensorNetwork;
  }
};

/// A seeded subsample of the full candidate space (paper alphabet, k<=k_max).
/// count >= space size returns the whole space.
inline std::vector<qaoa::MixerSpec> candidate_subsample(
    const search::GateAlphabet& alphabet, std::size_t k_max, std::size_t count,
    std::uint64_t seed) {
  auto all = search::all_combinations(alphabet, k_max,
                                      search::CombinationMode::Product);
  if (count >= all.size()) return all;
  Rng rng(seed);
  rng.shuffle(all);
  all.resize(count);
  return all;
}

/// Times one full candidate sweep through search::Evaluator — serially or
/// fanned out over a TaskPool — under the two-level (outer candidate
/// workers x inner simulator threads) split the fig4/fig5 scaling harnesses
/// sweep. One definition so both figures always measure the same
/// configuration.
inline double timed_candidate_search(
    const graph::Graph& g, const std::vector<qaoa::MixerSpec>& candidates,
    std::size_t p, std::size_t outer_workers, std::size_t inner_workers,
    qaoa::EngineKind engine) {
  search::EvaluatorOptions opt;
  opt.energy.engine = engine;
  opt.energy.inner_workers = inner_workers;
  opt.cobyla.max_evals = 200;
  const search::Evaluator evaluator(g, opt);

  Timer timer;
  if (outer_workers <= 1) {
    for (const auto& mixer : candidates) (void)evaluator.evaluate(mixer, p);
  } else {
    parallel::TaskPool pool(outer_workers);
    std::vector<std::tuple<std::size_t>> idx;
    for (std::size_t i = 0; i < candidates.size(); ++i) idx.emplace_back(i);
    pool.starmap_async(
            [&](std::size_t i) { return evaluator.evaluate(candidates[i], p); },
            idx)
        .get();
  }
  return timer.seconds();
}

/// Pretty banner for a figure harness.
inline void banner(const char* figure, const char* description,
                   const BenchConfig& cfg) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode=%s engine=%s seed=%llu\n", cfg.full ? "full" : "quick",
              cfg.engine == qaoa::EngineKind::Statevector ? "statevector"
                                                          : "tensor-network",
              static_cast<unsigned long long>(cfg.seed));
  std::printf("================================================================\n");
}

/// Read-modify-write merge of one named section into a JSON report file, so
/// several bench binaries can contribute to a single machine-readable
/// summary (e.g. abl_diagonal_gates and abl_fusion both feed
/// BENCH_sim_kernels.json). A malformed or missing file starts fresh.
inline void update_bench_json(const std::string& path,
                              const std::string& section, json::Value value) {
  json::Value root = json::Value::object();
  if (std::ifstream in(path); in) {
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!ss.str().empty()) {
      try {
        root = json::parse(ss.str());
      } catch (...) {
        root = json::Value::object();
      }
    }
  }
  if (root.type() != json::Value::Type::Object) root = json::Value::object();
  root.set(section, std::move(value));
  std::ofstream out(path);
  out << root.dump(2) << "\n";
  out.flush();
  if (!out) {
    std::printf("ERROR: failed to write json section \"%s\" to %s\n",
                section.c_str(), path.c_str());
    return;
  }
  std::printf("(json section \"%s\" written to %s)\n", section.c_str(),
              path.c_str());
}

/// Writes (x, series...) rows to CSV when a path was requested.
inline void maybe_csv(const std::string& path,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<double>>& rows) {
  if (path.empty()) return;
  CsvWriter w(path, header);
  for (const auto& r : rows) w.row(r);
  std::printf("(csv written to %s)\n", path.c_str());
}

}  // namespace qarch::bench
