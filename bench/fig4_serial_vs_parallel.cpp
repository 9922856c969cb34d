// Figure 4: time to run the mixer search serially vs in parallel as the
// QAOA depth p grows from 1 to 4.
//
// Paper setup: 10-node Erdős–Rényi graphs of varying connectivity, the
// 5-gate rotation alphabet, gate sequences of length k = 1..4, each
// candidate trained 200 COBYLA steps; results averaged over 5 runs. The
// parallel search fans candidates out with starmap_async-style workers.
// Expected shape: serial time grows superlinearly with p; parallel cuts it
// by well over 50% at the larger depths.
//
// Every configuration runs the compiled engines (plan compiled once per
// candidate, reused across all optimizer steps), and the parallel row runs
// the two-level scheme with --inner simulator threads per candidate
// (inner_workers > 1).
//
// Flags: bench_util standards plus --pmax (4) --inner (2)
#include <thread>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 4", "serial vs parallel search time vs depth p", cfg);

  const std::size_t combos = cfg.combos_or(/*quick=*/16, /*full=*/780);
  const std::size_t runs = cfg.runs_or(/*quick=*/2, /*full=*/5);
  const std::size_t p_max = static_cast<std::size_t>(cli.get_int("pmax", 4));
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("inner", 2)));
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  const std::size_t outer = std::max<std::size_t>(1, hw / inner);

  const auto candidates = bench::candidate_subsample(
      search::GateAlphabet::standard(), 4, combos, cfg.seed);
  std::printf("candidates/depth=%zu runs=%zu parallel=%zux%zu "
              "(outer x inner)\n\n",
              candidates.size(), runs, outer, inner);

  Rng rng(cfg.seed);
  std::vector<std::vector<double>> csv_rows;
  Series serial_compiled_series{"serial compiled", {}, {}};
  Series parallel_series{"parallel compiled", {}, {}};

  std::printf("%-4s %-16s %-18s %-10s\n", "p", "serial/compiled",
              "parallel/compiled", "speedup");
  for (std::size_t p = 1; p <= p_max; ++p) {
    std::vector<double> compiled_times, parallel_times;
    for (std::size_t run = 0; run < runs; ++run) {
      const graph::Graph g = graph::erdos_renyi_connected(
          10, rng.uniform(0.3, 0.7), rng);
      compiled_times.push_back(
          bench::timed_candidate_search(g, candidates, p, 1, 1, cfg.engine));
      // Two-level: outer candidate workers x inner simulator threads.
      parallel_times.push_back(bench::timed_candidate_search(
          g, candidates, p, outer, inner, cfg.engine));
    }
    const double sc = mean(compiled_times), q = mean(parallel_times);
    std::printf("%-4zu %-16.3f %-18.3f %-10.2fx\n", p, sc, q, sc / q);
    serial_compiled_series.x.push_back(static_cast<double>(p));
    serial_compiled_series.y.push_back(sc);
    parallel_series.x.push_back(static_cast<double>(p));
    parallel_series.y.push_back(q);
    csv_rows.push_back({static_cast<double>(p), sc, q});
  }

  AsciiPlot plot("Fig 4: time to simulate vs p", "p", "seconds");
  plot.add(serial_compiled_series);
  plot.add(parallel_series);
  std::printf("\n%s\n", plot.render().c_str());
  bench::maybe_csv(cfg.csv_path,
                   {"p", "serial_compiled_s", "parallel_compiled_s"},
                   csv_rows);
  return 0;
}
