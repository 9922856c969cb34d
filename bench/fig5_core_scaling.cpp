// Figure 5: time to run the p=2 search for one graph as the worker count
// sweeps 8..64 in steps of 8, against the serial baseline (dashed line in
// the paper).
//
// Expected shape: parallel time is below the serial line everywhere and
// decreases with the worker count until it saturates (beyond the physical
// core count extra workers stop helping — our host has fewer than 64 cores,
// which the output records, mirroring the paper's flattening tail).
//
// Every sweep point splits its budget two-level as (cores / inner)
// candidate workers x --inner simulator threads, exercising
// inner_workers > 1 on the compiled kernels.
//
// Flags: bench_util standards plus --p (2) --inner (2)
#include <thread>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 5", "search time at p=2 vs available workers", cfg);

  const std::size_t combos = cfg.combos_or(/*quick=*/32, /*full=*/780);
  const std::size_t p = static_cast<std::size_t>(cli.get_int("p", 2));
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("inner", 2)));
  const auto candidates = bench::candidate_subsample(
      search::GateAlphabet::standard(), 4, combos, cfg.seed);

  Rng rng(cfg.seed);
  const graph::Graph g = graph::erdos_renyi_connected(10, 0.5, rng);
  std::printf("graph=%s candidates=%zu p=%zu physical cores=%u inner=%zu\n\n",
              g.to_string().c_str(), candidates.size(), p,
              std::thread::hardware_concurrency(), inner);

  const double serial_compiled =
      bench::timed_candidate_search(g, candidates, p, 1, 1, cfg.engine);
  std::printf("serial baseline: %.3fs (dashed line)\n\n", serial_compiled);
  std::printf("%-8s %-20s %-12s\n", "cores", "compiled 2-level (s)",
              "vs serial");

  Series compiled_series{"compiled two-level", {}, {}};
  Series serial_series{"serial compiled (baseline)", {}, {}};
  std::vector<std::vector<double>> csv_rows;
  for (std::size_t cores = 8; cores <= 64; cores += 8) {
    // The core budget split two-level: candidates x simulator threads.
    const double t_compiled = bench::timed_candidate_search(
        g, candidates, p, std::max<std::size_t>(1, cores / inner), inner,
        cfg.engine);
    std::printf("%-8zu %-20.3f %-12.2fx\n", cores, t_compiled,
                serial_compiled / t_compiled);
    compiled_series.x.push_back(static_cast<double>(cores));
    compiled_series.y.push_back(t_compiled);
    serial_series.x.push_back(static_cast<double>(cores));
    serial_series.y.push_back(serial_compiled);
    csv_rows.push_back(
        {static_cast<double>(cores), t_compiled, serial_compiled});
  }

  AsciiPlot plot("Fig 5: time to simulate vs cores (p=2)", "cores", "seconds");
  plot.add(compiled_series);
  plot.add(serial_series);
  std::printf("\n%s\n", plot.render().c_str());
  bench::maybe_csv(cfg.csv_path,
                   {"cores", "compiled_twolevel_s", "serial_compiled_s"},
                   csv_rows);
  return 0;
}
