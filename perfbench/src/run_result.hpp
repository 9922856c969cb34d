// What one benchmark invocation reports, and the per-layer metric catalogue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Command-line settings of one invocation.
struct Options {
  Workload workload = Workload::SearchSv;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< committed reference results
  std::string trace_out;       ///< JSON-lines span dump ("" = none)
};

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;  ///< observations the value summarizes
};

struct RunResult {
  std::size_t attempted = 0;  ///< requests / evaluations issued
  std::size_t failed = 0;     ///< failed, refused or wrong results
  bool gates_passed = true;   ///< every correctness check held
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, Metric>> metrics;
  qarch::json::Value details = qarch::json::Value::object();

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics.push_back({name, Metric{value, unit, samples}});
  }
  /// Records a failed check; `ops` results it invalidates count as failed.
  void fail(const std::string& why, std::size_t ops = 1) {
    gates_passed = false;
    failed += ops;
    if (errors.size() < 20) errors.push_back(why);
  }
  [[nodiscard]] bool correct() const { return gates_passed && failed == 0; }
};

/// Every per-layer metric a traced run prints, with its unit, in report
/// order. Layers a workload bypasses read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
