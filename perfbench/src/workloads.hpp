// The four workloads. Each returns a RunResult holding either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>

#include "common/json.hpp"
#include "run_result.hpp"

namespace perfbench {

RunResult run_search(const Options& o);
RunResult run_serve(const Options& o);

/// Reference results of one search workload at `seed`, as committed in
/// reference.json (one untraced search).
qarch::json::Value search_reference(Workload w, std::uint64_t seed);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
