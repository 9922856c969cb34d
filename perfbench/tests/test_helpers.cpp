// Tests of the benchmark's own helpers: percentile choice, quartiles,
// open-loop lag accounting, and the seeded input generator.
#include <gtest/gtest.h>

#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(SupportedTail, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(supported_tail(10000), 0.999);
  EXPECT_EQ(supported_tail(9999), 0.99);
  EXPECT_EQ(supported_tail(1000), 0.99);
  EXPECT_EQ(supported_tail(999), 0.90);
  EXPECT_EQ(supported_tail(100), 0.90);
  EXPECT_EQ(supported_tail(60), 0.75);
  EXPECT_EQ(supported_tail(20), 0.50);
  EXPECT_EQ(supported_tail(19), 0.0);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(xs, n=4).
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_DOUBLE_EQ(a.spread(), 5.5 / 5.5);
  const Quartiles b = quartiles({3.0, 1.0});
  EXPECT_DOUBLE_EQ(b.q1, 0.5);
  EXPECT_DOUBLE_EQ(b.median, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.5);
  const Quartiles c = quartiles({10.0, 12.0, 11.0, 13.0, 10.5});
  EXPECT_DOUBLE_EQ(c.q1, 10.25);
  EXPECT_DOUBLE_EQ(c.median, 11.0);
  EXPECT_DOUBLE_EQ(c.q3, 12.5);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(LagAccounting, CountsLateAndMissingSends) {
  const std::vector<double> due{0.0, 0.1, 0.2, 0.3};
  const LagReport on_time = account_lag(due, {0.001, 0.1, 0.2005, 0.3}, 0.02, 0.0);
  EXPECT_TRUE(on_time.valid);
  EXPECT_EQ(on_time.late, 0u);
  EXPECT_NEAR(on_time.max_ms, 1.0, 1e-9);

  const LagReport late = account_lag(due, {0.0, 0.15, 0.2, 0.3}, 0.02, 0.0);
  EXPECT_FALSE(late.valid);
  EXPECT_EQ(late.late, 1u);
  EXPECT_NEAR(late.max_ms, 50.0, 1e-9);
  EXPECT_TRUE(account_lag(due, {0.0, 0.15, 0.2, 0.3}, 0.02, 0.25).valid);

  const LagReport missing = account_lag(due, {0.0, 0.1, 0.2}, 0.02, 1.0);
  EXPECT_FALSE(missing.valid);
  EXPECT_EQ(missing.sent, 3u);
  EXPECT_THROW(account_lag({0.0}, {0.0, 0.1}, 0.02, 0.0), std::invalid_argument);
}

bool same_graph(const qarch::graph::Graph& a, const qarch::graph::Graph& b) {
  return a.num_vertices() == b.num_vertices() && a.edges() == b.edges();
}

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs) {
  for (Workload w : {Workload::SearchSv, Workload::SearchTn, Workload::SampleTn}) {
    const SearchInputs a = search_inputs(w, 3);
    const SearchInputs b = search_inputs(w, 3);
    const SearchInputs c = search_inputs(w, 4);
    EXPECT_TRUE(same_graph(a.graph, b.graph));
    EXPECT_FALSE(same_graph(a.graph, c.graph));
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].mixer.gates, b.candidates[i].mixer.gates);
      EXPECT_EQ(a.candidates[i].p, b.candidates[i].p);
    }
    // Other seeds relabel the same instance: equal size and degree sequence.
    EXPECT_EQ(a.graph.num_edges(), c.graph.num_edges());
    for (std::size_t v = 0; v < c.graph.num_vertices(); ++v)
      EXPECT_EQ(c.graph.degree(v), 3u);
  }
  EXPECT_EQ(search_inputs(Workload::SearchSv, 1).candidates.size(), 60u);
  EXPECT_EQ(search_inputs(Workload::SampleTn, 1).candidates.size(), 12u);

  const ServeInputs a = serve_inputs(5, 2.0);
  const ServeInputs b = serve_inputs(5, 2.0);
  const ServeInputs c = serve_inputs(6, 2.0);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].at, b.schedule[i].at);
    EXPECT_EQ(a.schedule[i].hit, b.schedule[i].hit);
    EXPECT_EQ(a.schedule[i].index, b.schedule[i].index);
  }
  ASSERT_EQ(a.fresh.size(), b.fresh.size());
  for (std::size_t i = 0; i < a.fresh.size(); ++i)
    EXPECT_EQ(a.fresh[i].mixer.gates, b.fresh[i].mixer.gates);
  EXPECT_FALSE(same_graph(a.graphs[0], c.graphs[0]));
  bool other_hits = false;
  for (std::size_t i = 0; i < a.schedule.size(); ++i)
    other_hits |= a.schedule[i].index != c.schedule[i].index;
  EXPECT_TRUE(other_hits);
}

TEST(Inputs, ServeScheduleHasRateShareAndDistinctFreshCandidates) {
  const ServeInputs in = serve_inputs(9, 10.0);
  const double n = static_cast<double>(in.schedule.size());
  EXPECT_EQ(in.schedule.size(), 4000u);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < in.schedule.size(); ++i) {
    EXPECT_LT(in.schedule[i].at, 10.0);
    if (i > 0) EXPECT_GE(in.schedule[i].at, in.schedule[i - 1].at);
    hits += in.schedule[i].hit ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(hits) / n, ServeInputs::kHitShare);
  EXPECT_EQ(in.fresh.size(), in.schedule.size() - hits);
  std::set<std::string> seen;
  for (const auto& f : in.fresh)
    EXPECT_TRUE(seen.insert(std::to_string(f.graph) + f.mixer.to_string()).second);
  for (const auto& f : in.fresh)
    if (f.graph == 0)
      for (const auto& m : in.cohort) EXPECT_NE(f.mixer.gates, m.gates);
}

}  // namespace
}  // namespace perfbench
