// The compiled query subsystem (src/query): amplitude programs vs the
// statevector and the one-shot QTensorSimulator oracle, batched amplitude
// slices, reduced-density-matrix marginals, direct tensor-network sampling
// (a golden draw stream, determinism per seed, agreement in distribution
// with the statevector engine), and the shared-plan-cache warm-replay probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/mixer.hpp"
#include "qtensor/backend.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "query/program.hpp"
#include "query/sampler.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using linalg::cplx;

std::vector<double> random_theta(std::size_t params, Rng& rng) {
  std::vector<double> theta(params);
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  return theta;
}

std::vector<int> bits_of(std::size_t basis, std::size_t n) {
  std::vector<int> bits(n);
  for (std::size_t q = 0; q < n; ++q) bits[q] = (basis >> q) & 1U ? 1 : 0;
  return bits;
}

/// A varied pool of small test instances (graph, mixer, p).
struct Instance {
  graph::Graph g;
  qaoa::MixerSpec mixer;
  std::size_t p;
};

std::vector<Instance> test_instances(Rng& rng) {
  std::vector<Instance> out;
  out.push_back({graph::cycle(5), qaoa::MixerSpec::parse("rx"), 2});
  out.push_back({graph::complete(4), qaoa::MixerSpec::parse("rx,ry"), 1});
  out.push_back(
      {graph::random_regular(6, 3, rng), qaoa::MixerSpec::parse("rx,cz"), 1});
  out.push_back(
      {graph::erdos_renyi_connected(5, 0.6, rng), qaoa::MixerSpec::parse("h,rz,h"), 2});
  return out;
}

// ---------------------------------------------------------------------------
// Amplitudes: compiled program vs statevector vs the one-shot oracle.
// ---------------------------------------------------------------------------

TEST(AmplitudeProgram, MatchesStatevectorAndOneShotOracle) {
  Rng rng(101);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;
  const qtensor::QTensorSimulator one_shot_oracle;  // rebuilds every call

  for (Instance& inst : test_instances(rng)) {
    const circuit::Circuit ansatz =
        qaoa::build_qaoa_circuit(inst.g, inst.p, inst.mixer);
    const query::AmplitudeProgram program(ansatz);
    const std::size_t n = inst.g.num_vertices();
    for (int step = 0; step < 3; ++step) {
      const auto theta = random_theta(ansatz.num_params(), rng);
      const sim::State psi = sv.run_from_plus(ansatz, theta);
      for (int trial = 0; trial < 4; ++trial) {
        const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
        const std::vector<int> bits = bits_of(basis, n);
        const cplx compiled = program.amplitude(theta, bits, backend);
        const cplx one_shot = one_shot_oracle.amplitude(ansatz, theta, bits);
        EXPECT_NEAR(compiled.real(), psi[basis].real(), 1e-8);
        EXPECT_NEAR(compiled.imag(), psi[basis].imag(), 1e-8);
        EXPECT_NEAR(compiled.real(), one_shot.real(), 1e-8);
        EXPECT_NEAR(compiled.imag(), one_shot.imag(), 1e-8);
      }
    }
  }
}

TEST(BatchedAmplitudeProgram, SlicesMatchSingleAmplitudes) {
  Rng rng(202);
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> open = {1, 4};
  const query::BatchedAmplitudeProgram batched(ansatz, open);
  const query::AmplitudeProgram single(ansatz);

  const auto theta = random_theta(ansatz.num_params(), rng);
  // Fix the non-open qubits to a random assignment (ascending qubit order).
  std::vector<int> fixed;
  std::vector<int> bits(n, 0);
  for (std::size_t q = 0; q < n; ++q) {
    if (q == open[0] || q == open[1]) continue;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    fixed.push_back(b);
    bits[q] = b;
  }
  const std::vector<cplx> batch = batched.amplitudes(theta, fixed, backend);
  ASSERT_EQ(batch.size(), 4U);
  // Output index bit j = value of open_qubits[j] (LSB-first).
  for (std::size_t idx = 0; idx < 4; ++idx) {
    bits[open[0]] = static_cast<int>(idx & 1U);
    bits[open[1]] = static_cast<int>((idx >> 1) & 1U);
    const cplx expect = single.amplitude(theta, bits, backend);
    EXPECT_NEAR(batch[idx].real(), expect.real(), 1e-8);
    EXPECT_NEAR(batch[idx].imag(), expect.imag(), 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Marginals: RDM vs the statevector partial trace.
// ---------------------------------------------------------------------------

TEST(MarginalProgram, MatchesStatevectorPartialTrace) {
  Rng rng(303);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::erdos_renyi_connected(6, 0.5, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> targets = {0, 3};
  const query::MarginalProgram program(ansatz, targets);
  const std::size_t k = targets.size();
  const std::size_t dim = std::size_t{1} << k;

  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<cplx> rdm = program.rdm(theta, backend);
  ASSERT_EQ(rdm.size(), dim * dim);

  // Reference partial trace from the full state.
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  std::vector<cplx> ref(dim * dim, cplx{0.0, 0.0});
  auto embed = [&](std::size_t rest, std::size_t t) {
    // `rest` enumerates the non-target qubits (ascending), `t` the targets.
    std::size_t basis = 0, ri = 0;
    for (std::size_t q = 0; q < n; ++q) {
      bool is_target = false;
      for (std::size_t j = 0; j < k; ++j)
        if (targets[j] == q) {
          basis |= ((t >> j) & 1U) << q;
          is_target = true;
        }
      if (!is_target) {
        basis |= ((rest >> ri) & 1U) << q;
        ++ri;
      }
    }
    return basis;
  };
  for (std::size_t rest = 0; rest < (std::size_t{1} << (n - k)); ++rest)
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        ref[r * dim + c] +=
            psi[embed(rest, r)] * std::conj(psi[embed(rest, c)]);

  double trace = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    trace += rdm[r * dim + r].real();
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(rdm[r * dim + c].real(), ref[r * dim + c].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), ref[r * dim + c].imag(), 1e-8);
      // Hermitian: rho[r][c] == conj(rho[c][r]).
      EXPECT_NEAR(rdm[r * dim + c].real(), rdm[c * dim + r].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), -rdm[c * dim + r].imag(), 1e-8);
    }
  }
  EXPECT_NEAR(trace, 1.0, 1e-8);

  // probabilities() is the clamped diagonal.
  const std::vector<double> probs = program.probabilities(theta, backend);
  ASSERT_EQ(probs.size(), dim);
  double total = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    EXPECT_NEAR(probs[r], ref[r * dim + r].real(), 1e-8);
    total += probs[r];
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

// ---------------------------------------------------------------------------
// Sampling: exact probabilities, per-seed determinism, distributions.
// ---------------------------------------------------------------------------

query::SamplerOptions tn_sampler_options() {
  query::SamplerOptions so;
  so.engine = query::SamplerEngine::TensorNetwork;
  return so;
}

TEST(Sampler, ProbabilityMatchesStatevector) {
  Rng rng(404);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(6);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  query::SamplerOptions sv_opts;  // statevector engine default
  const query::Sampler sv_sampler(ansatz, sv_opts);
  const query::Sampler tn_sampler(ansatz, tn_sampler_options());
  ASSERT_EQ(sv_sampler.engine(), query::SamplerEngine::Statevector);
  ASSERT_EQ(tn_sampler.engine(), query::SamplerEngine::TensorNetwork);

  const auto theta = random_theta(ansatz.num_params(), rng);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
    const double expect = std::norm(psi[basis]);
    EXPECT_NEAR(sv_sampler.probability(theta, basis), expect, 1e-8);
    EXPECT_NEAR(tn_sampler.probability(theta, basis), expect, 1e-8);
  }
}

TEST(Sampler, SeededDrawsAreDeterministicAcrossWorkerCounts) {
  Rng rng(505);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::size_t shots = 64;

  // Tensor-network engine: two samplers compiled from the same ansatz.
  const query::Sampler tn_serial(ansatz, tn_sampler_options());
  const query::Sampler tn_twin(ansatz, tn_sampler_options());
  Rng r1(99), r2(99);
  const auto a = tn_serial.sample(theta, shots, r1);
  const auto b = tn_twin.sample(theta, shots, r2);
  EXPECT_EQ(a, b);

  // Statevector engine: 1 vs 4 replay workers, same seed.
  query::SamplerOptions sv1, sv4;
  sv4.sv_workers = 4;
  const query::Sampler sampler1(ansatz, sv1);
  const query::Sampler sampler4(ansatz, sv4);
  Rng r3(99), r4(99);
  const auto c = sampler1.sample(theta, shots, r3);
  const auto d = sampler4.sample(theta, shots, r4);
  EXPECT_EQ(c, d);

  // Replaying the same seed on the same sampler reproduces the draws.
  Rng r5(99);
  EXPECT_EQ(a, tn_serial.sample(theta, shots, r5));
}

TEST(Sampler, EnginesAgreeInDistribution) {
  Rng rng(606);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(5);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();
  const auto theta = random_theta(ansatz.num_params(), rng);

  const query::Sampler tn(ansatz, tn_sampler_options());
  const std::size_t shots = 4000;
  Rng draw(7);
  const auto samples = tn.sample(theta, shots, draw);

  std::vector<double> empirical(std::size_t{1} << n, 0.0);
  for (const std::size_t s : samples) empirical[s] += 1.0 / double(shots);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  double tv = 0.0;
  for (std::size_t basis = 0; basis < empirical.size(); ++basis)
    tv += std::abs(empirical[basis] - std::norm(psi[basis]));
  tv *= 0.5;
  // 4000 draws over 32 outcomes: TV distance ~ O(sqrt(32/4000)) ~ 0.045;
  // 0.1 gives a comfortable deterministic-seed margin.
  EXPECT_LT(tv, 0.1);
}

// Golden TN draw stream: what a per-shot marginal walk (every qubit's
// marginal contracted for every shot) draws. 512 shots over 8 qubits hit
// only 169 distinct outcomes, so prefixes repeat heavily and the prefix
// tree shares most contractions; it must still match bit for bit.
TEST(Sampler, TensorNetworkDrawsMatchGoldenStream) {
  Rng rng(808);
  const graph::Graph g = graph::random_regular(8, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const auto theta = random_theta(ansatz.num_params(), rng);
  const query::Sampler tn(ansatz, tn_sampler_options());
  const std::vector<std::size_t> golden = {
      27, 179, 35, 51, 178, 82, 108, 84, 141, 23, 168, 221, 212, 105, 178, 61,
      22, 153, 194, 108, 152, 92, 68, 110, 120, 5, 131, 81, 133, 146, 234, 131,
      45, 45, 204, 204, 27, 170, 78, 232, 211, 145, 45, 85, 100, 108, 172, 102,
      212, 109, 104, 115, 19, 168, 206, 107, 148, 105, 170, 13, 49, 29, 134,
      228, 216, 151, 56, 232, 204, 83, 23, 58, 174, 124, 143, 147, 101, 147, 23,
      85, 212, 56, 111, 179, 163, 179, 140, 85, 39, 118, 43, 92, 56, 19, 30,
      141, 235, 115, 148, 92, 210, 106, 34, 51, 154, 205, 146, 39, 104, 56, 142,
      168, 106, 212, 210, 105, 103, 101, 73, 73, 29, 59, 99, 45, 235, 145, 147,
      73, 120, 233, 131, 109, 230, 185, 159, 133, 18, 227, 112, 135, 212, 176,
      45, 103, 76, 56, 51, 27, 147, 93, 204, 114, 200, 226, 63, 99, 77, 90, 163,
      150, 120, 21, 199, 54, 132, 135, 153, 42, 76, 82, 114, 216, 12, 232, 236,
      86, 165, 110, 172, 138, 142, 98, 76, 109, 111, 165, 89, 163, 104, 45, 123,
      150, 15, 115, 160, 76, 50, 76, 51, 216, 204, 218, 154, 81, 147, 212, 220,
      151, 69, 212, 19, 83, 77, 102, 248, 115, 108, 60, 51, 213, 101, 11, 76,
      112, 152, 19, 123, 142, 84, 39, 151, 39, 139, 23, 114, 149, 208, 18, 225,
      59, 112, 109, 135, 198, 147, 220, 157, 37, 109, 95, 154, 170, 103, 196,
      220, 99, 212, 45, 81, 160, 12, 234, 150, 39, 108, 160, 108, 232, 178, 104,
      244, 170, 173, 76, 147, 69, 155, 84, 133, 170, 160, 19, 240, 43, 29, 238,
      88, 165, 23, 114, 184, 117, 34, 82, 123, 126, 35, 165, 39, 108, 246, 186,
      140, 53, 133, 40, 99, 85, 173, 117, 115, 51, 220, 49, 46, 213, 85, 156,
      232, 78, 153, 158, 19, 135, 110, 213, 184, 155, 221, 170, 117, 99, 204,
      207, 226, 39, 47, 87, 71, 92, 83, 187, 101, 104, 108, 127, 186, 152, 232,
      103, 37, 214, 187, 51, 93, 160, 218, 126, 106, 208, 48, 210, 163, 149,
      113, 76, 210, 33, 138, 80, 254, 167, 85, 140, 121, 179, 57, 146, 39, 45,
      150, 101, 135, 167, 54, 49, 186, 206, 78, 134, 51, 39, 13, 103, 172, 120,
      156, 43, 115, 141, 142, 108, 177, 236, 142, 120, 109, 120, 172, 104, 173,
      163, 35, 146, 156, 99, 157, 168, 85, 88, 103, 81, 218, 141, 99, 168, 47,
      218, 93, 145, 81, 242, 204, 30, 142, 146, 45, 154, 171, 106, 146, 229,
      135, 108, 152, 114, 140, 171, 99, 113, 168, 152, 104, 13, 163, 135, 95,
      74, 23, 218, 147, 109, 220, 43, 204, 114, 151, 103, 170, 108, 21, 87, 27,
      115, 92, 220, 106, 114, 42, 135, 170, 142, 109, 110, 46, 113, 161, 108,
      148, 155, 158, 19, 146, 59, 98, 110, 175, 147, 242, 133, 243, 172, 248,
      103, 99, 113, 115, 179, 132, 173, 156, 200};
  ASSERT_EQ(golden.size(), 512U);

  Rng draw(2024);
  EXPECT_EQ(tn.sample(theta, golden.size(), draw), golden);
  // Exactly one uniform per shot: the caller's stream continues where
  // `shots` plain uniforms would leave it.
  Rng expect(2024);
  for (std::size_t s = 0; s < golden.size(); ++s) (void)expect.uniform();
  EXPECT_EQ(draw.state().words, expect.state().words);

  // shots = 0 draws nothing and leaves the stream untouched.
  Rng none(2024);
  EXPECT_TRUE(tn.sample(theta, 0, none).empty());
  EXPECT_EQ(none.state().words, Rng(2024).state().words);

  // shots = 1 is the first draw of the same seed.
  Rng one(2024);
  EXPECT_EQ(tn.sample(theta, 1, one), std::vector<std::size_t>{golden[0]});
}

TEST(Sampler, SingleQubitTensorNetworkMatchesStatevector) {
  circuit::Circuit ansatz(1, 1);
  ansatz.ry(0, circuit::ParamExpr::symbol(0));
  const std::vector<double> theta = {0.7};
  const query::Sampler tn(ansatz, tn_sampler_options());
  const query::Sampler sv(ansatz, query::SamplerOptions{});
  EXPECT_NEAR(tn.probability(theta, 0), sv.probability(theta, 0), 1e-12);

  Rng r1(31), r2(31);
  const auto a = tn.sample(theta, 200, r1);
  const auto b = sv.sample(theta, 200, r2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(r1.state().words, r2.state().words);
  EXPECT_NE(std::count(a.begin(), a.end(), 0U), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), 1U), 0);
}

// ---------------------------------------------------------------------------
// Plan reuse: a warm plan cache compiles query programs with ZERO planner
// invocations (the acceptance probe of the compiled-query pipeline).
// ---------------------------------------------------------------------------

TEST(QueryPrograms, WarmPlanCacheCompilesWithoutPlanner) {
  Rng rng(707);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));

  query::QueryOptions options;
  options.plan_cache = std::make_shared<qtensor::PlanCache>();

  // Cold: compiling plans at least once.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram cold(ansatz, options);
  const std::vector<std::size_t> targets = {0, 2};
  const query::MarginalProgram cold_marginal(ansatz, targets, options);
  EXPECT_GT(qtensor::planner_invocation_count(), 0U);
  EXPECT_FALSE(cold.stats().plan_cached);

  // Warm: the same shapes replay straight from the shared cache.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram warm(ansatz, options);
  const query::MarginalProgram warm_marginal(ansatz, targets, options);
  EXPECT_EQ(qtensor::planner_invocation_count(), 0U);
  EXPECT_TRUE(warm.stats().plan_cached);
  EXPECT_TRUE(warm_marginal.stats().plan_cached);

  // Warm replays still produce the same numbers.
  const qtensor::SerialCpuBackend backend;
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<int> bits(g.num_vertices(), 0);
  const cplx cold_amp = cold.amplitude(theta, bits, backend);
  const cplx warm_amp = warm.amplitude(theta, bits, backend);
  EXPECT_NEAR(cold_amp.real(), warm_amp.real(), 1e-12);
  EXPECT_NEAR(cold_amp.imag(), warm_amp.imag(), 1e-12);
}

}  // namespace
