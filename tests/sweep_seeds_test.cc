// Randomized guarantee sweeps: the three algorithms across data
// realizations (seeds), sizes and parameter levels. Complements the
// deterministic sweeps in tclose_test.cc with breadth: every combination
// must produce a valid k-anonymous, t-close release — no exceptions.

#include <tuple>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/registry.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

struct SeedSweepParam {
  uint64_t seed;
  size_t n;
  size_t k;
  double t;
};

class SeedSweepTest : public ::testing::TestWithParam<SeedSweepParam> {};

TEST_P(SeedSweepTest, PatientDischargeAllAlgorithmsHoldGuarantees) {
  const SeedSweepParam& param = GetParam();
  PatientDischargeOptions gen;
  gen.num_records = param.n;
  gen.seed = param.seed;
  Dataset data = MakePatientDischargeLike(gen);
  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto result = RunAlgorithm(data, algorithm, {.k = param.k, .t = param.t});
    ASSERT_TRUE(result.ok()) << algorithm;
    auto verified = CheckRelease(result->anonymized, param.k, param.t);
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(verified->k_anonymous) << algorithm << " seed "
                                       << param.seed;
    EXPECT_TRUE(verified->t_close) << algorithm << " seed "
                                   << param.seed << " maxEMD "
                                   << result->max_cluster_emd;
  }
}

std::string SeedSweepName(
    const ::testing::TestParamInfo<SeedSweepParam>& info) {
  return "s" + std::to_string(info.param.seed) + "_n" +
         std::to_string(info.param.n) + "_k" + std::to_string(info.param.k) +
         "_t" + std::to_string(static_cast<int>(info.param.t * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeedSweepTest,
    ::testing::Values(
        SeedSweepParam{1, 300, 2, 0.05}, SeedSweepParam{1, 300, 3, 0.15},
        SeedSweepParam{2, 500, 2, 0.08}, SeedSweepParam{2, 500, 5, 0.2},
        SeedSweepParam{3, 701, 3, 0.1},   // prime n
        SeedSweepParam{3, 701, 2, 0.25},
        SeedSweepParam{4, 1024, 4, 0.05}, SeedSweepParam{4, 1024, 8, 0.12},
        SeedSweepParam{5, 997, 2, 0.03},  // prime n, strict t
        SeedSweepParam{6, 450, 6, 0.18}),
    SeedSweepName);

class UniformSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>> {};

TEST_P(UniformSweepTest, IndependentConfidentialAttribute) {
  // Uniform data: QIs carry no information about the confidential value,
  // the easy case — every algorithm should stay near its k (cluster sizes
  // not much above max{k, k*}).
  auto [n, k, t] = GetParam();
  Dataset data = MakeUniformDataset(n, 3, n * 7 + k);
  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto result = RunAlgorithm(data, algorithm, {.k = k, .t = t});
    ASSERT_TRUE(result.ok()) << algorithm;
    EXPECT_LE(result->max_cluster_emd, t + 1e-9)
        << algorithm;
    EXPECT_GE(result->min_cluster_size, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UniformSweepTest,
    ::testing::Combine(::testing::Values(200, 512),
                       ::testing::Values(2, 5),
                       ::testing::Values(0.1, 0.25)));

}  // namespace
}  // namespace tcm
