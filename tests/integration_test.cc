// End-to-end integration tests: full custodian workflows across modules
// (generate -> anonymize -> verify -> persist), plus cross-algorithm
// consistency properties that only hold when every layer cooperates.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/mondrian.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/stats.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "privacy/ldiversity.h"
#include "privacy/linkage.h"
#include "privacy/verify.h"
#include "utility/info_loss.h"
#include "utility/query.h"
#include "utility/sse.h"

namespace tcm {
namespace {

TEST(IntegrationTest, AnonymizeVerifyPersistRoundTrip) {
  Dataset data = MakeMcdDataset();
  auto result = RunAlgorithm(data, "tclose_first", {.k = 5, .t = 0.1});
  ASSERT_TRUE(result.ok());

  // Verify.
  EXPECT_TRUE(CheckRelease(result->anonymized, 5, 0.1).value().ok());

  // Persist and reload: guarantees must survive the round trip.
  const std::string path = ::testing::TempDir() + "/tcm_release.csv";
  ASSERT_TRUE(WriteCsv(result->anonymized, path).ok());
  auto reloaded = ReadCsv(path, result->anonymized.schema());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(CheckRelease(*reloaded, 5, 0.1).value().ok());
}

TEST(IntegrationTest, TClosenessImpliesWeakerModelsHold) {
  // A t-close release with small t forces diverse confidential values in
  // every class: distinct l-diversity >= 2 and p-sensitivity >= 2 follow.
  Dataset data = MakeMcdDataset();
  auto result = RunAlgorithm(data, "tclose_first", {.k = 5, .t = 0.05});
  ASSERT_TRUE(result.ok());
  auto diversity = EvaluateLDiversity(result->anonymized);
  ASSERT_TRUE(diversity.ok());
  EXPECT_GE(diversity->min_distinct_values, 2u);
}

TEST(IntegrationTest, StricterTCostsUtilityForEveryAlgorithm) {
  Dataset data = MakeMcdDataset();
  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto loose = RunAlgorithm(data, algorithm, {.k = 2, .t = 0.25});
    auto strict = RunAlgorithm(data, algorithm, {.k = 2, .t = 0.02});
    ASSERT_TRUE(loose.ok() && strict.ok());
    EXPECT_GE(strict->normalized_sse, loose->normalized_sse)
        << algorithm;
  }
}

TEST(IntegrationTest, LinkageRiskBoundedByOneOverK) {
  // k-anonymity's guarantee: re-identification probability <= 1/k. (The
  // empirical risk is not monotone in k — centroid placement dominates —
  // so only the bound is asserted.)
  Dataset data = MakeMcdDataset();
  for (size_t k : {2u, 10u, 30u}) {
    auto result = RunAlgorithm(data, "tclose_first", {.k = k, .t = 0.25});
    ASSERT_TRUE(result.ok());
    auto risk = EvaluateLinkageRisk(data, result->anonymized);
    ASSERT_TRUE(risk.ok());
    EXPECT_LE(risk->expected_reidentification_rate, 1.0 / k + 1e-9);
    EXPECT_GE(risk->expected_reidentification_rate, 0.0);
  }
}

TEST(IntegrationTest, PatientDischargePipeline) {
  PatientDischargeOptions gen;
  gen.num_records = 1500;
  Dataset data = MakePatientDischargeLike(gen);
  auto result = RunAlgorithm(data, "tclose_first", {.k = 3, .t = 0.1});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CheckRelease(result->anonymized, 3, 0.1).value().ok());

  // Aggregate utility survives: means preserved, queries still usable.
  auto stats = EvaluateStatisticsPreservation(data, result->anonymized);
  ASSERT_TRUE(stats.ok());
  for (const auto& attr : stats->attributes) {
    EXPECT_NEAR(attr.mean_absolute_error, 0.0, 1e-6) << attr.name;
  }
  auto queries = EvaluateRangeQueries(data, result->anonymized);
  ASSERT_TRUE(queries.ok());
  EXPECT_LT(queries->mean_relative_error, 1.0);
}

TEST(IntegrationTest, MondrianAndMicroaggregationBothVerify) {
  // The baseline path produces releases the same verifiers accept.
  Dataset data = MakeHcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto partition = MondrianTClosePartition(space, emd, 4, 0.15);
  ASSERT_TRUE(partition.ok());
  auto release = AggregatePartition(data, *partition);
  ASSERT_TRUE(release.ok());
  EXPECT_TRUE(CheckRelease(*release, 4, 0.15).value().ok());
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  Dataset data = MakeMcdDataset();
  auto a = RunAlgorithm(data, "kanon_first", {.k = 5, .t = 0.08});
  auto b = RunAlgorithm(data, "kanon_first", {.k = 5, .t = 0.08});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->anonymized == b->anonymized);
  EXPECT_EQ(a->partition.clusters, b->partition.clusters);
}

TEST(IntegrationTest, HigherCorrelationCostsMoreUtilityForAlgorithm3) {
  // Fig. 6: Algorithm 3 improves less on HCD because cluster homogeneity
  // conflicts with the forced confidential spread. SSE(HCD) > SSE(MCD)
  // under identical settings (the QI marginals are identical by
  // construction; only the confidential coupling differs).
  auto mcd =
      RunAlgorithm(MakeMcdDataset(), "tclose_first", {.k = 2, .t = 0.05});
  auto hcd =
      RunAlgorithm(MakeHcdDataset(), "tclose_first", {.k = 2, .t = 0.05});
  ASSERT_TRUE(mcd.ok() && hcd.ok());
  EXPECT_GT(hcd->normalized_sse, mcd->normalized_sse);
}

}  // namespace
}  // namespace tcm
