#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/stats.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "utility/info_loss.h"
#include "utility/query.h"
#include "utility/sse.h"

namespace tcm {
namespace {

Dataset MakeSimple() {
  auto data = DatasetFromColumns(
      {"q1", "q2", "conf"},
      {{0, 10, 20, 30}, {0, 1, 2, 3}, {5, 6, 7, 8}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  return std::move(data).value();
}

// ------------------------------------------------------------------- SSE

TEST(SseTest, IdentityReleaseHasZeroSse) {
  Dataset data = MakeSimple();
  auto sse = NormalizedSse(data, data);
  ASSERT_TRUE(sse.ok());
  EXPECT_DOUBLE_EQ(*sse, 0.0);
}

TEST(SseTest, KnownShiftValue) {
  // Shift q1 of one record by a full range (30): contribution
  // (1/n)*(1/m)*1^2 = 1/8.
  Dataset data = MakeSimple();
  Dataset shifted = data;
  ASSERT_TRUE(shifted.SetCell(0, 0, Value::Numeric(30)).ok());
  auto sse = NormalizedSse(data, shifted);
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(*sse, 1.0 / 8.0, 1e-12);
}

TEST(SseTest, NormalizationMakesScalesComparable) {
  // Equal relative perturbations on differently scaled attributes must
  // contribute equally.
  Dataset data = MakeSimple();
  Dataset perturb_q1 = data;
  ASSERT_TRUE(perturb_q1.SetCell(1, 0, Value::Numeric(10 + 15)).ok());
  Dataset perturb_q2 = data;
  ASSERT_TRUE(perturb_q2.SetCell(1, 1, Value::Numeric(1 + 1.5)).ok());
  auto sse1 = NormalizedSse(data, perturb_q1);
  auto sse2 = NormalizedSse(data, perturb_q2);
  ASSERT_TRUE(sse1.ok() && sse2.ok());
  EXPECT_NEAR(*sse1, *sse2, 1e-12);
}

TEST(SseTest, ConfidentialColumnDoesNotCount) {
  Dataset data = MakeSimple();
  Dataset perturbed = data;
  ASSERT_TRUE(perturbed.SetCell(0, 2, Value::Numeric(999)).ok());
  auto sse = NormalizedSse(data, perturbed);
  ASSERT_TRUE(sse.ok());
  EXPECT_DOUBLE_EQ(*sse, 0.0);
}

TEST(SseTest, ExplicitAttributeSetOverridesRoles) {
  Dataset data = MakeSimple();
  Dataset perturbed = data;
  ASSERT_TRUE(perturbed.SetCell(0, 2, Value::Numeric(8)).ok());  // conf col
  auto sse = NormalizedSseOverAttributes(data, perturbed, {2});
  ASSERT_TRUE(sse.ok());
  EXPECT_GT(*sse, 0.0);
}

TEST(SseTest, ShapeMismatchFails) {
  Dataset data = MakeSimple();
  Dataset other = MakeUniformDataset(3, 2, 1);
  EXPECT_FALSE(NormalizedSse(data, other).ok());
}

TEST(SseTest, MoreAggregationMeansMoreSse) {
  Dataset data = MakeUniformDataset(200, 2, 3);
  QiSpace space(data);
  double previous = -1.0;
  for (size_t k : {2u, 10u, 50u, 200u}) {
    auto partition = Mdav(space, k);
    ASSERT_TRUE(partition.ok());
    auto anonymized = AggregatePartition(data, *partition);
    ASSERT_TRUE(anonymized.ok());
    auto sse = NormalizedSse(data, *anonymized);
    ASSERT_TRUE(sse.ok());
    EXPECT_GT(*sse, previous) << "k=" << k;
    previous = *sse;
  }
}

// ------------------------------------------------------------- Info loss

TEST(InfoLossTest, IdentityPreservesEverything) {
  Dataset data = MakeUniformDataset(100, 3, 5);
  auto stats = EvaluateStatisticsPreservation(data, data);
  ASSERT_TRUE(stats.ok());
  for (const auto& attr : stats->attributes) {
    EXPECT_DOUBLE_EQ(attr.mean_absolute_error, 0.0);
    EXPECT_DOUBLE_EQ(attr.variance_ratio, 1.0);
    EXPECT_DOUBLE_EQ(attr.range_ratio, 1.0);
  }
  EXPECT_DOUBLE_EQ(stats->correlation_mad, 0.0);
  EXPECT_DOUBLE_EQ(stats->qi_confidential_correlation_mad, 0.0);
}

TEST(InfoLossTest, MeanIsExactlyPreservedByMeanAggregation) {
  // Replacing cluster members by the cluster mean keeps column means.
  Dataset data = MakeUniformDataset(90, 2, 7);
  QiSpace space(data);
  auto partition = Mdav(space, 9);
  ASSERT_TRUE(partition.ok());
  auto anonymized = AggregatePartition(data, *partition);
  ASSERT_TRUE(anonymized.ok());
  auto stats = EvaluateStatisticsPreservation(data, *anonymized);
  ASSERT_TRUE(stats.ok());
  for (const auto& attr : stats->attributes) {
    EXPECT_NEAR(attr.mean_absolute_error, 0.0, 1e-9);
    // Aggregation shrinks variance (within-cluster variance removed).
    EXPECT_LE(attr.variance_ratio, 1.0 + 1e-12);
  }
}

TEST(InfoLossTest, ShapeMismatchFails) {
  Dataset a = MakeUniformDataset(10, 2, 1);
  Dataset b = MakeUniformDataset(12, 2, 1);
  EXPECT_FALSE(EvaluateStatisticsPreservation(a, b).ok());
}

// ----------------------------------------------------------- Range query

TEST(QueryTest, IdentityReleaseHasZeroError) {
  Dataset data = MakeUniformDataset(300, 2, 11);
  auto accuracy = EvaluateRangeQueries(data, data);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_DOUBLE_EQ(accuracy->mean_absolute_error, 0.0);
  EXPECT_DOUBLE_EQ(accuracy->max_absolute_error, 0.0);
}

TEST(QueryTest, AggregationDegradesAccuracyMonotonically) {
  Dataset data = MakeUniformDataset(400, 2, 13);
  QiSpace space(data);
  double previous = -1.0;
  for (size_t k : {4u, 40u, 400u}) {
    auto partition = Mdav(space, k);
    ASSERT_TRUE(partition.ok());
    auto anonymized = AggregatePartition(data, *partition);
    ASSERT_TRUE(anonymized.ok());
    auto accuracy = EvaluateRangeQueries(data, *anonymized);
    ASSERT_TRUE(accuracy.ok());
    EXPECT_GE(accuracy->mean_absolute_error, previous) << "k=" << k;
    previous = accuracy->mean_absolute_error;
  }
}

TEST(QueryTest, DeterministicForSameSeed) {
  Dataset data = MakeUniformDataset(100, 2, 17);
  Dataset noisy = MakeUniformDataset(100, 2, 18);
  RangeQueryOptions options;
  options.seed = 5;
  auto a = EvaluateRangeQueries(data, noisy, options);
  auto b = EvaluateRangeQueries(data, noisy, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->mean_absolute_error, b->mean_absolute_error);
}

TEST(QueryTest, RejectsBadOptions) {
  Dataset data = MakeUniformDataset(10, 2, 1);
  RangeQueryOptions options;
  options.selectivity = 0.0;
  EXPECT_FALSE(EvaluateRangeQueries(data, data, options).ok());
  options.selectivity = 1.5;
  EXPECT_FALSE(EvaluateRangeQueries(data, data, options).ok());
  options.selectivity = 0.5;
  options.num_queries = 0;
  EXPECT_FALSE(EvaluateRangeQueries(data, data, options).ok());
}

TEST(QueryTest, FullSelectivityCountsEverythingOnIdentity) {
  Dataset data = MakeUniformDataset(50, 2, 19);
  RangeQueryOptions options;
  options.selectivity = 1.0;
  options.num_queries = 5;
  auto accuracy = EvaluateRangeQueries(data, data, options);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_DOUBLE_EQ(accuracy->mean_absolute_error, 0.0);
}

}  // namespace
}  // namespace tcm
