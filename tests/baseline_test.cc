#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/mondrian.h"
#include "baseline/recoding.h"
#include "baseline/sabre_like.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/emd_bounds.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "privacy/kanonymity.h"
#include "privacy/tcloseness.h"
#include "utility/sse.h"

namespace tcm {
namespace {

double MaxClusterEmd(const EmdCalculator& emd, const Partition& partition) {
  double worst = 0.0;
  for (const Cluster& cluster : partition.clusters) {
    worst = std::max(worst, emd.ClusterEmd(cluster));
  }
  return worst;
}

// ---------------------------------------------------------------- Mondrian

// An infinite t never binds, so the t-close variant splits as plain
// k-anonymous Mondrian does.
Result<Partition> KAnonymousMondrian(const Dataset& data, size_t k) {
  QiSpace space(data);
  EmdCalculator emd(data);
  return MondrianTClosePartition(space, emd, k,
                                 std::numeric_limits<double>::infinity());
}

class MondrianTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MondrianTest, ValidKAnonymousPartition) {
  const size_t k = GetParam();
  Dataset data = MakeUniformDataset(500, 3, 41);
  auto partition = KAnonymousMondrian(data, k);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, 500, k).ok());
  // Median splits leave leaves below 2k + 1 records.
  EXPECT_LE(partition->MaxClusterSize(), 2 * k + 1);
}

INSTANTIATE_TEST_SUITE_P(Ks, MondrianTest, ::testing::Values(2, 3, 7, 25));

TEST(MondrianTest, SplitsAlongTheWidestDimension) {
  // Data elongated along q1: the first split must separate low from high
  // q1, so no leaf spans both extremes.
  std::vector<double> q1, q2, c;
  for (int i = 0; i < 40; ++i) {
    q1.push_back(i < 20 ? i : 1000.0 + i);
    q2.push_back(i % 5);
    c.push_back(i);
  }
  auto data = DatasetFromColumns(
      {"q1", "q2", "c"}, {q1, q2, c},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto partition = KAnonymousMondrian(*data, 5);
  ASSERT_TRUE(partition.ok());
  for (const Cluster& cluster : partition->clusters) {
    bool has_low = false, has_high = false;
    for (size_t row : cluster) {
      (row < 20 ? has_low : has_high) = true;
    }
    EXPECT_FALSE(has_low && has_high);
  }
}

TEST(MondrianTest, IdenticalRecordsFormOneLeaf) {
  auto data = DatasetFromColumns(
      {"q", "c"}, {{1, 1, 1, 1, 1, 1}, {1, 2, 3, 4, 5, 6}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto partition = KAnonymousMondrian(*data, 2);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->NumClusters(), 1u);
}

TEST(MondrianTest, TCloseVariantSatisfiesT) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.05, 0.15}) {
    auto partition = MondrianTClosePartition(space, emd, 3, t);
    ASSERT_TRUE(partition.ok());
    EXPECT_TRUE(ValidatePartition(*partition, data.NumRecords(), 3).ok());
    EXPECT_LE(MaxClusterEmd(emd, *partition), t + 1e-12) << "t=" << t;
  }
}

TEST(MondrianTest, TighterTMeansFewerClusters) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto loose = MondrianTClosePartition(space, emd, 2, 0.25);
  auto strict = MondrianTClosePartition(space, emd, 2, 0.02);
  ASSERT_TRUE(loose.ok() && strict.ok());
  EXPECT_GE(loose->NumClusters(), strict->NumClusters());
}

TEST(MondrianTest, RejectsBadK) {
  Dataset data = MakeUniformDataset(10, 2, 1);
  EXPECT_FALSE(KAnonymousMondrian(data, 0).ok());
  EXPECT_FALSE(KAnonymousMondrian(data, 11).ok());
}

// -------------------------------------------------------------- SABRE-like

TEST(SabreLikeTest, SatisfiesBothGuarantees) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.05, 0.1, 0.2}) {
    SabreLikeStats stats;
    auto partition = SabreLikePartition(space, emd, 2, t, {}, &stats);
    ASSERT_TRUE(partition.ok());
    EXPECT_TRUE(ValidatePartition(*partition, data.NumRecords(), 2).ok());
    EXPECT_LE(MaxClusterEmd(emd, *partition), t + 1e-12) << "t=" << t;
  }
}

TEST(SabreLikeTest, GreedyBucketingUsesMoreBucketsThanAnalytic) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  SabreLikeStats stats;
  auto partition = SabreLikePartition(space, emd, 2, 0.05, {}, &stats);
  ASSERT_TRUE(partition.ok());
  EXPECT_GT(stats.buckets, stats.analytic_k);
}

TEST(SabreLikeTest, MoreBucketsMeansMoreInformationLossThanAlgorithm3) {
  // The comparison the paper makes against SABRE: a larger bucket count
  // forces larger equivalence classes and hence higher SSE.
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto alg3 = RunAlgorithm(data, "tclose_first", {.k = 2, .t = 0.05});
  ASSERT_TRUE(alg3.ok());

  auto sabre = SabreLikePartition(space, emd, 2, 0.05);
  ASSERT_TRUE(sabre.ok());
  auto sabre_release = AggregatePartition(data, *sabre);
  ASSERT_TRUE(sabre_release.ok());
  auto sabre_sse = NormalizedSse(data, *sabre_release);
  ASSERT_TRUE(sabre_sse.ok());
  EXPECT_GE(*sabre_sse, alg3->normalized_sse);
}

TEST(SabreLikeTest, OversamplingOneMatchesAnalyticBuckets) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  SabreLikeOptions options;
  options.bucket_oversampling = 1.0;
  SabreLikeStats stats;
  auto partition = SabreLikePartition(space, emd, 2, 0.05, options, &stats);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(stats.buckets,
            AdjustClusterSizeForRemainder(data.NumRecords(),
                                          stats.analytic_k));
}

TEST(SabreLikeTest, RejectsBadArguments) {
  Dataset data = MakeUniformDataset(20, 2, 1);
  QiSpace space(data);
  EmdCalculator emd(data);
  EXPECT_FALSE(SabreLikePartition(space, emd, 0, 0.1).ok());
  EXPECT_FALSE(SabreLikePartition(space, emd, 21, 0.1).ok());
  EXPECT_FALSE(SabreLikePartition(space, emd, 2, -0.1).ok());
  SabreLikeOptions options;
  options.bucket_oversampling = 0.5;
  EXPECT_FALSE(SabreLikePartition(space, emd, 2, 0.1, options).ok());
}

// ---------------------------------------------------------------- Recoding

TEST(RecodingTest, ProducesKAnonymousRelease) {
  Dataset data = MakeMcdDataset();
  auto result = GlobalRecodingAnonymize(data, 4);
  ASSERT_TRUE(result.ok());
  auto k_anon = IsKAnonymous(result->anonymized, 4);
  ASSERT_TRUE(k_anon.ok());
  EXPECT_TRUE(*k_anon);
}

TEST(RecodingTest, TConstraintIsHonored) {
  Dataset data = MakeMcdDataset();
  RecodingOptions options;
  options.t = 0.1;
  auto result = GlobalRecodingAnonymize(data, 2, options);
  ASSERT_TRUE(result.ok());
  auto t_close = IsTClose(result->anonymized, 0.1);
  ASSERT_TRUE(t_close.ok());
  EXPECT_TRUE(*t_close);
}

TEST(RecodingTest, CoarseningReducesBinCounts) {
  Dataset data = MakeMcdDataset();
  RecodingOptions options;
  options.initial_bins = 64;
  auto result = GlobalRecodingAnonymize(data, 10, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->coarsenings, 0u);
  for (size_t bins : result->bins_per_attribute) {
    EXPECT_LT(bins, 64u);
  }
}

TEST(RecodingTest, GranularityLossExceedsMicroaggregation) {
  // Section 4's argument: generalization loses more granularity than
  // microaggregation for the same k. Compare SSE at equal k (no t).
  Dataset data = MakeMcdDataset();
  auto recoded = GlobalRecodingAnonymize(data, 5);
  ASSERT_TRUE(recoded.ok());
  auto recoding_sse = NormalizedSse(data, recoded->anonymized);
  ASSERT_TRUE(recoding_sse.ok());

  QiSpace space(data);
  auto mdav = Mdav(space, 5);
  ASSERT_TRUE(mdav.ok());
  auto microagg_release = AggregatePartition(data, *mdav);
  ASSERT_TRUE(microagg_release.ok());
  auto microagg_sse = NormalizedSse(data, *microagg_release);
  ASSERT_TRUE(microagg_sse.ok());

  EXPECT_GT(*recoding_sse, *microagg_sse);
}

TEST(RecodingTest, RejectsBadArguments) {
  Dataset data = MakeUniformDataset(10, 2, 1);
  EXPECT_FALSE(GlobalRecodingAnonymize(data, 0).ok());
  EXPECT_FALSE(GlobalRecodingAnonymize(data, 11).ok());
  RecodingOptions options;
  options.initial_bins = 0;
  EXPECT_FALSE(GlobalRecodingAnonymize(data, 2, options).ok());
}

TEST(RecodingTest, SingleBinIsAlwaysFeasible) {
  // k = n forces full generalization; must terminate with one class.
  Dataset data = MakeUniformDataset(30, 2, 3);
  auto result = GlobalRecodingAnonymize(data, 30);
  ASSERT_TRUE(result.ok());
  auto report = EvaluateKAnonymity(result->anonymized);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_equivalence_classes, 1u);
}

}  // namespace
}  // namespace tcm
