#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "distance/qi_space.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "microagg/microagg.h"
#include "microagg/partition.h"
#include "microagg/vmdav.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// ------------------------------------------------------------- Partition

TEST(PartitionTest, SizeStatistics) {
  Partition p;
  p.clusters = {{0, 1, 2}, {3, 4}, {5, 6, 7, 8}};
  EXPECT_EQ(p.NumClusters(), 3u);
  EXPECT_EQ(p.NumRecords(), 9u);
  EXPECT_EQ(p.MinClusterSize(), 2u);
  EXPECT_EQ(p.MaxClusterSize(), 4u);
  EXPECT_DOUBLE_EQ(p.AverageClusterSize(), 3.0);
}

TEST(PartitionTest, EmptyPartitionStatistics) {
  Partition p;
  EXPECT_EQ(p.NumRecords(), 0u);
  EXPECT_EQ(p.MinClusterSize(), 0u);
  EXPECT_EQ(p.MaxClusterSize(), 0u);
  EXPECT_DOUBLE_EQ(p.AverageClusterSize(), 0.0);
}

TEST(PartitionTest, AssignmentVectorMapsRowsToClusters) {
  Partition p;
  p.clusters = {{2, 0}, {1, 3}};
  EXPECT_EQ(p.AssignmentVector(), (std::vector<size_t>{0, 1, 0, 1}));
}

TEST(PartitionTest, ValidateAcceptsExactCover) {
  Partition p;
  p.clusters = {{0, 1}, {2, 3, 4}};
  EXPECT_TRUE(ValidatePartition(p, 5, 2).ok());
}

TEST(PartitionTest, ValidateRejectsSmallCluster) {
  Partition p;
  p.clusters = {{0}, {1, 2}};
  EXPECT_EQ(ValidatePartition(p, 3, 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartitionTest, ValidateRejectsDoubleCover) {
  Partition p;
  p.clusters = {{0, 1}, {1, 2}};
  EXPECT_EQ(ValidatePartition(p, 3, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartitionTest, ValidateRejectsMissingRecord) {
  Partition p;
  p.clusters = {{0, 1}};
  EXPECT_EQ(ValidatePartition(p, 3, 1).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartitionTest, ValidateRejectsOutOfRangeIndex) {
  Partition p;
  p.clusters = {{0, 7}};
  EXPECT_EQ(ValidatePartition(p, 2, 1).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------- Aggregate

Dataset MakeMixedDataset() {
  Schema schema({
      Attribute{"num", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"ord", AttributeType::kOrdinal, AttributeRole::kQuasiIdentifier,
                {"low", "mid", "high"}},
      Attribute{"nom", AttributeType::kNominal, AttributeRole::kQuasiIdentifier,
                {"a", "b", "c"}},
      Attribute{"conf", AttributeType::kNumeric, AttributeRole::kConfidential,
                {}},
  });
  Dataset data(schema);
  auto add = [&data](double n, int32_t o, int32_t m, double c) {
    EXPECT_TRUE(data.Append({Value::Numeric(n), Value::Categorical(o),
                             Value::Categorical(m), Value::Numeric(c)})
                    .ok());
  };
  add(1, 0, 0, 10);
  add(2, 1, 1, 20);
  add(3, 2, 1, 30);
  add(10, 2, 2, 40);
  return data;
}

TEST(AggregateTest, NumericUsesMean) {
  Dataset data = MakeMixedDataset();
  Value v = ClusterAggregate(data, {0, 1, 2}, 0);
  EXPECT_DOUBLE_EQ(v.numeric(), 2.0);
}

TEST(AggregateTest, OrdinalUsesLowerMedian) {
  Dataset data = MakeMixedDataset();
  EXPECT_EQ(ClusterAggregate(data, {0, 1, 2}, 1).category(), 1);
  // Even-size cluster: lower median of {0,1,2,2} is 1.
  EXPECT_EQ(ClusterAggregate(data, {0, 1, 2, 3}, 1).category(), 1);
}

TEST(AggregateTest, NominalUsesMode) {
  Dataset data = MakeMixedDataset();
  EXPECT_EQ(ClusterAggregate(data, {1, 2, 3}, 2).category(), 1);
  // Tie (one of each) breaks toward the smallest code.
  EXPECT_EQ(ClusterAggregate(data, {0, 1, 3}, 2).category(), 0);
}

TEST(AggregateTest, PartitionRewritesOnlyQuasiIdentifiers) {
  Dataset data = MakeMixedDataset();
  Partition p;
  p.clusters = {{0, 1}, {2, 3}};
  auto result = AggregatePartition(data, p);
  ASSERT_TRUE(result.ok());
  // QIs replaced by cluster aggregates.
  EXPECT_DOUBLE_EQ(result->cell(0, 0).numeric(), 1.5);
  EXPECT_DOUBLE_EQ(result->cell(1, 0).numeric(), 1.5);
  EXPECT_DOUBLE_EQ(result->cell(2, 0).numeric(), 6.5);
  // Confidential column untouched.
  for (size_t row = 0; row < 4; ++row) {
    EXPECT_DOUBLE_EQ(result->cell(row, 3).numeric(),
                     data.cell(row, 3).numeric());
  }
}

TEST(AggregateTest, PartitionMustCoverDataset) {
  Dataset data = MakeMixedDataset();
  Partition p;
  p.clusters = {{0, 1}};
  EXPECT_FALSE(AggregatePartition(data, p).ok());
}

TEST(AggregateTest, AggregatedDatasetIsKAnonymous) {
  Dataset data = MakeUniformDataset(200, 3, 11);
  QiSpace space(data);
  auto partition = Mdav(space, 7);
  ASSERT_TRUE(partition.ok());
  auto anonymized = AggregatePartition(data, *partition);
  ASSERT_TRUE(anonymized.ok());
  auto verified = CheckRelease(*anonymized, 7, 1.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified->k_anonymous);
}

// ------------------------------------------------------------------ MDAV

class MdavSizeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MdavSizeTest, ClusterSizesBetweenKAnd2kMinus1) {
  auto [n, k] = GetParam();
  Dataset data = MakeUniformDataset(n, 2, n * 31 + k);
  QiSpace space(data);
  auto partition = Mdav(space, k);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, n, k).ok());
  EXPECT_LE(partition->MaxClusterSize(), 2 * k - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MdavSizeTest,
    ::testing::Combine(::testing::Values(20, 50, 101, 1080),
                       ::testing::Values(2, 3, 5, 10)));

TEST(MdavTest, AllClustersExactlyKWhenDivisible) {
  Dataset data = MakeUniformDataset(100, 2, 5);
  QiSpace space(data);
  auto partition = Mdav(space, 10);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->MinClusterSize(), 10u);
  EXPECT_EQ(partition->MaxClusterSize(), 10u);
  EXPECT_EQ(partition->NumClusters(), 10u);
}

TEST(MdavTest, RejectsBadK) {
  Dataset data = MakeUniformDataset(10, 2, 5);
  QiSpace space(data);
  EXPECT_FALSE(Mdav(space, 0).ok());
  EXPECT_FALSE(Mdav(space, 11).ok());
}

TEST(MdavTest, KEqualsNGivesOneCluster) {
  Dataset data = MakeUniformDataset(10, 2, 5);
  QiSpace space(data);
  auto partition = Mdav(space, 10);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->NumClusters(), 1u);
}

TEST(MdavTest, DeterministicAcrossRuns) {
  Dataset data = MakeUniformDataset(120, 3, 7);
  QiSpace space(data);
  auto a = Mdav(space, 4);
  auto b = Mdav(space, 4);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->clusters, b->clusters);
}

TEST(MdavTest, GroupsWellSeparatedModesTogether) {
  // 3 far-apart modes of 10 records each; with k=10, MDAV must recover
  // exactly the modes (any mixed cluster would have huge spread).
  std::vector<double> xs, cs;
  for (int mode = 0; mode < 3; ++mode) {
    for (int i = 0; i < 10; ++i) {
      xs.push_back(mode * 1000.0 + i);
      cs.push_back(i);
    }
  }
  auto data = DatasetFromColumns(
      {"x", "c"}, {xs, cs},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  auto partition = Mdav(space, 10);
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->NumClusters(), 3u);
  for (const Cluster& cluster : partition->clusters) {
    std::set<size_t> modes;
    for (size_t row : cluster) modes.insert(row / 10);
    EXPECT_EQ(modes.size(), 1u);
  }
}

// ---------------------------------------------------------------- V-MDAV

class VMdavSizeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double>> {};

TEST_P(VMdavSizeTest, ValidPartitionWithBoundedClusters) {
  auto [n, k, gamma] = GetParam();
  Dataset data = MakeClusteredDataset(n, 2, 4, n + k);
  QiSpace space(data);
  VMdavOptions options;
  options.gamma = gamma;
  auto partition = VMdav(space, k, options);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, n, k).ok());
  // 2k-1 plus at most k-1 adopted leftovers.
  EXPECT_LE(partition->MaxClusterSize(), (2 * k - 1) + (k - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VMdavSizeTest,
    ::testing::Combine(::testing::Values(30, 100, 333),
                       ::testing::Values(2, 5, 8),
                       ::testing::Values(0.0, 0.2, 1.0)));

TEST(VMdavTest, GammaZeroNeverExtends) {
  Dataset data = MakeUniformDataset(60, 2, 9);
  QiSpace space(data);
  VMdavOptions options;
  options.gamma = 0.0;
  auto partition = VMdav(space, 5, options);
  ASSERT_TRUE(partition.ok());
  // 60 = 12 exact clusters of 5, no extension possible with gamma 0.
  EXPECT_EQ(partition->NumClusters(), 12u);
  EXPECT_EQ(partition->MaxClusterSize(), 5u);
}

TEST(VMdavTest, RejectsBadArguments) {
  Dataset data = MakeUniformDataset(10, 2, 5);
  QiSpace space(data);
  EXPECT_FALSE(VMdav(space, 0).ok());
  EXPECT_FALSE(VMdav(space, 11).ok());
  VMdavOptions options;
  options.gamma = -0.5;
  EXPECT_FALSE(VMdav(space, 2, options).ok());
}

TEST(VMdavTest, LargeGammaProducesVariableSizes) {
  Dataset data = MakeClusteredDataset(200, 2, 6, 17);
  QiSpace space(data);
  VMdavOptions options;
  options.gamma = 1.5;
  auto partition = VMdav(space, 4, options);
  ASSERT_TRUE(partition.ok());
  EXPECT_GT(partition->MaxClusterSize(), partition->MinClusterSize());
}

// -------------------------------------------------------------- Frontend

TEST(MicroaggTest, DispatchesToMdav) {
  Dataset data = MakeUniformDataset(50, 2, 3);
  QiSpace space(data);
  MicroaggOptions options;
  options.method = MicroaggMethod::kMdav;
  auto via_frontend = Microaggregate(space, 5, options);
  auto direct = Mdav(space, 5);
  ASSERT_TRUE(via_frontend.ok() && direct.ok());
  EXPECT_EQ(via_frontend->clusters, direct->clusters);
}

TEST(MicroaggTest, DispatchesToVMdav) {
  Dataset data = MakeUniformDataset(50, 2, 3);
  QiSpace space(data);
  MicroaggOptions options;
  options.method = MicroaggMethod::kVMdav;
  options.vmdav.gamma = 0.3;
  auto via_frontend = Microaggregate(space, 5, options);
  VMdavOptions vm;
  vm.gamma = 0.3;
  auto direct = VMdav(space, 5, vm);
  ASSERT_TRUE(via_frontend.ok() && direct.ok());
  EXPECT_EQ(via_frontend->clusters, direct->clusters);
}

TEST(MicroaggTest, MethodNames) {
  EXPECT_STREQ(MicroaggMethodName(MicroaggMethod::kMdav), "MDAV");
  EXPECT_STREQ(MicroaggMethodName(MicroaggMethod::kVMdav), "V-MDAV");
}

}  // namespace
}  // namespace tcm
