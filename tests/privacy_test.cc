#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "engine/thread_pool.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "privacy/equivalence.h"
#include "privacy/ldiversity.h"
#include "privacy/linkage.h"
#include "privacy/psensitive.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// Two equivalence classes of sizes 3 and 2 over one QI.
Dataset MakeGroupedDataset() {
  auto data = DatasetFromColumns(
      {"qi", "conf"},
      {{1, 1, 1, 2, 2}, {10, 20, 20, 30, 40}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  return std::move(data).value();
}

// ----------------------------------------------------------- Equivalence

// The grouping EquivalenceClasses must reproduce: an ordered map over the
// QI tuples (where -0.0 and 0.0 are one key), classes in first-occurrence
// order with ascending members.
std::vector<std::vector<size_t>> ReferenceClasses(const Dataset& data) {
  const std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  std::map<std::vector<double>, size_t> class_of;
  std::vector<std::vector<size_t>> classes;
  for (size_t row = 0; row < data.NumRecords(); ++row) {
    std::vector<double> key;
    for (size_t col : qi) key.push_back(data.cell(row, col).AsDouble());
    auto [it, inserted] = class_of.try_emplace(key, classes.size());
    if (inserted) classes.emplace_back();
    classes[it->second].push_back(row);
  }
  return classes;
}

// Matches the reference serially and on pools of 1, 2 and 4 threads.
void ExpectClassesMatchReference(const Dataset& data) {
  const std::vector<std::vector<size_t>> expected = ReferenceClasses(data);
  auto serial = EquivalenceClasses(data);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(*serial, expected);
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    auto pooled = EquivalenceClasses(data, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(*pooled, expected) << threads << " threads";
  }
}

Dataset TwoQiDataset(std::vector<double> q1, std::vector<double> q2) {
  std::vector<double> conf(q1.size());
  std::iota(conf.begin(), conf.end(), 0.0);
  auto data = DatasetFromColumns(
      {"q1", "q2", "c"}, {std::move(q1), std::move(q2), std::move(conf)},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  return std::move(data).value();
}

TEST(EquivalenceTest, GroupsByExactQiMatch) {
  auto classes = EquivalenceClasses(MakeGroupedDataset());
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 2u);
  EXPECT_EQ((*classes)[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ((*classes)[1], (std::vector<size_t>{3, 4}));
  ExpectClassesMatchReference(MakeGroupedDataset());
}

TEST(EquivalenceTest, AllDistinctGivesSingletons) {
  std::vector<double> q1(1000), q2(1000);
  for (size_t i = 0; i < q1.size(); ++i) {
    q1[i] = static_cast<double>(i % 10);
    q2[i] = static_cast<double>(i / 10) * 0.1;
  }
  Dataset data = TwoQiDataset(std::move(q1), std::move(q2));
  auto classes = EquivalenceClasses(data);
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(classes->size(), 1000u);
  ExpectClassesMatchReference(data);
}

TEST(EquivalenceTest, RequiresQuasiIdentifiers) {
  auto data = DatasetFromColumns({"a"}, {{1, 2}}, {AttributeRole::kOther});
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(EquivalenceClasses(*data).ok());
}

TEST(EquivalenceTest, MultiAttributeKeys) {
  auto data = DatasetFromColumns(
      {"q1", "q2", "c"}, {{1, 1, 1}, {5, 5, 6}, {0, 0, 0}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto classes = EquivalenceClasses(*data);
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(classes->size(), 2u);  // (1,5) x2 and (1,6) x1
}

TEST(EquivalenceTest, NegativeZeroGroupsWithZero) {
  Dataset data = TwoQiDataset({-0.0, 0.0, 1, -0.0, 0.0}, {5, 5, 5, 5, 6});
  auto classes = EquivalenceClasses(data);
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(*classes,
            (std::vector<std::vector<size_t>>{{0, 1, 3}, {2}, {4}}));
  ExpectClassesMatchReference(data);
}

TEST(EquivalenceTest, AllEqualRowsFormOneClass) {
  Dataset data = TwoQiDataset(std::vector<double>(1000, 2.5),
                              std::vector<double>(1000, -0.0));
  auto classes = EquivalenceClasses(data);
  ASSERT_TRUE(classes.ok());
  ASSERT_EQ(classes->size(), 1u);
  EXPECT_EQ(classes->front().size(), 1000u);
  ExpectClassesMatchReference(data);
}

// A 50k-row release: 10k classes of five members scattered over the
// rows, with integer and fractional centroids; the zero centroids are
// written as 0.0 in some members and -0.0 in others.
TEST(EquivalenceTest, LargeScatteredReleaseMatchesReference) {
  constexpr size_t kClasses = 10000;
  constexpr size_t kMembers = 5;
  std::vector<size_t> class_of_row(kClasses * kMembers);
  for (size_t row = 0; row < class_of_row.size(); ++row) {
    class_of_row[row] = row % kClasses;
  }
  Rng rng(5);
  rng.Shuffle(class_of_row);
  std::vector<double> q1, q2;
  for (size_t c : class_of_row) {
    q1.push_back(static_cast<double>(c % 100));
    const double fraction = static_cast<double>(c / 100) * 0.37;
    q2.push_back(fraction == 0.0 && q1.size() % 2 == 0 ? -0.0 : fraction);
  }
  Dataset data = TwoQiDataset(std::move(q1), std::move(q2));
  auto classes = EquivalenceClasses(data);
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(classes->size(), kClasses);
  ExpectClassesMatchReference(data);
}

// ------------------------------------------------------------ kAnonymity

// The k side of CheckRelease (Definition 1). The classes themselves, {0,1,2}
// and {3,4} here, are pinned by EquivalenceTest.

TEST(KAnonymityTest, ReportOnKnownGroups) {
  Dataset data = MakeGroupedDataset();
  auto verified = CheckRelease(data, 2, 1.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->num_classes, 2u);
  EXPECT_EQ(verified->min_class_size, 2u);
  EXPECT_DOUBLE_EQ(static_cast<double>(data.NumRecords()) /
                       static_cast<double>(verified->num_classes),
                   2.5);
}

TEST(KAnonymityTest, ThresholdTest) {
  Dataset data = MakeGroupedDataset();
  EXPECT_TRUE(CheckRelease(data, 2, 1.0).value().k_anonymous);
  EXPECT_FALSE(CheckRelease(data, 3, 1.0).value().k_anonymous);
}

TEST(KAnonymityTest, OriginalMicrodataIsUsuallyOnlyOneAnonymous) {
  Dataset data = MakeUniformDataset(100, 3, 5);
  auto verified = CheckRelease(data, 1, 1.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->min_class_size, 1u);
}

// ------------------------------------------------------------ tCloseness

TEST(TClosenessTest, SingleClassHasZeroEmd) {
  auto data = DatasetFromColumns(
      {"qi", "conf"}, {{7, 7, 7, 7}, {1, 2, 3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto verified = CheckRelease(*data, 1, 0.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(verified->num_classes, 1u);
  EXPECT_NEAR(verified->max_class_emd, 0.0, 1e-12);
}

TEST(TClosenessTest, SkewedClassesHaveLargeEmd) {
  // Class {0,1} holds the two smallest confidential values of n=4:
  // visibly far from the global distribution.
  auto data = DatasetFromColumns(
      {"qi", "conf"}, {{1, 1, 2, 2}, {1, 2, 3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto verified = CheckRelease(*data, 1, 0.5);
  ASSERT_TRUE(verified.ok());
  EXPECT_GT(verified->max_class_emd, 0.3);
  EXPECT_TRUE(verified->t_close);
  EXPECT_FALSE(CheckRelease(*data, 1, 0.1).value().t_close);
}

TEST(TClosenessTest, MatchesAnonymizerReportedEmd) {
  Dataset data = MakeMcdDataset();
  auto result = RunAlgorithm(data, "tclose_first", {.k = 5, .t = 0.1});
  ASSERT_TRUE(result.ok());
  auto verified = CheckRelease(result->anonymized, 5, 0.1);
  ASSERT_TRUE(verified.ok());
  EXPECT_NEAR(verified->max_class_emd, result->max_cluster_emd, 1e-9);
}

TEST(TClosenessTest, RequiresConfidentialAttribute) {
  auto data = DatasetFromColumns(
      {"qi", "x"}, {{1, 2}, {3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kOther});
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(CheckRelease(*data, 1, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ lDiversity

TEST(LDiversityTest, DistinctCounts) {
  auto report = EvaluateLDiversity(MakeGroupedDataset());
  ASSERT_TRUE(report.ok());
  // Class {10,20,20} has 2 distinct values; class {30,40} has 2.
  EXPECT_EQ(report->min_distinct_values, 2u);
}

TEST(LDiversityTest, EntropyPenalizesSkew) {
  // {10,20,20}: entropy < log 2 bits... exp(H) < 2 < distinct count.
  auto report = EvaluateLDiversity(MakeGroupedDataset());
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->min_entropy_l, 2.0);
  EXPECT_GT(report->min_entropy_l, 1.0);
}

TEST(LDiversityTest, UniformClassReachesDistinctCount) {
  auto data = DatasetFromColumns(
      {"qi", "conf"}, {{1, 1, 1}, {10, 20, 30}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto report = EvaluateLDiversity(*data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->min_distinct_values, 3u);
  EXPECT_NEAR(report->min_entropy_l, 3.0, 1e-9);
}

TEST(LDiversityTest, ConstantConfidentialClassIsOneDiverse) {
  auto data = DatasetFromColumns(
      {"qi", "conf"}, {{1, 1}, {5, 5}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  auto report = EvaluateLDiversity(*data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->min_distinct_values, 1u);
  EXPECT_NEAR(report->min_entropy_l, 1.0, 1e-12);
}

// ------------------------------------------------------------ pSensitive

TEST(PSensitiveTest, MaxPEqualsMinDistinct) {
  EXPECT_EQ(MaxSensitiveP(MakeGroupedDataset()).value(), 2u);
}

// --------------------------------------------------------------- Linkage

TEST(LinkageTest, IdentityReleaseIsFullyLinkable) {
  Dataset data = MakeUniformDataset(50, 2, 7);
  auto report = EvaluateLinkageRisk(data, data);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->expected_reidentification_rate, 1.0, 1e-9);
}

TEST(LinkageTest, FullAggregationGivesOneOverN) {
  // Everything in one cluster: every anonymized record ties, so each
  // subject is linked with probability 1/n.
  Dataset data = MakeUniformDataset(40, 2, 7);
  Partition one;
  one.clusters.push_back(std::vector<size_t>(40));
  std::iota(one.clusters[0].begin(), one.clusters[0].end(), 0);
  auto anonymized = AggregatePartition(data, one);
  ASSERT_TRUE(anonymized.ok());
  auto report = EvaluateLinkageRisk(data, *anonymized);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->expected_reidentification_rate, 1.0 / 40.0, 1e-9);
}

TEST(LinkageTest, KAnonymousReleaseBoundedByOneOverK) {
  // Within a cluster all k anonymized points coincide, so the linkage
  // probability of any member is at most 1/k (the nearest-tie group is at
  // least the whole cluster).
  Dataset data = MakeUniformDataset(120, 2, 19);
  QiSpace space(data);
  auto partition = Mdav(space, 6);
  ASSERT_TRUE(partition.ok());
  auto anonymized = AggregatePartition(data, *partition);
  ASSERT_TRUE(anonymized.ok());
  auto report = EvaluateLinkageRisk(data, *anonymized);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->expected_reidentification_rate, 1.0 / 6.0 + 1e-9);
  EXPECT_GT(report->expected_reidentification_rate, 0.0);
}

TEST(LinkageTest, ShapeMismatchFails) {
  Dataset a = MakeUniformDataset(10, 2, 1);
  Dataset b = MakeUniformDataset(11, 2, 1);
  EXPECT_FALSE(EvaluateLinkageRisk(a, b).ok());
}

}  // namespace
}  // namespace tcm
