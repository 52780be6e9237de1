// Tests for the paper's "research directions" implementations:
// (n,t)-closeness and the interval-disclosure risk measure.

#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "privacy/interval_disclosure.h"
#include "privacy/ntcloseness.h"

namespace tcm {
namespace {

// ---------------------------------------------------------- (n,t)-closeness

TEST(NTClosenessTest, WholeDatasetSupersetReducesToTCloseness) {
  Dataset data = MakeMcdDataset();
  auto result = RunAlgorithm(data, "tclose_first", {.k = 5, .t = 0.1});
  ASSERT_TRUE(result.ok());
  auto nt = EvaluateNTCloseness(result->anonymized, data.NumRecords());
  ASSERT_TRUE(nt.ok());
  EXPECT_LE(nt->max_emd, 0.1 + 1e-6);
}

TEST(NTClosenessTest, LargeClassesSatisfyTrivially) {
  // Classes >= n are their own natural supersets: EMD 0.
  Dataset data = MakeMcdDataset();
  auto result = RunAlgorithm(data, "tclose_first", {.k = 30, .t = 0.25});
  ASSERT_TRUE(result.ok());
  auto nt = EvaluateNTCloseness(result->anonymized, /*min_superset_size=*/20);
  ASSERT_TRUE(nt.ok());
  EXPECT_DOUBLE_EQ(nt->max_emd, 0.0);
}

TEST(NTClosenessTest, RelaxationIsMonotoneInN) {
  // Smaller supersets are more local, so the distance to them can only be
  // smaller or equal than to the whole data set (QI-local populations
  // resemble QI-local classes).
  Dataset data = MakeHcdDataset();
  QiSpace space(data);
  auto partition = Mdav(space, 4);
  ASSERT_TRUE(partition.ok());
  auto release = AggregatePartition(data, *partition);
  ASSERT_TRUE(release.ok());
  auto local = EvaluateNTCloseness(*release, 100);
  auto global = EvaluateNTCloseness(*release, data.NumRecords());
  ASSERT_TRUE(local.ok() && global.ok());
  EXPECT_LE(local->mean_emd, global->mean_emd + 1e-9);
}

TEST(NTClosenessTest, RequiresConfidentialAttribute) {
  auto data = DatasetFromColumns(
      {"qi", "x"}, {{1, 2}, {3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kOther});
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(EvaluateNTCloseness(*data, 2).ok());
}

// ------------------------------------------------------ Interval disclosure

TEST(IntervalDisclosureTest, IdentityReleaseFullyDisclosive) {
  Dataset data = MakeUniformDataset(100, 2, 21);
  auto report = EvaluateIntervalDisclosure(data, data, 0.01);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->disclosure_rate, 1.0);
  EXPECT_EQ(report->cells, 200u);
}

TEST(IntervalDisclosureTest, AggregationReducesDisclosure) {
  Dataset data = MakeUniformDataset(300, 2, 23);
  QiSpace space(data);
  double previous = 1.1;
  for (size_t k : {3u, 30u, 150u}) {
    auto partition = Mdav(space, k);
    ASSERT_TRUE(partition.ok());
    auto release = AggregatePartition(data, *partition);
    ASSERT_TRUE(release.ok());
    auto report = EvaluateIntervalDisclosure(data, *release, 0.02);
    ASSERT_TRUE(report.ok());
    EXPECT_LT(report->disclosure_rate, previous) << "k=" << k;
    previous = report->disclosure_rate;
  }
}

TEST(IntervalDisclosureTest, WiderWindowMeansMoreDisclosure) {
  Dataset data = MakeUniformDataset(200, 2, 25);
  QiSpace space(data);
  auto partition = Mdav(space, 10);
  ASSERT_TRUE(partition.ok());
  auto release = AggregatePartition(data, *partition);
  ASSERT_TRUE(release.ok());
  auto narrow = EvaluateIntervalDisclosure(data, *release, 0.01);
  auto wide = EvaluateIntervalDisclosure(data, *release, 0.2);
  ASSERT_TRUE(narrow.ok() && wide.ok());
  EXPECT_LE(narrow->disclosure_rate, wide->disclosure_rate);
}

TEST(IntervalDisclosureTest, RejectsBadWindow) {
  Dataset data = MakeUniformDataset(10, 2, 1);
  EXPECT_FALSE(EvaluateIntervalDisclosure(data, data, 0.0).ok());
  EXPECT_FALSE(EvaluateIntervalDisclosure(data, data, 1.5).ok());
}

}  // namespace
}  // namespace tcm
