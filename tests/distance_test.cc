#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/emd_bounds.h"
#include "distance/qi_space.h"

namespace tcm {
namespace {

// --------------------------------------------------------------- QiSpace

Dataset MakeGrid() {
  // Two QIs on different scales; range normalization must equalize them.
  auto data = DatasetFromColumns(
      {"x", "y", "c"},
      {{0, 10, 20, 30}, {0, 1000, 2000, 3000}, {1, 2, 3, 4}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  return std::move(data).value();
}

TEST(QiSpaceTest, RangeNormalizationEqualizesScales) {
  QiSpace space(MakeGrid(), QiNormalization::kRange);
  // Records 0 and 3 are at opposite corners: distance sqrt(1^2 + 1^2).
  EXPECT_NEAR(std::sqrt(space.SquaredDistance(0, 3)), std::sqrt(2.0), 1e-12);
  // Adjacent records: each dimension moves 1/3.
  EXPECT_NEAR(std::sqrt(space.SquaredDistance(0, 1)), std::sqrt(2.0) / 3.0, 1e-12);
}

TEST(QiSpaceTest, StandardizeNormalizationHasUnitVariance) {
  QiSpace space(MakeGrid(), QiNormalization::kStandardize);
  for (size_t d = 0; d < space.num_dims(); ++d) {
    double sum = 0, sum_sq = 0;
    for (size_t row = 0; row < space.num_records(); ++row) {
      sum += space.point(row)[d];
      sum_sq += space.point(row)[d] * space.point(row)[d];
    }
    double mean = sum / space.num_records();
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(sum_sq / space.num_records() - mean * mean, 1.0, 1e-9);
  }
}

TEST(QiSpaceTest, NoneNormalizationKeepsRawValues) {
  QiSpace space(MakeGrid(), QiNormalization::kNone);
  EXPECT_DOUBLE_EQ(space.point(1)[0], 10.0);
  EXPECT_DOUBLE_EQ(space.point(1)[1], 1000.0);
}

TEST(QiSpaceTest, CentroidIsMean) {
  QiSpace space(MakeGrid(), QiNormalization::kNone);
  std::vector<double> centroid = space.Centroid({0, 3});
  EXPECT_DOUBLE_EQ(centroid[0], 15.0);
  EXPECT_DOUBLE_EQ(centroid[1], 1500.0);
}

TEST(QiSpaceTest, FarthestAndClosestQueries) {
  QiSpace space(MakeGrid(), QiNormalization::kRange);
  std::vector<size_t> all = {0, 1, 2, 3};
  EXPECT_EQ(space.FarthestFromPoint(all, space.Centroid({0})), 3u);
  // Closest to record 0 other than itself: the second-nearest.
  EXPECT_EQ(space.NearestToRecord(all, 0, 2)[1], 1u);
  EXPECT_EQ(space.NearestToRecord({0, 2, 3}, 0, 2)[1], 2u);
}

TEST(QiSpaceTest, NearestToRecordOrdersByDistance) {
  QiSpace space(MakeGrid(), QiNormalization::kRange);
  std::vector<size_t> nearest = space.NearestToRecord({0, 1, 2, 3}, 0, 3);
  EXPECT_EQ(nearest, (std::vector<size_t>{0, 1, 2}));
  // count larger than candidates clips.
  EXPECT_EQ(space.NearestToRecord({1, 2}, 0, 10).size(), 2u);
}

TEST(QiSpaceTest, ConstantColumnDoesNotDivideByZero) {
  auto data = DatasetFromColumns(
      {"x", "c"}, {{5, 5, 5}, {1, 2, 3}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data, QiNormalization::kRange);
  EXPECT_DOUBLE_EQ(space.SquaredDistance(0, 2), 0.0);
}

// ------------------------------------------------------------ OrderedEmd

TEST(OrderedEmdTest, IdenticalDistributionsAreZero) {
  EXPECT_DOUBLE_EQ(OrderedEmd({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({1.0}, {1.0}), 0.0);
}

TEST(OrderedEmdTest, OppositeCornersAreMaximal) {
  // All mass moved across the full support: EMD = 1.
  EXPECT_DOUBLE_EQ(OrderedEmd({1, 0, 0}, {0, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({0, 0, 1}, {1, 0, 0}), 1.0);
}

TEST(OrderedEmdTest, KnownSmallCase) {
  // Mass 1 at bin 0 vs uniform over 3 bins:
  // cum diffs: 2/3, 1/3, 0 -> sum = 1, / (m-1) = 0.5.
  EXPECT_NEAR(OrderedEmd({1, 0, 0}, {1.0 / 3, 1.0 / 3, 1.0 / 3}), 0.5, 1e-12);
}

TEST(OrderedEmdTest, Symmetric) {
  std::vector<double> p = {0.1, 0.4, 0.2, 0.3};
  std::vector<double> q = {0.3, 0.1, 0.5, 0.1};
  EXPECT_DOUBLE_EQ(OrderedEmd(p, q), OrderedEmd(q, p));
}

TEST(OrderedEmdTest, TriangleInequalityOnRandomTriples) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    auto random_dist = [&rng] {
      std::vector<double> d(6);
      double total = 0;
      for (double& x : d) {
        x = rng.NextDouble();
        total += x;
      }
      for (double& x : d) x /= total;
      return d;
    };
    auto p = random_dist(), q = random_dist(), r = random_dist();
    EXPECT_LE(OrderedEmd(p, r), OrderedEmd(p, q) + OrderedEmd(q, r) + 1e-12);
  }
}

// --------------------------------------------------------- EmdCalculator

TEST(EmdCalculatorTest, WholeDatasetIsZeroClose) {
  EmdCalculator emd(std::vector<double>{5, 1, 3, 2, 4});
  std::vector<size_t> all = {0, 1, 2, 3, 4};
  EXPECT_NEAR(emd.ClusterEmd(all), 0.0, 1e-12);
}

TEST(EmdCalculatorTest, RanksFollowSortOrderWithStableTies) {
  EmdCalculator emd(std::vector<double>{5, 1, 3, 3, 4});
  EXPECT_EQ(emd.RankOf(1), 0u);
  EXPECT_EQ(emd.RankOf(2), 1u);  // first of the tied 3s
  EXPECT_EQ(emd.RankOf(3), 2u);  // second of the tied 3s
  EXPECT_EQ(emd.RankOf(4), 3u);
  EXPECT_EQ(emd.RankOf(0), 4u);
}

TEST(EmdCalculatorTest, SingletonExtremeRecord) {
  // Cluster = the largest record of n=4: mass 1 at the last bin.
  // cum diffs at bins 1..4: |0-1/4|+|0-2/4|+|0-3/4|+|1-1| = 1.5 -> /3 = 0.5.
  EmdCalculator emd(std::vector<double>{1, 2, 3, 4});
  EXPECT_NEAR(emd.ClusterEmd({3}), 0.5, 1e-12);
}

TEST(EmdCalculatorTest, FastMatchesReferenceOnDirectedCases) {
  EmdCalculator emd(std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<std::vector<size_t>> cases = {
      {0}, {7}, {0, 7}, {3, 4}, {0, 1, 2, 3}, {4, 5, 6, 7},
      {0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 2, 3, 4, 5, 6, 7}};
  for (const auto& rows : cases) {
    EXPECT_NEAR(emd.ClusterEmd(rows), emd.ReferenceClusterEmd(rows), 1e-12);
  }
}

// Property sweep: the closed-form O(c) evaluation must agree with the
// O(n) cumulative-sum oracle on random clusters of every size, for several
// data set sizes, with ties present.
class EmdAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EmdAgreementTest, FastMatchesReferenceOnRandomClusters) {
  const size_t n = GetParam();
  Rng rng(n * 977 + 1);
  // Values with duplicates to exercise tie handling.
  std::vector<double> values(n);
  for (double& v : values) {
    v = static_cast<double>(rng.NextBounded(n / 2 + 1));
  }
  EmdCalculator emd(values);
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (int trial = 0; trial < 30; ++trial) {
    size_t size = 1 + rng.NextBounded(n);
    std::vector<size_t> rows = all;
    rng.Shuffle(rows);
    rows.resize(size);
    EXPECT_NEAR(emd.ClusterEmd(rows), emd.ReferenceClusterEmd(rows), 1e-10)
        << "n=" << n << " cluster size=" << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EmdAgreementTest,
                         ::testing::Values(2, 3, 5, 10, 37, 100, 256, 1080));

TEST(EmdCalculatorTest, DatasetConstructorUsesConfidentialColumn) {
  auto data = DatasetFromColumns(
      {"q", "c"}, {{9, 9, 9, 9}, {4, 3, 2, 1}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  EmdCalculator emd(*data);
  EXPECT_EQ(emd.RankOf(0), 3u);  // c=4 is the largest
  EXPECT_EQ(emd.RankOf(3), 0u);
}

// ------------------------------------------------------------ EMD bounds

TEST(EmdBoundsTest, Proposition1FormulaValues) {
  // (n+k)(n-k) / (4 n (n-1) k) at n=12, k=3: 15*9/(4*12*11*3) = 135/1584.
  EXPECT_NEAR(MinClusterEmd(12, 3), 135.0 / 1584.0, 1e-12);
}

TEST(EmdBoundsTest, Proposition2FormulaValues) {
  // (n-k) / (2 (n-1) k) at n=12, k=3: 9/66.
  EXPECT_NEAR(MaxClusterEmdOnePerSubset(12, 3), 9.0 / 66.0, 1e-12);
}

TEST(EmdBoundsTest, FullClusterHasZeroBounds) {
  EXPECT_DOUBLE_EQ(MinClusterEmd(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(MaxClusterEmdOnePerSubset(10, 10), 0.0);
}

TEST(EmdBoundsTest, Proposition1TightWhenSubsetSizeOdd) {
  // Medians-of-subsets cluster achieves the bound exactly when n/k is odd
  // (n=15, k=3, n/k=5). For even n/k the paper's continuous middle
  // (n/k+1)/2 is not an integer and the bound is strict — see the next
  // test.
  const size_t n = 15, k = 3;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  EmdCalculator emd(values);
  std::vector<size_t> medians;
  for (size_t i = 0; i < k; ++i) {
    medians.push_back(i * (n / k) + (n / k) / 2);  // 0-based exact median
  }
  EXPECT_NEAR(emd.ClusterEmd(medians), MinClusterEmd(n, k), 1e-12);
}

TEST(EmdBoundsTest, Proposition1StrictWhenSubsetSizeEven) {
  // n=12, k=3, n/k=4: best integral cluster (lower medians) stays above
  // the continuous bound but within 1 rank-step of it.
  const size_t n = 12, k = 3;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  EmdCalculator emd(values);
  std::vector<size_t> medians;
  for (size_t i = 0; i < k; ++i) {
    medians.push_back(i * (n / k) + (n / k - 1) / 2);
  }
  double achieved = emd.ClusterEmd(medians);
  EXPECT_GT(achieved, MinClusterEmd(n, k));
  EXPECT_LT(achieved, MinClusterEmd(n, k) + 1.0 / (n - 1));
}

TEST(EmdBoundsTest, Proposition1IsALowerBoundOnRandomClusters) {
  const size_t n = 60;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  EmdCalculator emd(values);
  Rng rng(5);
  for (size_t k : {2, 3, 5, 6, 10}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<size_t> all(n);
      std::iota(all.begin(), all.end(), 0);
      rng.Shuffle(all);
      all.resize(k);
      EXPECT_GE(emd.ClusterEmd(all), MinClusterEmd(n, k) - 1e-12);
    }
  }
}

TEST(EmdBoundsTest, Proposition2TightForLowestPerSubsetCluster) {
  // Cluster of the minimum of each subset attains the bound exactly.
  const size_t n = 20, k = 4;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  EmdCalculator emd(values);
  std::vector<size_t> lows;
  for (size_t i = 0; i < k; ++i) lows.push_back(i * (n / k));
  EXPECT_NEAR(emd.ClusterEmd(lows), MaxClusterEmdOnePerSubset(n, k), 1e-12);
}

TEST(EmdBoundsTest, Proposition2BoundsAllOnePerSubsetClusters) {
  const size_t n = 24;
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);
  EmdCalculator emd(values);
  Rng rng(6);
  for (size_t k : {2, 3, 4, 6, 8}) {
    double bound = MaxClusterEmdOnePerSubset(n, k);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<size_t> cluster;
      for (size_t i = 0; i < k; ++i) {
        cluster.push_back(i * (n / k) + rng.NextBounded(n / k));
      }
      EXPECT_LE(emd.ClusterEmd(cluster), bound + 1e-12);
    }
  }
}

TEST(EmdBoundsTest, RequiredClusterSizeInvertsProposition2) {
  // For the returned k*, the Prop. 2 bound must be <= t, and k*-1 (when
  // > k) must violate it: k* is minimal.
  const size_t n = 1080;
  for (double t : {0.01, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25}) {
    for (size_t k : {2u, 5u, 10u}) {
      size_t k_star = RequiredClusterSize(n, k, t);
      EXPECT_LE(MaxClusterEmdOnePerSubset(n, k_star), t + 1e-12);
      if (k_star > k) {
        EXPECT_GT(MaxClusterEmdOnePerSubset(n, k_star - 1), t);
      }
    }
  }
}

TEST(EmdBoundsTest, RequiredClusterSizeRespectsK) {
  EXPECT_EQ(RequiredClusterSize(1080, 30, 0.25), 30u);
  EXPECT_EQ(RequiredClusterSize(1080, 2, 0.0), 1080u);
}

TEST(EmdBoundsTest, PaperTable3ClusterSizes) {
  // Table 3 reports the actual cluster sizes of Algorithm 3 for n=1080,
  // k=2: 49 at t=0.01 (Eq. 3 gives 48, Eq. 4 bumps it to 49 because
  // 1080 mod 48 = 24 leftovers exceed the 22 clusters), then 10, 6, 4, 3,
  // 3, 2 — all divisors of 1080, unchanged by Eq. 4.
  const size_t n = 1080;
  auto effective = [n](double t) {
    return AdjustClusterSizeForRemainder(n, RequiredClusterSize(n, 2, t));
  };
  EXPECT_EQ(RequiredClusterSize(n, 2, 0.01), 48u);
  EXPECT_EQ(effective(0.01), 49u);
  EXPECT_EQ(effective(0.05), 10u);
  EXPECT_EQ(effective(0.09), 6u);
  EXPECT_EQ(effective(0.13), 4u);
  EXPECT_EQ(effective(0.17), 3u);
  EXPECT_EQ(effective(0.21), 3u);
  EXPECT_EQ(effective(0.25), 2u);
}

TEST(EmdBoundsTest, AdjustClusterSizeInvariant) {
  for (size_t n : {10u, 47u, 100u, 1080u, 1081u, 23435u}) {
    for (size_t k = 1; k <= std::min<size_t>(n, 40); ++k) {
      size_t adjusted = AdjustClusterSizeForRemainder(n, k);
      EXPECT_GE(adjusted, k);
      EXPECT_LE(adjusted, n);
      if (adjusted < n) {
        EXPECT_LE(n % adjusted, n / adjusted)
            << "n=" << n << " k=" << k << " adjusted=" << adjusted;
      }
    }
  }
}

TEST(EmdBoundsTest, AdjustClusterSizeNoChangeWhenDivisible) {
  EXPECT_EQ(AdjustClusterSizeForRemainder(1080, 10), 10u);
  EXPECT_EQ(AdjustClusterSizeForRemainder(1080, 30), 30u);
}

}  // namespace
}  // namespace tcm
