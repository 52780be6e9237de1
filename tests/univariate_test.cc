#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "distance/qi_space.h"
#include "microagg/mdav.h"
#include "microagg/microagg.h"
#include "microagg/univariate.h"

namespace tcm {
namespace {

// Brute-force optimal SSE over all partitions of the sorted order into
// consecutive groups of size in [k, 2k-1] (exponential; tiny n only).
double BruteForceOptimalSse(const std::vector<double>& values, size_t k) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  std::vector<double> best(n + 1, 1e300);
  best[0] = 0.0;
  for (size_t j = 1; j <= n; ++j) {
    for (size_t size = k; size <= 2 * k - 1 && size <= j; ++size) {
      size_t i = j - size;
      if (best[i] >= 1e300) continue;
      double mean = 0.0;
      for (size_t p = i; p < j; ++p) mean += sorted[p];
      mean /= static_cast<double>(size);
      double sse = 0.0;
      for (size_t p = i; p < j; ++p) {
        sse += (sorted[p] - mean) * (sorted[p] - mean);
      }
      best[j] = std::min(best[j], best[i] + sse);
    }
  }
  return best[n];
}

TEST(UnivariateTest, RejectsBadK) {
  std::vector<double> values = {1, 2, 3};
  EXPECT_FALSE(OptimalUnivariateMicroaggregation(values, 0).ok());
  EXPECT_FALSE(OptimalUnivariateMicroaggregation(values, 4).ok());
}

TEST(UnivariateTest, PartitionIsValidAndSizesBounded) {
  Rng rng(3);
  for (size_t n : {10u, 37u, 100u}) {
    for (size_t k : {2u, 3u, 5u}) {
      std::vector<double> values(n);
      for (double& v : values) v = rng.NextDouble();
      auto partition = OptimalUnivariateMicroaggregation(values, k);
      ASSERT_TRUE(partition.ok());
      EXPECT_TRUE(ValidatePartition(*partition, n, k).ok());
      EXPECT_LE(partition->MaxClusterSize(), 2 * k - 1);
    }
  }
}

TEST(UnivariateTest, GroupsAreConsecutiveInSortOrder) {
  std::vector<double> values = {5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  auto partition = OptimalUnivariateMicroaggregation(values, 3);
  ASSERT_TRUE(partition.ok());
  // Each cluster's value range must not overlap another's.
  std::vector<std::pair<double, double>> ranges;
  for (const Cluster& cluster : partition->clusters) {
    double lo = 1e300, hi = -1e300;
    for (size_t row : cluster) {
      lo = std::min(lo, values[row]);
      hi = std::max(hi, values[row]);
    }
    ranges.emplace_back(lo, hi);
  }
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second);
  }
}

TEST(UnivariateTest, MatchesBruteForceOnRandomInputs) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 6 + rng.NextBounded(9);  // 6..14
    size_t k = 2 + rng.NextBounded(2);  // 2..3
    std::vector<double> values(n);
    for (double& v : values) v = std::round(rng.NextDouble() * 100);
    auto partition = OptimalUnivariateMicroaggregation(values, k);
    ASSERT_TRUE(partition.ok());
    EXPECT_NEAR(UnivariateSse(values, *partition),
                BruteForceOptimalSse(values, k), 1e-9)
        << "n=" << n << " k=" << k;
  }
}

TEST(UnivariateTest, ObviousTwoClusterCase) {
  // Two tight groups far apart: the optimum is exactly those groups.
  std::vector<double> values = {0, 1, 2, 100, 101, 102};
  auto partition = OptimalUnivariateMicroaggregation(values, 3);
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->NumClusters(), 2u);
  EXPECT_NEAR(UnivariateSse(values, *partition), 4.0, 1e-12);  // 2 per group
}

TEST(UnivariateTest, BeatsOrMatchesMdavOnOneDimension) {
  // On 1-D data the DP is optimal, so it can never lose to MDAV.
  Dataset data = MakeUniformDataset(200, 1, 7);
  QiSpace space(data);
  std::vector<double> scores(space.num_records());
  for (size_t i = 0; i < scores.size(); ++i) scores[i] = space.point(i)[0];
  for (size_t k : {2u, 5u, 10u}) {
    auto optimal = OptimalUnivariateMicroaggregation(scores, k);
    auto mdav = Mdav(space, k);
    ASSERT_TRUE(optimal.ok() && mdav.ok());
    EXPECT_LE(UnivariateSse(scores, *optimal),
              UnivariateSse(scores, *mdav) + 1e-9)
        << "k=" << k;
  }
}

TEST(UnivariateTest, TiedValuesHandled) {
  std::vector<double> values(20, 3.0);
  auto partition = OptimalUnivariateMicroaggregation(values, 4);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, 20, 4).ok());
  EXPECT_NEAR(UnivariateSse(values, *partition), 0.0, 1e-12);
}

// ----------------------------------------------------------- Projection

TEST(ProjectionTest, PcaRecoversDominantDirection) {
  // Data stretched along (1, 1): scores must order records along that
  // diagonal.
  std::vector<double> q1, q2, c;
  for (int i = 0; i < 50; ++i) {
    q1.push_back(i + 0.01 * (i % 3));
    q2.push_back(i - 0.01 * (i % 2));
    c.push_back(i);
  }
  auto data = DatasetFromColumns(
      {"q1", "q2", "c"}, {q1, q2, c},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  std::vector<double> scores = PrincipalComponentScores(space);
  for (size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GT(scores[i], scores[i - 1]);
  }
}

TEST(ProjectionTest, PartitionIsValid) {
  Dataset data = MakeUniformDataset(150, 3, 13);
  QiSpace space(data);
  auto partition = ProjectionMicroaggregation(space, 5);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, 150, 5).ok());
  EXPECT_LE(partition->MaxClusterSize(), 9u);
}

TEST(ProjectionTest, OptimalOnIntrinsicallyOneDimensionalData) {
  // When the QIs are perfectly collinear the projection method is exact,
  // so MDAV cannot beat it on SSE in the projected coordinate.
  std::vector<double> q1, q2, c;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    double u = rng.NextDouble() * 100;
    q1.push_back(u);
    q2.push_back(2 * u);
    c.push_back(rng.NextDouble());
  }
  auto data = DatasetFromColumns(
      {"q1", "q2", "c"}, {q1, q2, c},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier,
       AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  std::vector<double> scores = PrincipalComponentScores(space);
  auto projection = ProjectionMicroaggregation(space, 4);
  auto mdav = Mdav(space, 4);
  ASSERT_TRUE(projection.ok() && mdav.ok());
  EXPECT_LE(UnivariateSse(scores, *projection),
            UnivariateSse(scores, *mdav) + 1e-9);
}

TEST(ProjectionTest, AvailableThroughFrontend) {
  Dataset data = MakeUniformDataset(60, 2, 17);
  QiSpace space(data);
  MicroaggOptions options;
  options.method = MicroaggMethod::kProjection;
  auto via_frontend = Microaggregate(space, 4, options);
  auto direct = ProjectionMicroaggregation(space, 4);
  ASSERT_TRUE(via_frontend.ok() && direct.ok());
  EXPECT_EQ(via_frontend->clusters, direct->clusters);
  EXPECT_STREQ(MicroaggMethodName(MicroaggMethod::kProjection), "projection");
}

}  // namespace
}  // namespace tcm
