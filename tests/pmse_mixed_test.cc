// Tests for the propensity-score utility metric (pMSE) and the
// mixed-type (numeric + ordinal + nominal) end-to-end pipeline on the
// Adult-like generator.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generator.h"
#include "data/stats.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "privacy/verify.h"
#include "utility/pmse.h"

namespace tcm {
namespace {

// -------------------------------------------------------------------- pMSE

TEST(PmseTest, IdentityReleaseIsIndistinguishable) {
  Dataset data = MakeUniformDataset(400, 3, 71);
  auto pmse = PropensityMse(data, data);
  ASSERT_TRUE(pmse.ok());
  EXPECT_NEAR(*pmse, 0.0, 1e-6);
}

TEST(PmseTest, CoefficientsVanishOnIdenticalTables) {
  Dataset data = MakeUniformDataset(200, 2, 73);
  auto beta = PropensityLogisticFit(data, data);
  ASSERT_TRUE(beta.ok());
  for (double b : *beta) EXPECT_NEAR(b, 0.0, 1e-6);
}

TEST(PmseTest, GrossDistortionIsDetected) {
  Dataset data = MakeUniformDataset(300, 2, 79);
  Dataset distorted = data;
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  for (size_t row = 0; row < data.NumRecords(); ++row) {
    // Shift and shrink one attribute drastically.
    double value = data.cell(row, qi[0]).numeric();
    ASSERT_TRUE(
        distorted.SetCell(row, qi[0], Value::Numeric(value * 0.1 + 5.0))
            .ok());
  }
  auto pmse = PropensityMse(data, distorted);
  ASSERT_TRUE(pmse.ok());
  EXPECT_GT(*pmse, 0.05);
}

TEST(PmseTest, DetectsVarianceShrinkageOfAggregation) {
  // Microaggregation preserves means, so only the squared features can
  // see it; coarse aggregation must register.
  Dataset data = MakeUniformDataset(400, 2, 83);
  QiSpace space(data);
  auto partition = Mdav(space, 100);  // very coarse
  ASSERT_TRUE(partition.ok());
  auto release = AggregatePartition(data, *partition);
  ASSERT_TRUE(release.ok());
  auto pmse = PropensityMse(data, *release);
  ASSERT_TRUE(pmse.ok());
  EXPECT_GT(*pmse, 0.005);
}

TEST(PmseTest, FinerAggregationScoresBetter) {
  Dataset data = MakeUniformDataset(400, 2, 89);
  QiSpace space(data);
  auto fine = Mdav(space, 4);
  auto coarse = Mdav(space, 200);
  ASSERT_TRUE(fine.ok() && coarse.ok());
  auto fine_release = AggregatePartition(data, *fine);
  auto coarse_release = AggregatePartition(data, *coarse);
  ASSERT_TRUE(fine_release.ok() && coarse_release.ok());
  auto fine_pmse = PropensityMse(data, *fine_release);
  auto coarse_pmse = PropensityMse(data, *coarse_release);
  ASSERT_TRUE(fine_pmse.ok() && coarse_pmse.ok());
  EXPECT_LT(*fine_pmse, *coarse_pmse);
}

TEST(PmseTest, BoundedByQuarter) {
  // (p - 1/2)^2 <= 1/4 always.
  Dataset data = MakeUniformDataset(100, 2, 97);
  Dataset other = MakeUniformDataset(100, 2, 98);
  auto pmse = PropensityMse(data, other);
  ASSERT_TRUE(pmse.ok());
  EXPECT_LE(*pmse, 0.25 + 1e-12);
  EXPECT_GE(*pmse, 0.0);
}

TEST(PmseTest, ShapeMismatchFails) {
  Dataset a = MakeUniformDataset(10, 2, 1);
  Dataset b = MakeUniformDataset(11, 2, 1);
  EXPECT_FALSE(PropensityMse(a, b).ok());
}

// -------------------------------------------------------- Mixed-type flow

TEST(AdultLikeTest, SchemaCoversAllAttributeTypes) {
  Dataset data = MakeAdultLike();
  EXPECT_EQ(data.NumRecords(), 2000u);
  EXPECT_EQ(data.schema().QuasiIdentifierIndices().size(), 4u);
  EXPECT_EQ(data.schema().at(1).type, AttributeType::kOrdinal);
  EXPECT_EQ(data.schema().at(2).type, AttributeType::kNominal);
  EXPECT_EQ(data.schema().ConfidentialIndices().size(), 1u);
}

TEST(AdultLikeTest, DeterministicAndSeedSensitive) {
  AdultLikeOptions options;
  options.num_records = 100;
  options.seed = 5;
  EXPECT_TRUE(MakeAdultLike(options) == MakeAdultLike(options));
  AdultLikeOptions other = options;
  other.seed = 6;
  EXPECT_FALSE(MakeAdultLike(options) == MakeAdultLike(other));
}

TEST(AdultLikeTest, EducationCorrelatesWithIncome) {
  Dataset data = MakeAdultLike();
  EXPECT_GT(QiConfidentialCorrelation(data), 0.3);
}

TEST(AdultLikeTest, CsvRoundTripWithCategories) {
  AdultLikeOptions options;
  options.num_records = 50;
  Dataset data = MakeAdultLike(options);
  std::string text = WriteCsvString(data);
  // Labels, not codes, appear in the file.
  EXPECT_NE(text.find("bachelor"), std::string::npos);
  auto parsed = ParseCsvString(text, data.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == data);
}

class MixedPipelineTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MixedPipelineTest, AnonymizeMixedTypesEndToEnd) {
  AdultLikeOptions options;
  options.num_records = 600;
  Dataset data = MakeAdultLike(options);
  auto result = RunAlgorithm(data, GetParam(), {.k = 4, .t = 0.12});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CheckRelease(result->anonymized, 4, 0.12).value().ok());
  // Ordinal QI aggregated to a valid category code.
  for (size_t row = 0; row < result->anonymized.NumRecords(); ++row) {
    int32_t education = result->anonymized.cell(row, 1).category();
    EXPECT_GE(education, 0);
    EXPECT_LE(education, 4);
    int32_t occupation = result->anonymized.cell(row, 2).category();
    EXPECT_GE(occupation, 0);
    EXPECT_LE(occupation, 5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, MixedPipelineTest,
    ::testing::Values("merge", "kanon_first", "tclose_first"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::erase(name, '_');
      return name;
    });

TEST(MixedPipelineTest, PmseOnMixedRelease) {
  AdultLikeOptions options;
  options.num_records = 500;
  Dataset data = MakeAdultLike(options);
  auto result = RunAlgorithm(data, "tclose_first", {.k = 5, .t = 0.15});
  ASSERT_TRUE(result.ok());
  auto pmse = PropensityMse(data, result->anonymized);
  ASSERT_TRUE(pmse.ok());
  EXPECT_GE(*pmse, 0.0);
  EXPECT_LE(*pmse, 0.25);
}

}  // namespace
}  // namespace tcm
