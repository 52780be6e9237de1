// Metamorphic property tests: transformations of the input that must not
// change (or must change in a precisely known way) the algorithms'
// output. These catch a class of bugs example-based tests cannot —
// accidental dependence on scales, offsets or value magnitudes.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/emd_bounds.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/mdav.h"

namespace tcm {
namespace {

// Applies an affine map to one column of a dataset.
Dataset WithAffineColumn(const Dataset& data, size_t col, double scale,
                         double shift) {
  Dataset out = data;
  for (size_t row = 0; row < data.NumRecords(); ++row) {
    double value = data.cell(row, col).numeric();
    EXPECT_TRUE(
        out.SetCell(row, col, Value::Numeric(value * scale + shift)).ok());
  }
  return out;
}

// Applies a strictly monotone nonlinear map to one column.
Dataset WithMonotoneColumn(const Dataset& data, size_t col) {
  Dataset out = data;
  for (size_t row = 0; row < data.NumRecords(); ++row) {
    double value = data.cell(row, col).numeric();
    EXPECT_TRUE(out.SetCell(row, col,
                            Value::Numeric(std::exp(value * 1e-5) * 1000.0))
                    .ok());
  }
  return out;
}

// ------------------------------------------------------------- EMD ranks

TEST(MetamorphicTest, EmdInvariantUnderMonotoneConfidentialMap) {
  // The ordered EMD depends only on ranks, so ANY strictly monotone map
  // of the confidential attribute leaves every cluster EMD unchanged.
  Dataset data = MakeMcdDataset();
  size_t conf = data.schema().ConfidentialIndices()[0];
  Dataset mapped = WithMonotoneColumn(data, conf);
  EmdCalculator original(data);
  EmdCalculator transformed(mapped);
  Rng rng(5);
  std::vector<size_t> all(data.NumRecords());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<size_t> cluster = all;
    rng.Shuffle(cluster);
    cluster.resize(1 + rng.NextBounded(50));
    EXPECT_NEAR(original.ClusterEmd(cluster),
                transformed.ClusterEmd(cluster), 1e-12);
  }
}

// ------------------------------------------------------------ QI scaling

TEST(MetamorphicTest, MdavInvariantUnderPerAttributeAffineQiMaps) {
  // Range normalization makes the QI geometry invariant to affine maps
  // of individual attributes (positive scale), so MDAV partitions are
  // identical.
  Dataset data = MakeUniformDataset(200, 3, 101);
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  Dataset scaled = WithAffineColumn(data, qi[0], 1000.0, -47.0);
  scaled = WithAffineColumn(scaled, qi[1], 0.001, 12345.0);
  QiSpace original_space(data);
  QiSpace scaled_space(scaled);
  auto original = Mdav(original_space, 5);
  auto transformed = Mdav(scaled_space, 5);
  ASSERT_TRUE(original.ok() && transformed.ok());
  EXPECT_EQ(original->clusters, transformed->clusters);
}

TEST(MetamorphicTest, FullPipelineInvariantUnderJointScaling) {
  // Affine QI maps + monotone confidential map: the partitions of all
  // three algorithms are unchanged (SSE is scale-normalized too, but the
  // released values differ, so only the partition is compared).
  Dataset data = MakeMcdDataset();
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  size_t conf = data.schema().ConfidentialIndices()[0];
  Dataset transformed = WithAffineColumn(data, qi[0], 3.5, 100.0);
  transformed = WithAffineColumn(transformed, qi[1], 0.25, -3.0);
  transformed = WithMonotoneColumn(transformed, conf);

  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto original = RunAlgorithm(data, algorithm, {.k = 4, .t = 0.1});
    auto mapped = RunAlgorithm(transformed, algorithm, {.k = 4, .t = 0.1});
    ASSERT_TRUE(original.ok() && mapped.ok());
    EXPECT_EQ(original->partition.clusters, mapped->partition.clusters)
        << algorithm;
    EXPECT_NEAR(original->max_cluster_emd, mapped->max_cluster_emd, 1e-9);
    EXPECT_NEAR(original->normalized_sse, mapped->normalized_sse, 1e-6)
        << algorithm;
  }
}

TEST(MetamorphicTest, DuplicatingEveryRecordHalvesRequiredT) {
  // With every record duplicated, each original cluster pattern can be
  // realized at twice the size; the Eq. 3 cluster size for a given t is
  // (asymptotically) unchanged in *relative* terms. Sanity-check the
  // direction: k*(2n, t) <= 2 k*(n, t).
  const size_t n = 540;
  for (double t : {0.02, 0.05, 0.1}) {
    size_t small = RequiredClusterSize(n, 2, t);
    size_t large = RequiredClusterSize(2 * n, 2, t);
    EXPECT_LE(large, 2 * small);
    EXPECT_GE(large, small);
  }
}

}  // namespace
}  // namespace tcm
