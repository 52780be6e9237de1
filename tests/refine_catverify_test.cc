// Tests for the partition refinement stage, plus CSV parser robustness
// fuzzing.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/generator.h"
#include "distance/qi_space.h"
#include "microagg/mdav.h"
#include "microagg/refine.h"

namespace tcm {
namespace {

// ------------------------------------------------------------------ Refine

TEST(RefineTest, NeverIncreasesSse) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Dataset data = MakeClusteredDataset(300, 2, 5, 200 + trial);
    QiSpace space(data);
    auto initial = Mdav(space, 4);
    ASSERT_TRUE(initial.ok());
    RefineOptions options;
    options.min_cluster_size = 4;
    RefineStats stats;
    auto refined = RefinePartition(space, *initial, options, &stats);
    ASSERT_TRUE(refined.ok());
    EXPECT_LE(stats.sse_after, stats.sse_before + 1e-9);
    EXPECT_TRUE(ValidatePartition(*refined, 300, 4).ok());
  }
}

TEST(RefineTest, FixedPointOfOptimalPartitionIsStable) {
  // A partition of well-separated modes with exactly matching clusters
  // admits no improving move.
  std::vector<double> xs, cs;
  for (int mode = 0; mode < 3; ++mode) {
    for (int i = 0; i < 6; ++i) {
      xs.push_back(mode * 1000.0 + i);
      cs.push_back(i);
    }
  }
  auto data = DatasetFromColumns(
      {"x", "c"}, {xs, cs},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  Partition modes;
  modes.clusters = {{0, 1, 2, 3, 4, 5},
                    {6, 7, 8, 9, 10, 11},
                    {12, 13, 14, 15, 16, 17}};
  RefineOptions options;
  options.min_cluster_size = 6;
  RefineStats stats;
  auto refined = RefinePartition(space, modes, options, &stats);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(stats.moves, 0u);
  EXPECT_EQ(refined->clusters, modes.clusters);
}

TEST(RefineTest, RepairsDeliberatelyBadPartition) {
  // Swap two records between far-apart modes; refinement must undo it.
  std::vector<double> xs, cs;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i < 10 ? i : 1000.0 + i);
    cs.push_back(i);
  }
  auto data = DatasetFromColumns(
      {"x", "c"}, {xs, cs},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  Partition scrambled;
  scrambled.clusters = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 19},
                        {9, 10, 11, 12, 13, 14, 15, 16, 17, 18}};
  RefineOptions options;
  options.min_cluster_size = 2;
  RefineStats stats;
  auto refined = RefinePartition(space, scrambled, options, &stats);
  ASSERT_TRUE(refined.ok());
  EXPECT_GT(stats.moves, 0u);
  // Records 19 and 9 must end up on their own sides.
  auto assignment = refined->AssignmentVector();
  EXPECT_EQ(assignment[19], assignment[18]);
  EXPECT_EQ(assignment[9], assignment[0]);
}

TEST(RefineTest, SwapsImproveExactKPartitions) {
  // All clusters exactly size k: no relocation is legal, so only the
  // swap moves can (and do) lower SSE on a scrambled partition.
  std::vector<double> xs, cs;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(i < 6 ? i : 500.0 + i);
    cs.push_back(i);
  }
  auto data = DatasetFromColumns(
      {"x", "c"}, {xs, cs},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kConfidential});
  ASSERT_TRUE(data.ok());
  QiSpace space(*data);
  Partition scrambled;
  scrambled.clusters = {{0, 1, 2, 3, 4, 11}, {5, 6, 7, 8, 9, 10}};
  RefineOptions options;
  options.min_cluster_size = 6;  // exact-k: donors cannot shrink
  RefineStats stats;
  auto refined = RefinePartition(space, scrambled, options, &stats);
  ASSERT_TRUE(refined.ok());
  EXPECT_GT(stats.moves, 0u);
  EXPECT_LT(stats.sse_after, stats.sse_before);
  EXPECT_EQ(refined->MinClusterSize(), 6u);
  EXPECT_EQ(refined->MaxClusterSize(), 6u);
  // Records 11 and 5 swapped home.
  auto assignment = refined->AssignmentVector();
  EXPECT_EQ(assignment[11], assignment[10]);
  EXPECT_EQ(assignment[5], assignment[0]);
}

TEST(RefineTest, HonorsMinimumClusterSize) {
  Dataset data = MakeUniformDataset(60, 2, 109);
  QiSpace space(data);
  auto initial = Mdav(space, 3);
  ASSERT_TRUE(initial.ok());
  RefineOptions options;
  options.min_cluster_size = 3;
  auto refined = RefinePartition(space, *initial, options);
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined->MinClusterSize(), 3u);
}

TEST(RefineTest, RejectsPartitionBelowMinimum) {
  Dataset data = MakeUniformDataset(10, 2, 111);
  QiSpace space(data);
  Partition singletons;
  for (size_t i = 0; i < 10; ++i) singletons.clusters.push_back({i});
  RefineOptions options;
  options.min_cluster_size = 2;
  EXPECT_FALSE(RefinePartition(space, singletons, options).ok());
}

// -------------------------------------------------------------- Fuzzing

TEST(FuzzTest, CsvParserNeverCrashesOnGarbage) {
  Schema schema({
      Attribute{"a", AttributeType::kNumeric, AttributeRole::kOther, {}},
      Attribute{"b", AttributeType::kNominal, AttributeRole::kOther,
                {"x", "y"}},
  });
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    size_t length = rng.NextBounded(200);
    std::string text;
    for (size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>(rng.NextBounded(96) + 32));
      if (rng.NextBounded(10) == 0) text.push_back('\n');
      if (rng.NextBounded(15) == 0) text.push_back(',');
    }
    // Must return (any status), not crash.
    auto parsed = ParseCsvString(text, schema);
    (void)parsed;
  }
  SUCCEED();
}

}  // namespace
}  // namespace tcm
