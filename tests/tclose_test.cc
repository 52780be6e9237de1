#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/emd_bounds.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "privacy/verify.h"
#include "tclose/kanon_first.h"
#include "tclose/merge.h"
#include "tclose/tclose_first.h"

namespace tcm {
namespace {

double MaxClusterEmd(const EmdCalculator& emd, const Partition& partition) {
  double worst = 0.0;
  for (const Cluster& cluster : partition.clusters) {
    worst = std::max(worst, emd.ClusterEmd(cluster));
  }
  return worst;
}

// ------------------------------------------------- Algorithm 1 (merge)

TEST(MergeTest, AlreadyTClosePartitionIsUntouched) {
  Dataset data = MakeUniformDataset(100, 2, 3);
  QiSpace space(data);
  EmdCalculator emd(data);
  auto initial = Mdav(space, 10);
  ASSERT_TRUE(initial.ok());
  size_t before = initial->NumClusters();
  MergeStats stats;
  auto merged = MergeUntilTClose(space, emd, /*t=*/1.0, *initial, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->NumClusters(), before);
  EXPECT_EQ(stats.merges, 0u);
}

TEST(MergeTest, TZeroCollapsesToSingleCluster) {
  Dataset data = MakeUniformDataset(60, 2, 3);
  QiSpace space(data);
  EmdCalculator emd(data);
  auto initial = Mdav(space, 3);
  ASSERT_TRUE(initial.ok());
  MergeStats stats;
  auto merged = MergeUntilTClose(space, emd, 0.0, *initial, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->NumClusters(), 1u);
  EXPECT_NEAR(stats.final_max_emd, 0.0, 1e-12);
}

TEST(MergeTest, ResultAlwaysSatisfiesT) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.05, 0.1, 0.2}) {
    MergeStats stats;
    auto merged = MergeTCloseness(space, emd, 5, t, {}, &stats);
    ASSERT_TRUE(merged.ok());
    EXPECT_LE(MaxClusterEmd(emd, *merged), t + 1e-12) << "t=" << t;
    EXPECT_LE(stats.final_max_emd, t + 1e-12);
  }
}

TEST(MergeTest, PreservesKAnonymityOfInitialPartition) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto merged = MergeTCloseness(space, emd, 8, 0.1);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(ValidatePartition(*merged, data.NumRecords(), 8).ok());
}

TEST(MergeTest, TighterTNeverGivesSmallerClusters) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  double previous_avg = 0.0;
  for (double t : {0.25, 0.15, 0.05}) {
    auto merged = MergeTCloseness(space, emd, 3, t);
    ASSERT_TRUE(merged.ok());
    EXPECT_GE(merged->AverageClusterSize(), previous_avg);
    previous_avg = merged->AverageClusterSize();
  }
}

TEST(MergeTest, RejectsInvalidInputs) {
  Dataset data = MakeUniformDataset(20, 2, 3);
  QiSpace space(data);
  EmdCalculator emd(data);
  Partition bad;  // does not cover the dataset
  bad.clusters = {{0, 1}};
  EXPECT_FALSE(MergeUntilTClose(space, emd, 0.1, bad).ok());
  auto initial = Mdav(space, 2);
  ASSERT_TRUE(initial.ok());
  EXPECT_FALSE(MergeUntilTClose(space, emd, -0.5, *initial).ok());
}

// Pin for the compacted merge loop: every merge removes exactly one live
// cluster, so the cluster-count delta must equal the reported merge count
// for any t. A compaction bug that dropped or double-counted a slot would
// break this ledger before it broke a verdict.
TEST(MergeTest, MergeCountMatchesClusterCountDelta) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto initial = Mdav(space, 4);
  ASSERT_TRUE(initial.ok());
  for (double t : {0.02, 0.05, 0.1, 0.3}) {
    MergeStats stats;
    auto merged = MergeUntilTClose(space, emd, t, *initial, &stats);
    ASSERT_TRUE(merged.ok()) << "t=" << t;
    EXPECT_EQ(initial->NumClusters() - merged->NumClusters(), stats.merges)
        << "t=" << t;
    EXPECT_EQ(stats.candidate_checks, stats.pruned_checks + stats.exact_checks)
        << "t=" << t;
  }
}

// The hierarchical engine with bound pruning delivers the same guarantees
// as the sequential loop, whether the subtrees run on a pool or inline
// (pool == nullptr), and the partition is identical in both cases: the
// subtree layout is a function of the data, never of the executor.
TEST(MergeTest, HierarchicalMatchesSequentialGuarantees) {
  Dataset data = MakeUniformDataset(600, 2, 11);
  QiSpace space(data);
  EmdCalculator emd(data);
  auto initial = Mdav(space, 3);
  ASSERT_TRUE(initial.ok());
  const double t = 0.08;

  auto sequential = MergeUntilTClose(space, emd, t, *initial);
  ASSERT_TRUE(sequential.ok());

  MergeOptions options;
  options.strategy = MergeStrategy::kHierarchical;
  ThreadPool pool(4);
  options.pool = &pool;
  MergeStats pooled_stats;
  auto pooled = MergeUntilTCloseWith(space, emd, t, *initial, options,
                                     &pooled_stats);
  ASSERT_TRUE(pooled.ok());

  options.pool = nullptr;  // inline subtree execution
  MergeStats inline_stats;
  auto inlined = MergeUntilTCloseWith(space, emd, t, *initial, options,
                                      &inline_stats);
  ASSERT_TRUE(inlined.ok());

  EXPECT_EQ(pooled->clusters, inlined->clusters);
  EXPECT_EQ(pooled_stats.merges, inline_stats.merges);
  EXPECT_EQ(pooled_stats.num_subtrees, inline_stats.num_subtrees);
  EXPECT_EQ(pooled_stats.subtree_merges + pooled_stats.tail_merges,
            pooled_stats.merges);
  EXPECT_EQ(pooled_stats.candidate_checks,
            pooled_stats.pruned_checks + pooled_stats.exact_checks);

  // Same guarantee, independently of which engine produced the partition.
  EXPECT_LE(MaxClusterEmd(emd, *sequential), t + 1e-12);
  EXPECT_LE(MaxClusterEmd(emd, *pooled), t + 1e-12);
  EXPECT_TRUE(
      ValidatePartition(*pooled, data.NumRecords(), /*min_size=*/1).ok());
}

// ------------------------------------------- Algorithm 2 (k-anon-first)

TEST(KAnonFirstTest, PartitionIsKAnonymousEvenWithoutMerge) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (size_t k : {2u, 5u, 15u}) {
    auto partition = KAnonFirstPartition(space, emd, k, 0.1);
    ASSERT_TRUE(partition.ok());
    EXPECT_TRUE(ValidatePartition(*partition, data.NumRecords(), k).ok())
        << "k=" << k;
  }
}

TEST(KAnonFirstTest, FullAlgorithmSatisfiesT) {
  Dataset data = MakeHcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.05, 0.15, 0.25}) {
    KAnonFirstStats stats;
    auto partition = KAnonFirstTCloseness(space, emd, 4, t, {}, &stats);
    ASSERT_TRUE(partition.ok());
    EXPECT_LE(MaxClusterEmd(emd, *partition), t + 1e-12) << "t=" << t;
  }
}

TEST(KAnonFirstTest, SwapsReduceClusterEmd) {
  // With swaps enabled, clusters need fewer/smaller merges than without:
  // the refined partition's max EMD must not be worse.
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  KAnonFirstOptions with_swaps;
  KAnonFirstOptions without_swaps;
  without_swaps.enable_swaps = false;
  auto refined = KAnonFirstPartition(space, emd, 5, 0.08, with_swaps);
  auto plain = KAnonFirstPartition(space, emd, 5, 0.08, without_swaps);
  ASSERT_TRUE(refined.ok() && plain.ok());
  EXPECT_LE(MaxClusterEmd(emd, *refined), MaxClusterEmd(emd, *plain) + 1e-12);
}

TEST(KAnonFirstTest, StatsCountSwaps) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  KAnonFirstStats stats;
  auto partition = KAnonFirstPartition(space, emd, 5, 0.02, {}, &stats);
  ASSERT_TRUE(partition.ok());
  EXPECT_GT(stats.swap_candidates, 0u);
  EXPECT_GT(stats.swaps, 0u);
  EXPECT_GE(stats.swap_candidates, stats.swaps);
}

TEST(KAnonFirstTest, LooseTRequiresNoSwaps) {
  Dataset data = MakeUniformDataset(100, 2, 5);
  QiSpace space(data);
  EmdCalculator emd(data);
  KAnonFirstStats stats;
  auto partition = KAnonFirstPartition(space, emd, 2, 1.0, {}, &stats);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(stats.swaps, 0u);
}

TEST(KAnonFirstTest, RejectsInvalidArguments) {
  Dataset data = MakeUniformDataset(20, 2, 3);
  QiSpace space(data);
  EmdCalculator emd(data);
  EXPECT_FALSE(KAnonFirstPartition(space, emd, 0, 0.1).ok());
  EXPECT_FALSE(KAnonFirstPartition(space, emd, 21, 0.1).ok());
  EXPECT_FALSE(KAnonFirstPartition(space, emd, 2, -0.1).ok());
}

// ----------------------------------------- Algorithm 3 (t-close-first)

TEST(TCloseFirstTest, EffectiveKMatchesAnalyticFormula) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  const size_t n = data.NumRecords();
  for (double t : {0.01, 0.05, 0.13, 0.25}) {
    TCloseFirstStats stats;
    auto partition = TCloseFirstTCloseness(space, emd, 2, t, &stats);
    ASSERT_TRUE(partition.ok());
    size_t expected =
        AdjustClusterSizeForRemainder(n, RequiredClusterSize(n, 2, t));
    EXPECT_EQ(stats.effective_k, expected) << "t=" << t;
    EXPECT_EQ(partition->MinClusterSize(), expected);
  }
}

TEST(TCloseFirstTest, PerfectlyBalancedWhenKStarDividesN) {
  // Paper Table 3: minimum == average for (almost) every cell because
  // 1080 is divisible by the k* values the grid produces.
  Dataset data = MakeHcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (size_t k : {2u, 5u, 10u, 15u, 20u}) {
    for (double t : {0.05, 0.13, 0.25}) {
      auto partition = TCloseFirstTCloseness(space, emd, k, t);
      ASSERT_TRUE(partition.ok());
      EXPECT_EQ(partition->MinClusterSize(), partition->MaxClusterSize())
          << "k=" << k << " t=" << t;
    }
  }
}

TEST(TCloseFirstTest, SatisfiesTByConstructionWhenDivisible) {
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.05, 0.09, 0.13, 0.17, 0.25}) {
    auto partition = TCloseFirstTCloseness(space, emd, 2, t);
    ASSERT_TRUE(partition.ok());
    EXPECT_LE(MaxClusterEmd(emd, *partition), t + 1e-12) << "t=" << t;
  }
}

TEST(TCloseFirstTest, NonDivisibleNStillMeetsT) {
  // n = 997 (prime): every k* leaves leftovers, exercising the Eq. (4)
  // path and the central-subset extras.
  Dataset data = MakeUniformDataset(997, 2, 23);
  QiSpace space(data);
  EmdCalculator emd(data);
  for (double t : {0.02, 0.05, 0.11, 0.2}) {
    auto partition = TCloseFirstTCloseness(space, emd, 3, t);
    ASSERT_TRUE(partition.ok());
    EXPECT_TRUE(ValidatePartition(*partition, 997, 3).ok());
    // With extras the Prop. 2 bound is approximate (paper Sec. 7 uses it
    // anyway); allow the one-extra-record slack.
    EXPECT_LE(MaxClusterEmd(emd, *partition), t * 1.25 + 1e-9) << "t=" << t;
  }
}

TEST(TCloseFirstTest, ClusterSizesAreKStarOrKStarPlusOne) {
  Dataset data = MakeUniformDataset(997, 2, 29);
  QiSpace space(data);
  EmdCalculator emd(data);
  TCloseFirstStats stats;
  auto partition = TCloseFirstTCloseness(space, emd, 4, 0.06, &stats);
  ASSERT_TRUE(partition.ok());
  for (const Cluster& cluster : partition->clusters) {
    EXPECT_GE(cluster.size(), stats.effective_k);
    EXPECT_LE(cluster.size(), stats.effective_k + 1);
  }
}

TEST(TCloseFirstTest, TZeroCollapsesToOneCluster) {
  Dataset data = MakeUniformDataset(50, 2, 31);
  QiSpace space(data);
  EmdCalculator emd(data);
  auto partition = TCloseFirstTCloseness(space, emd, 2, 0.0);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->NumClusters(), 1u);
}

TEST(TCloseFirstTest, EachClusterDrawsAcrossTheConfidentialRange) {
  // One record per subset means every cluster spans the confidential
  // distribution: its rank spread must cover most of [0, n).
  Dataset data = MakeMcdDataset();
  QiSpace space(data);
  EmdCalculator emd(data);
  auto partition = TCloseFirstTCloseness(space, emd, 10, 0.05);
  ASSERT_TRUE(partition.ok());
  const size_t n = data.NumRecords();
  for (const Cluster& cluster : partition->clusters) {
    uint32_t lo = n, hi = 0;
    for (size_t row : cluster) {
      lo = std::min(lo, emd.RankOf(row));
      hi = std::max(hi, emd.RankOf(row));
    }
    // First member within the first subset, last within the last.
    EXPECT_LT(lo, n / 10 + 1);
    EXPECT_GE(hi, n - n / 10 - 1);
  }
}

TEST(TCloseFirstTest, SubsetDrawPartitionHonorsExplicitBucketCount) {
  Dataset data = MakeUniformDataset(120, 2, 37);
  QiSpace space(data);
  EmdCalculator emd(data);
  auto partition = SubsetDrawPartition(space, emd, 8);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->MinClusterSize(), 8u);
  EXPECT_EQ(partition->NumClusters(), 15u);
}

TEST(TCloseFirstTest, RejectsInvalidArguments) {
  Dataset data = MakeUniformDataset(20, 2, 3);
  QiSpace space(data);
  EmdCalculator emd(data);
  EXPECT_FALSE(TCloseFirstTCloseness(space, emd, 0, 0.1).ok());
  EXPECT_FALSE(TCloseFirstTCloseness(space, emd, 21, 0.1).ok());
  EXPECT_FALSE(TCloseFirstTCloseness(space, emd, 2, -1.0).ok());
  EXPECT_FALSE(SubsetDrawPartition(space, emd, 0).ok());
}

// -------------------------------------------------- Cross-algorithm sweep

struct SweepParam {
  size_t k;
  double t;
  bool highly_correlated;
};

class AlgorithmSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  static Dataset MakeData(bool highly_correlated) {
    CensusLikeOptions options;
    options.num_records = 540;  // divisible by the tested k values
    return highly_correlated ? MakeHcdDataset(options)
                             : MakeMcdDataset(options);
  }
};

TEST_P(AlgorithmSweepTest, AllThreeAlgorithmsMeetBothGuarantees) {
  const SweepParam& param = GetParam();
  Dataset data = MakeData(param.highly_correlated);
  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto result = RunAlgorithm(data, algorithm,
                               AlgorithmParams{.k = param.k, .t = param.t});
    ASSERT_TRUE(result.ok()) << algorithm;

    // The partition is a valid k-anonymous cover.
    EXPECT_TRUE(
        ValidatePartition(result->partition, data.NumRecords(), param.k).ok())
        << algorithm;

    // The released data set verifies independently.
    auto verified = CheckRelease(result->anonymized, param.k, param.t);
    ASSERT_TRUE(verified.ok());
    EXPECT_TRUE(verified->k_anonymous) << algorithm;
    EXPECT_TRUE(verified->t_close) << algorithm << " k=" << param.k
                                   << " t=" << param.t;

    // Report fields are consistent.
    EXPECT_EQ(result->min_cluster_size,
              result->partition.MinClusterSize());
    EXPECT_LE(result->max_cluster_emd, param.t + 1e-9);
    EXPECT_GE(result->normalized_sse, 0.0);
    EXPECT_LE(result->normalized_sse, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AlgorithmSweepTest,
    ::testing::Values(SweepParam{2, 0.05, false}, SweepParam{2, 0.05, true},
                      SweepParam{2, 0.15, false}, SweepParam{2, 0.15, true},
                      SweepParam{5, 0.1, false}, SweepParam{5, 0.1, true},
                      SweepParam{10, 0.2, false}, SweepParam{10, 0.2, true},
                      SweepParam{20, 0.25, false},
                      SweepParam{20, 0.25, true}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "k" + std::to_string(info.param.k) + "_t" +
             std::to_string(static_cast<int>(info.param.t * 100)) +
             (info.param.highly_correlated ? "_hcd" : "_mcd");
    });

// ------------------------------------------------- RunAlgorithm dispatch

TEST(AnonymizerTest, RejectsInvalidConfigurations) {
  Dataset data = MakeUniformDataset(20, 2, 3);
  EXPECT_FALSE(RunAlgorithm(data, "tclose_first", {.k = 0}).ok());
  EXPECT_FALSE(RunAlgorithm(data, "tclose_first", {.k = 21}).ok());
  EXPECT_FALSE(
      RunAlgorithm(data, "tclose_first", {.k = 2, .t = -0.1}).ok());
  // Every t >= 1 already disables the constraint (EMD <= 1), so a
  // non-finite t is never meaningful; NaN would also slip past `t < 0`.
  for (double t : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    auto result = RunAlgorithm(data, "merge", {.k = 2, .t = t});
    ASSERT_FALSE(result.ok()) << "t=" << t;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("finite"), std::string::npos);
  }
}

TEST(AnonymizerTest, RejectsDatasetsWithoutRoles) {
  auto no_conf = DatasetFromColumns(
      {"a", "b"}, {{1, 2, 3}, {4, 5, 6}},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kOther});
  ASSERT_TRUE(no_conf.ok());
  EXPECT_FALSE(RunAlgorithm(*no_conf, "tclose_first", {}).ok());
  auto no_qi = DatasetFromColumns(
      {"a", "b"}, {{1, 2, 3}, {4, 5, 6}},
      {AttributeRole::kOther, AttributeRole::kConfidential});
  ASSERT_TRUE(no_qi.ok());
  EXPECT_FALSE(RunAlgorithm(*no_qi, "tclose_first", {}).ok());
}

TEST(AnonymizerTest, ConfidentialColumnIsNeverPerturbed) {
  Dataset data = MakeMcdDataset();
  for (const char* algorithm : {"merge", "kanon_first", "tclose_first"}) {
    auto result = RunAlgorithm(data, algorithm, {.k = 5, .t = 0.1});
    ASSERT_TRUE(result.ok());
    size_t conf = data.schema().ConfidentialIndices()[0];
    EXPECT_EQ(result->anonymized.ColumnAsDouble(conf),
              data.ColumnAsDouble(conf))
        << algorithm;
  }
}

TEST(AnonymizerTest, SecondConfidentialAttributeSelectable) {
  // Census-like data: the role, not the column position, picks the
  // confidential attribute. FICA is the last column and FEDTAX before it
  // stays a non-confidential attribute.
  Dataset data = MakeCensusLike();
  auto schema = data.schema().WithRole("FICA", AttributeRole::kConfidential);
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE(data.ReplaceSchema(std::move(schema).value()).ok());

  auto result = RunAlgorithm(data, "tclose_first", {.k = 4, .t = 0.1});
  ASSERT_TRUE(result.ok());
  auto verified = CheckRelease(result->anonymized, 4, 0.1);
  ASSERT_TRUE(verified.ok());
  EXPECT_LE(verified->max_class_emd, 0.1 + 1e-9);
  size_t fica = data.schema().ConfidentialIndices()[0];
  EXPECT_EQ(data.schema().at(fica).name, "FICA");
}

TEST(AnonymizerTest, AlgorithmNamesAreStable) {
  // The paper's three algorithms under their registry names, plus the
  // historic CLI spellings.
  const AlgorithmRegistry& registry = AlgorithmRegistry::BuiltIns();
  for (const char* name :
       {"merge", "kanon_first", "tclose_first", "kanon", "tclose"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

// The registry entries carry no settings of their own: each one is the
// direct algorithm call with default options. Tests and benches that run
// an algorithm by name rely on this.
TEST(AnonymizerTest, RegistryMatchesDirectCallsWithDefaultOptions) {
  for (const Dataset& data : {MakeMcdDataset(), MakeHcdDataset()}) {
    QiSpace space(data);
    EmdCalculator emd(data);
    for (auto [k, t] : {std::pair<size_t, double>{2, 0.05}, {5, 0.2}}) {
      const AlgorithmParams params{.k = k, .t = t};
      MicroaggOptions vmdav;
      vmdav.method = MicroaggMethod::kVMdav;
      vmdav.vmdav.gamma = 0.2;
      const std::pair<const char*, Result<Partition>> direct[] = {
          {"merge", MergeTCloseness(space, emd, k, t, MicroaggOptions{})},
          {"merge_vmdav", MergeTCloseness(space, emd, k, t, vmdav)},
          {"kanon_first",
           KAnonFirstTCloseness(space, emd, k, t,
                                KAnonFirstOptions{.enable_swaps = true})},
          {"tclose_first", TCloseFirstTCloseness(space, emd, k, t)},
      };
      for (const auto& [name, partition] : direct) {
        ASSERT_TRUE(partition.ok()) << name;
        auto result = RunAlgorithm(data, name, params);
        ASSERT_TRUE(result.ok()) << name;
        EXPECT_EQ(result->partition.clusters, partition->clusters)
            << name << " k=" << k << " t=" << t;
      }
    }
  }
}

TEST(AnonymizerTest, Paper_TClosenessFirstHasBestUtilityAtSmallT) {
  // Fig. 6's headline: the earlier t-closeness enters cluster formation,
  // the better the utility. At k=2 and strict t the ordering is
  // SSE(Alg3) <= SSE(Alg2) and SSE(Alg3) <= SSE(Alg1).
  Dataset data = MakeMcdDataset();
  const AlgorithmParams params{.k = 2, .t = 0.05};
  auto alg1 = RunAlgorithm(data, "merge", params);
  auto alg2 = RunAlgorithm(data, "kanon_first", params);
  auto alg3 = RunAlgorithm(data, "tclose_first", params);
  ASSERT_TRUE(alg1.ok() && alg2.ok() && alg3.ok());
  EXPECT_LE(alg3->normalized_sse, alg2->normalized_sse);
  EXPECT_LE(alg3->normalized_sse, alg1->normalized_sse);
}

TEST(AnonymizerTest, Paper_Table3SizesIndependentOfCorrelation) {
  // Table 3: Algorithm 3's cluster sizes are identical for MCD and HCD.
  for (double t : {0.05, 0.13, 0.25}) {
    const AlgorithmParams params{.k = 2, .t = t};
    auto mcd = RunAlgorithm(MakeMcdDataset(), "tclose_first", params);
    auto hcd = RunAlgorithm(MakeHcdDataset(), "tclose_first", params);
    ASSERT_TRUE(mcd.ok() && hcd.ok());
    EXPECT_EQ(mcd->min_cluster_size, hcd->min_cluster_size);
    EXPECT_EQ(mcd->max_cluster_size, hcd->max_cluster_size);
  }
}

// ------------------------------------------- Ordinal confidential attribute

TEST(OrdinalConfidentialTest, AnonymizeHandlesOrdinalConfidential) {
  // Future-work item (iii): numeric QIs with an ordinal (rankable)
  // confidential attribute flow through the full pipeline; EMD operates
  // on the category ranks.
  Schema schema({
      Attribute{"age", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"income", AttributeType::kNumeric,
                AttributeRole::kQuasiIdentifier, {}},
      Attribute{"severity", AttributeType::kOrdinal,
                AttributeRole::kConfidential,
                {"none", "mild", "moderate", "severe", "critical"}},
  });
  Dataset data(schema);
  Rng rng(33);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(data.Append({Value::Numeric(20 + rng.NextDouble() * 60),
                             Value::Numeric(rng.NextDouble() * 1e5),
                             Value::Categorical(static_cast<int32_t>(
                                 rng.NextBounded(5)))})
                    .ok());
  }
  auto result = RunAlgorithm(data, "tclose_first", {.k = 4, .t = 0.1});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->max_cluster_emd, 0.1 + 1e-9);
  auto verified = CheckRelease(result->anonymized, 4, 0.1);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified->t_close);
  // Ordinal column released unchanged.
  EXPECT_EQ(result->anonymized.ColumnAsDouble(2), data.ColumnAsDouble(2));
}

}  // namespace
}  // namespace tcm
