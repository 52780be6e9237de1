// Property wall for the hierarchical parallel merge engine: every
// registry algorithm, at several thread counts, under both merge
// strategies, must deliver the SAME privacy verdicts as the sequential
// legacy loop — and each strategy must be deterministic (byte-identical
// releases) no matter how many threads execute it. The merge engine's
// bound-pruning ledger is also pinned: every candidate merge is either
// pruned by a closed-form EMD bound or evaluated exactly, never dropped.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generator.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "privacy/verify.h"
#include "tclose/merge.h"

namespace tcm {
namespace {

// The eight concrete registry algorithms (aliases excluded: they resolve
// to the same functions and would only duplicate runs).
const char* const kAlgorithms[] = {
    "merge",       "merge_vmdav", "merge_projection", "merge_chunked",
    "kanon_first", "tclose_first", "mondrian",         "sabre",
};

constexpr size_t kRows = 1200;
constexpr size_t kK = 5;
constexpr double kT = 0.12;

struct RunOutcome {
  std::string release_csv;
  ShardedAnonymizeStats stats;
};

// `shard_size` 0 is a one-shard plan: the algorithm runs on the whole
// data set, then the same repair pass as a many-shard plan.
RunOutcome RunWith(const Dataset& data, const std::string& algorithm,
                   MergeStrategy strategy, size_t threads,
                   size_t shard_size) {
  ShardedAnonymizeOptions options;
  options.algorithm = algorithm;
  options.params.k = kK;
  options.params.t = kT;
  options.params.seed = 77;
  options.shard_size = shard_size;
  options.merge_strategy = strategy;
  ThreadPool pool(threads);
  ShardedAnonymizeStats stats;
  auto result = ShardedAnonymize(data, options, &pool, &stats);
  EXPECT_TRUE(result.ok()) << algorithm << "/"
                           << MergeStrategyName(strategy) << "@" << threads
                           << " threads, shard_size " << shard_size << ": "
                           << result.status().ToString();
  RunOutcome outcome;
  outcome.stats = stats;
  if (result.ok()) {
    outcome.release_csv = WriteCsvString(result->anonymized);
    // Both guarantees hold for every algorithm x strategy x threads cell.
    auto verified = CheckRelease(result->anonymized, kK, kT);
    EXPECT_TRUE(verified.ok()) << verified.status().ToString();
    if (!verified.ok()) return outcome;
    EXPECT_TRUE(verified->k_anonymous)
        << algorithm << "/" << MergeStrategyName(strategy)
        << " lost k-anonymity";
    EXPECT_TRUE(verified->t_close)
        << algorithm << "/" << MergeStrategyName(strategy)
        << " lost t-closeness";
  }
  return outcome;
}

void CheckStatsLedger(const ShardedAnonymizeStats& stats,
                      MergeStrategy strategy, const std::string& label) {
  // Every candidate merge was either pruned by a bound or computed
  // exactly — the pruning fast path never silently drops work.
  EXPECT_EQ(stats.candidate_checks,
            stats.pruned_checks + stats.exact_checks)
      << label;
  // Subtree and tail merges partition the total merge count.
  EXPECT_EQ(stats.subtree_merges + stats.tail_merges, stats.final_merges)
      << label;
  if (strategy == MergeStrategy::kSequential) {
    EXPECT_EQ(stats.merge_subtrees, 0u) << label;
    EXPECT_EQ(stats.subtree_merges, 0u) << label;
    EXPECT_EQ(stats.pruned_checks, 0u) << label;
  }
}

class MergeStrategyMatrixTest
    : public ::testing::TestWithParam<const char*> {};

// The core property grid: for one algorithm, both strategies at 1/4/8
// threads, on a one-shard and a many-shard plan, produce k-anonymous +
// t-close releases; each (strategy, plan)'s bytes are identical across
// thread counts (scheduling never leaks into the release); and the merge
// ledger balances in every cell, the one-shard repair pass included.
TEST_P(MergeStrategyMatrixTest, VerdictsHoldAndThreadsDoNotChangeBytes) {
  const std::string algorithm = GetParam();
  Dataset data = MakeUniformDataset(kRows, 3, 404);

  for (size_t shard_size : {size_t{0}, size_t{150}}) {
    for (MergeStrategy strategy :
         {MergeStrategy::kSequential, MergeStrategy::kHierarchical}) {
      std::string reference;
      for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        const std::string label =
            algorithm + "/" + MergeStrategyName(strategy) + "@" +
            std::to_string(threads) + "/shard_size=" +
            std::to_string(shard_size);
        RunOutcome outcome =
            RunWith(data, algorithm, strategy, threads, shard_size);
        CheckStatsLedger(outcome.stats, strategy, label);
        EXPECT_EQ(outcome.stats.num_shards == 1, shard_size == 0) << label;
        EXPECT_GT(outcome.stats.candidate_checks, 0u) << label;
        if (reference.empty()) {
          reference = outcome.release_csv;
        } else {
          EXPECT_EQ(outcome.release_csv, reference)
              << label << ": release bytes depend on thread count";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MergeStrategyMatrixTest,
                         ::testing::ValuesIn(kAlgorithms));

// Repeated identical runs are bitwise-stable (no hidden global state in
// either engine), pinned on the algorithm with the busiest repair pass.
TEST(MergeStrategyDeterminismTest, RepeatedRunsAreByteIdentical) {
  Dataset data = MakeUniformDataset(kRows, 3, 404);
  for (MergeStrategy strategy :
       {MergeStrategy::kSequential, MergeStrategy::kHierarchical}) {
    RunOutcome first = RunWith(data, "merge_projection", strategy, 4, 150);
    RunOutcome second = RunWith(data, "merge_projection", strategy, 4, 150);
    EXPECT_EQ(first.release_csv, second.release_csv)
        << MergeStrategyName(strategy);
    EXPECT_EQ(first.stats.final_merges, second.stats.final_merges);
    EXPECT_EQ(first.stats.candidate_checks, second.stats.candidate_checks);
    EXPECT_EQ(first.stats.pruned_checks, second.stats.pruned_checks);
  }
}

// The hierarchical engine actually fans out on a repair-heavy workload:
// multiple subtrees run (their merges counted separately from the tail)
// and the EMD lower/upper bounds prune some exact evaluations. Guards
// the tentpole from silently degrading into the sequential path.
TEST(MergeStrategyDeterminismTest, HierarchicalFansOutAndPrunes) {
  Dataset data = MakeUniformDataset(2000, 3, 505);
  ShardedAnonymizeOptions options;
  options.algorithm = "merge_projection";
  options.params.k = kK;
  options.params.t = 0.1;
  options.params.seed = 99;
  options.shard_size = 250;
  options.merge_strategy = MergeStrategy::kHierarchical;
  ThreadPool pool(4);
  ShardedAnonymizeStats stats;
  auto result = ShardedAnonymize(data, options, &pool, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.merge_subtrees, 1u);
  EXPECT_GT(stats.pruned_checks, 0u);
  EXPECT_EQ(stats.candidate_checks,
            stats.pruned_checks + stats.exact_checks);
  EXPECT_EQ(stats.subtree_merges + stats.tail_merges, stats.final_merges);
  auto verified = CheckRelease(result->anonymized, kK, 0.1);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified->t_close);
}

}  // namespace
}  // namespace tcm
