// Million-row out-of-core cases, registered with ctest under the `slow`
// label (and only when TCM_SLOW_TESTS=ON — excluded from the tier-1
// default run; CI runs them in a dedicated job with `ctest -L slow`).
//
// This is the acceptance case for the streaming layer: a 1,000,000-row
// generated stream must complete end to end with resident input rows
// bounded by max_resident_rows, and every released window must
// re-verify k-anonymous and t-close.

#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "data/record_source.h"

namespace tcm {
namespace {

TEST(StreamingSlowTest, MillionRowStreamStaysWithinResidentBudget) {
  constexpr size_t kRows = 1000000;
  constexpr size_t kBudget = 100000;
  auto source = MakeUniformSource(kRows, 3, 2016);
  JobSpec spec;
  spec.algorithm.name = "merge_chunked";
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.2;
  spec.algorithm.seed = 2016;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.threads = 4;
  spec.execution.shard_size = 4096;
  spec.execution.max_resident_rows = kBudget;
  spec.verify = true;

  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows, kRows);
  EXPECT_LE(report->peak_resident_rows, kBudget);
  EXPECT_GE(report->num_windows, kRows / kBudget);
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  for (const StreamingWindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
    EXPECT_LE(window.rows, kBudget);
    EXPECT_GE(window.min_cluster_size, spec.algorithm.k);
  }
}

TEST(StreamingSlowTest, MillionRowStreamIsThreadInvariant) {
  // Spot-check the determinism contract at scale: the per-window
  // cluster structure (counts and extreme sizes) must not depend on the
  // thread count. (Byte-level identity is pinned on smaller streams.)
  std::vector<StreamingWindowSummary> reference;
  for (size_t threads : {1u, 8u}) {
    auto source = MakeUniformSource(500000, 2, 7);
    JobSpec spec;
    spec.algorithm.name = "merge_chunked";
    spec.algorithm.k = 5;
    spec.algorithm.t = 0.25;
    spec.algorithm.seed = 7;
    spec.execution.mode = ExecutionMode::kStreaming;
    spec.execution.threads = threads;
    spec.execution.shard_size = 4096;
    spec.execution.max_resident_rows = 120000;
    auto report = RunJob(source.get(), spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (threads == 1u) {
      reference = report->windows;
      continue;
    }
    ASSERT_EQ(report->windows.size(), reference.size());
    for (size_t w = 0; w < reference.size(); ++w) {
      EXPECT_EQ(report->windows[w].rows, reference[w].rows) << w;
      EXPECT_EQ(report->windows[w].clusters, reference[w].clusters) << w;
      EXPECT_EQ(report->windows[w].min_cluster_size,
                reference[w].min_cluster_size)
          << w;
      EXPECT_EQ(report->windows[w].max_cluster_size,
                reference[w].max_cluster_size)
          << w;
    }
  }
}

}  // namespace
}  // namespace tcm
