// Tests for the parallel anonymization engine: thread pool, algorithm
// registry and sharded pipeline runner. The load-bearing property is
// determinism — the release must be byte-identical for any thread count.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "colstore/convert.h"
#include "data/csv.h"
#include "data/generator.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "microagg/partition.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> sum{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&sum, &done, i]() {
      sum.fetch_add(i * i);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(sum.load(), 328350);  // sum of squares 0..99
}

TEST(ThreadPoolTest, SingleThreadExecutesInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::latch done(20);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&order, &done, i]() {
      order.push_back(i);
      done.count_down();
    });
  }
  done.wait();
  std::vector<int> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ShutdownFinishesQueuedTasksThenRejectsNewOnes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&ran]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 32);  // graceful: queued work still ran

  // After shutdown a submission is rejected: the task never runs.
  std::atomic<bool> leaked{false};
  pool.Submit([&leaked]() { leaked = true; });
  EXPECT_FALSE(leaked.load());

  EXPECT_EQ(pool.num_threads(), 2u);  // stable for reporting
  pool.Shutdown();  // idempotent
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

// Regression: Shutdown used to iterate workers_ unlocked, so two
// concurrent callers would both join the same std::thread (terminate)
// or race on the vector. Workers are now claimed under the pool mutex —
// exactly one caller joins each thread, the rest fall through.
TEST(ThreadPoolTest, ConcurrentShutdownCallsAreSafe) {
  for (int round = 0; round < 16; ++round) {
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran]() {
        std::this_thread::yield();
        ++ran;
      });
    }
    std::vector<std::thread> closers;
    closers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      closers.emplace_back([&pool]() { pool.Shutdown(); });
    }
    for (std::thread& closer : closers) closer.join();
    EXPECT_EQ(ran.load(), 16);  // graceful even when shutdowns race
  }
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, UnknownNameListsKnownAlgorithms) {
  auto fn = AlgorithmRegistry::BuiltIns().Find("definitely_not_there");
  ASSERT_FALSE(fn.ok());
  EXPECT_EQ(fn.status().code(), StatusCode::kNotFound);
  EXPECT_NE(fn.status().message().find("known algorithms"),
            std::string::npos);
  EXPECT_NE(fn.status().message().find("tclose_first"), std::string::npos);
}

TEST(RegistryTest, BuiltInsContainEveryAnonymizerInTheTree) {
  const AlgorithmRegistry& registry = AlgorithmRegistry::BuiltIns();
  for (const char* name :
       {"merge", "merge_vmdav", "merge_projection", "merge_chunked",
        "kanon_first", "tclose_first", "mondrian", "sabre", "kanon",
        "tclose"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
    EXPECT_FALSE(registry.Description(name).empty()) << name;
  }
}

TEST(RegistryTest, DuplicateRegistrationFails) {
  AlgorithmRegistry registry;
  auto fn = [](const Dataset&, const AlgorithmParams&) -> Result<Partition> {
    return Partition{};
  };
  ASSERT_TRUE(registry.Register("x", "first", fn).ok());
  auto status = registry.Register("x", "second", fn);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(registry.Register("", "unnamed", fn).ok());
}

// Factory round-trip: every registered algorithm must produce a valid,
// k-anonymous, t-close release through the shared RunAlgorithm driver.
TEST(RegistryTest, EveryBuiltinRoundTripsToAVerifiedRelease) {
  Dataset data = MakeUniformDataset(240, 3, 71);
  AlgorithmParams params;
  params.k = 4;
  params.t = 0.25;
  for (const std::string& name : AlgorithmRegistry::BuiltIns().Names()) {
    auto result = RunAlgorithm(data, name, params);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_TRUE(
        ValidatePartition(result->partition, data.NumRecords(), params.k)
            .ok())
        << name;
    auto verified = CheckRelease(result->anonymized, params.k, params.t);
    ASSERT_TRUE(verified.ok()) << name;
    EXPECT_TRUE(verified->k_anonymous) << name;
    EXPECT_TRUE(verified->t_close) << name;
    EXPECT_LE(result->max_cluster_emd, params.t + 1e-9) << name;
  }
}

TEST(RegistryTest, RunAlgorithmValidatesInputs) {
  Dataset data = MakeUniformDataset(50, 2, 73);
  AlgorithmParams params;
  params.k = 0;
  EXPECT_FALSE(RunAlgorithm(data, "merge", params).ok());
  params.k = 51;
  EXPECT_FALSE(RunAlgorithm(data, "merge", params).ok());
  params.k = 3;
  params.t = -0.1;
  EXPECT_FALSE(RunAlgorithm(data, "merge", params).ok());
}

// --------------------------------------------------------------- ShardPlan

TEST(ShardPlanTest, CoversEveryRowExactlyOnce) {
  ShardPlan plan = MakeShardPlan(1000, 128, 5);
  EXPECT_GT(plan.NumShards(), 1u);
  std::set<size_t> seen;
  for (const auto& shard : plan.shards) {
    EXPECT_GE(shard.size(), 15u);  // 3k floor
    for (size_t row : shard) {
      EXPECT_TRUE(seen.insert(row).second) << "row " << row << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.rbegin(), 999u);
}

TEST(ShardPlanTest, IsAPureFunctionOfItsArguments) {
  ShardPlan a = MakeShardPlan(5000, 512, 3);
  ShardPlan b = MakeShardPlan(5000, 512, 3);
  EXPECT_EQ(a.shards, b.shards);
}

TEST(ShardPlanTest, DegeneratesToOneShard) {
  EXPECT_EQ(MakeShardPlan(100, 0, 5).NumShards(), 1u);
  EXPECT_EQ(MakeShardPlan(100, 100, 5).NumShards(), 1u);
  EXPECT_EQ(MakeShardPlan(100, 1000, 5).NumShards(), 1u);
  // Tiny shards are clamped so each keeps >= 3k rows.
  ShardPlan tiny = MakeShardPlan(100, 2, 10);
  for (const auto& shard : tiny.shards) EXPECT_GE(shard.size(), 30u);
}

// Round-to-nearest shard count: just under a power-of-two boundary must
// split, not fall back to one oversized shard (8191 @ 4096 was the
// motivating regression — it ran as a single 8191-row shard).
TEST(ShardPlanTest, RoundsShardCountToNearest) {
  EXPECT_EQ(MakeShardPlan(8191, 4096, 5).NumShards(), 2u);
  EXPECT_EQ(MakeShardPlan(8193, 4096, 5).NumShards(), 2u);
  // Below the midpoint the single shard is genuinely closer to target.
  EXPECT_EQ(MakeShardPlan(6000, 4096, 5).NumShards(), 1u);
  // At the midpoint and above, round up.
  EXPECT_EQ(MakeShardPlan(6144, 4096, 5).NumShards(), 2u);
  // Rounding never violates the 3k-per-shard floor.
  ShardPlan clamped = MakeShardPlan(70, 32, 10);
  for (const auto& shard : clamped.shards) EXPECT_GE(shard.size(), 30u);
}

// A fan-out's caller runs only its own indices. With the single worker
// parked and a foreign task queued ahead of the helper, ParallelFor must
// finish every index on the calling thread and leave the foreign task
// queued, not run it there while it waits.
TEST(ThreadPoolTest, ParallelForCallerNeverRunsForeignTasks) {
  ThreadPool pool(1);
  // Park the single worker; wait until it actually holds the gate task.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> parked{false};
  pool.Submit([gate, &parked]() {
    parked.store(true);
    gate.wait();
  });
  while (!parked.load()) std::this_thread::yield();
  std::atomic<bool> foreign_ran{false};
  pool.Submit([&foreign_ran]() { foreign_ran.store(true); });

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  ParallelFor(&pool, ran_on.size(),
              [&](size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_FALSE(foreign_ran.load());

  release.set_value();
  pool.Shutdown();  // finishes the queued foreign task first
  EXPECT_TRUE(foreign_ran.load());
}

// Every index runs exactly once, nested fan-outs on the pool's own
// threads finish, each call's caller runs its index 0, and the lowest
// throwing index's exception surfaces only after all indices are done.
TEST(ThreadPoolTest, ParallelForRunsEachIndexOnceAndRethrowsLowest) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> runs(64);
  std::atomic<int> index0_not_on_caller{0};
  ParallelFor(&pool, 8, [&](size_t outer) {
    const std::thread::id caller = std::this_thread::get_id();
    ParallelFor(&pool, 8, [&](size_t inner) {
      runs[outer * 8 + inner]++;
      if (inner == 0 && std::this_thread::get_id() != caller) {
        ++index0_not_on_caller;
      }
    });
  });
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(index0_not_on_caller.load(), 0);

  std::atomic<int> finished{0};
  try {
    ParallelFor(&pool, 16, [&](size_t i) {
      finished.fetch_add(1);
      if (i == 5 || i == 11) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "5");
  }
  EXPECT_EQ(finished.load(), 16);
}

// ---------------------------------------------------------------- Sharded

TEST(ShardedTest, SingleShardMatchesDirectRun) {
  Dataset data = MakeMcdDataset();
  ShardedAnonymizeOptions options;
  options.algorithm = "tclose_first";
  options.params.k = 5;
  options.params.t = 0.15;
  options.shard_size = 0;  // one shard
  ThreadPool pool(2);
  auto sharded = ShardedAnonymize(data, options, &pool);
  auto direct = RunAlgorithm(data, "tclose_first", options.params);
  ASSERT_TRUE(sharded.ok() && direct.ok());
  EXPECT_EQ(WriteCsvString(sharded->anonymized),
            WriteCsvString(direct->anonymized));
}

// The determinism contract (acceptance criterion): same seed + same spec
// must produce byte-identical releases at 1, 4 and 8 threads.
TEST(ShardedTest, ReleaseIsByteIdenticalAcrossThreadCounts) {
  Dataset data = MakeUniformDataset(2000, 3, 77);
  for (const char* algorithm : {"tclose_first", "merge"}) {
    ShardedAnonymizeOptions options;
    options.algorithm = algorithm;
    options.params.k = 5;
    options.params.t = 0.2;
    options.params.seed = 99;
    options.shard_size = 256;

    std::string reference;
    size_t reference_shards = 0;
    for (size_t threads : {1u, 4u, 8u}) {
      ThreadPool pool(threads);
      ShardedAnonymizeStats stats;
      auto result = ShardedAnonymize(data, options, &pool, &stats);
      ASSERT_TRUE(result.ok())
          << algorithm << " threads=" << threads << ": "
          << result.status().ToString();
      EXPECT_GT(stats.num_shards, 1u);
      std::string release = WriteCsvString(result->anonymized);
      if (reference.empty()) {
        reference = release;
        reference_shards = stats.num_shards;
        // The sharded release must still satisfy both guarantees
        // globally, not just per shard.
        auto verified = CheckRelease(result->anonymized, options.params.k,
                                     options.params.t);
        ASSERT_TRUE(verified.ok());
        EXPECT_TRUE(verified->k_anonymous) << algorithm;
        EXPECT_TRUE(verified->t_close) << algorithm;
      } else {
        EXPECT_EQ(release, reference)
            << algorithm << ": threads=" << threads
            << " diverged from threads=1";
        EXPECT_EQ(stats.num_shards, reference_shards);
      }
    }
  }
}

TEST(ShardedTest, RepeatedRunsAreIdentical) {
  Dataset data = MakeUniformDataset(1200, 2, 79);
  ShardedAnonymizeOptions options;
  options.params.k = 4;
  options.params.t = 0.2;
  options.shard_size = 200;
  ThreadPool pool(4);
  auto first = ShardedAnonymize(data, options, &pool);
  auto second = ShardedAnonymize(data, options, &pool);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(WriteCsvString(first->anonymized),
            WriteCsvString(second->anonymized));
}

TEST(ShardedTest, NullPoolRunsSeriallyWithSameResult) {
  Dataset data = MakeUniformDataset(800, 2, 81);
  ShardedAnonymizeOptions options;
  options.params.k = 4;
  options.params.t = 0.2;
  options.shard_size = 150;
  ThreadPool pool(4);
  auto pooled = ShardedAnonymize(data, options, &pool);
  auto serial = ShardedAnonymize(data, options, nullptr);
  ASSERT_TRUE(pooled.ok() && serial.ok());
  EXPECT_EQ(WriteCsvString(pooled->anonymized),
            WriteCsvString(serial->anonymized));
}

TEST(ShardedTest, MultiShardPathValidatesRolesAndParams) {
  // A dataset with no confidential attribute must fail with a Status on
  // the multi-shard path too (not abort inside a pool worker), and a
  // negative t must be rejected before any shard runs.
  Dataset data = MakeUniformDataset(800, 2, 95);
  auto no_conf = DatasetFromColumns(
      {"QI0", "QI1"}, {data.ColumnAsDouble(0), data.ColumnAsDouble(1)},
      {AttributeRole::kQuasiIdentifier, AttributeRole::kQuasiIdentifier});
  ASSERT_TRUE(no_conf.ok()) << no_conf.status().ToString();
  ShardedAnonymizeOptions options;
  options.params.k = 4;
  options.params.t = 0.2;
  options.shard_size = 150;
  auto result = ShardedAnonymize(*no_conf, options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  options.params.t = -0.5;
  result = ShardedAnonymize(data, options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedTest, ReportsFinalMergesWithoutStatsOutParam) {
  Dataset data = MakeUniformDataset(900, 2, 97);
  ShardedAnonymizeOptions options;
  options.params.k = 4;
  options.params.t = 0.2;
  options.shard_size = 150;
  ThreadPool pool(2);
  ShardedAnonymizeStats stats;
  auto with_stats = ShardedAnonymize(data, options, &pool, &stats);
  auto without = ShardedAnonymize(data, options, &pool, nullptr);
  ASSERT_TRUE(with_stats.ok() && without.ok());
  // The ledger is an observer: asking for it never changes the release.
  EXPECT_EQ(without->partition.clusters, with_stats->partition.clusters);
  EXPECT_EQ(without->anonymized.ColumnAsDouble(0),
            with_stats->anonymized.ColumnAsDouble(0));
}

TEST(ShardedTest, UnknownAlgorithmFailsBeforeAnyWork) {
  Dataset data = MakeUniformDataset(100, 2, 83);
  ShardedAnonymizeOptions options;
  options.algorithm = "bogus";
  auto result = ShardedAnonymize(data, options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Pipeline
// In-memory jobs through the Job API, which runs each as one window.

TEST(PipelineTest, EndToEndFromCsvWithRolesByName) {
  std::string dir = ::testing::TempDir();
  std::string input = dir + "/engine_pipeline_in.csv";
  std::string output = dir + "/engine_pipeline_out.csv";
  Dataset data = MakeUniformDataset(600, 3, 85);
  // Strip the roles: the pipeline must reassign them by column name.
  ASSERT_TRUE(WriteCsv(data, input).ok());

  JobSpec spec;
  spec.input.path = input;
  spec.output.release_path = output;
  spec.roles.quasi_identifiers = {"QI1", "QI2"};
  spec.roles.confidential = "CONF";
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.2;
  spec.execution.threads = 2;
  spec.execution.shard_size = 150;
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  EXPECT_GT(report->stats.num_shards, 1u);
  EXPECT_EQ(report->threads, 2u);
  EXPECT_GE(report->anonymize_seconds, 0.0);

  auto released = ReadTable(output);
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(released->num_rows(), 600u);
  std::remove(input.c_str());
  std::remove(output.c_str());
}

TEST(PipelineTest, UnknownColumnFailsWithAvailableColumns) {
  Dataset data = MakeUniformDataset(100, 2, 87);
  JobSpec spec;
  spec.roles.quasi_identifiers = {"QI1", "nope"};
  spec.roles.confidential = "CONF";
  auto report = RunJob(data, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("'nope'"), std::string::npos);
  EXPECT_NE(report.status().message().find("available columns"),
            std::string::npos);
}

TEST(PipelineTest, InMemoryRunKeepsExistingRoles) {
  Dataset data = MakeMcdDataset();  // roles already assigned
  JobSpec spec;
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.15;
  spec.execution.shard_size = 0;
  auto report = RunJob(data, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  EXPECT_EQ(report->stats.num_shards, 1u);
  // The single window is an implementation detail: no window fields.
  EXPECT_EQ(report->num_windows, 0u);
  EXPECT_EQ(report->peak_resident_rows, 0u);
  EXPECT_TRUE(report->windows.empty());
  ASSERT_TRUE(report->release.has_value());
  EXPECT_EQ(report->release->NumRecords(), data.NumRecords());
  EXPECT_DOUBLE_EQ(report->average_cluster_size,
                   static_cast<double>(report->rows) /
                       static_cast<double>(report->clusters));
}

TEST(PipelineTest, UndersizedInputKeepsItsErrorCode) {
  // Fewer rows than k (and than the runner's window floor) must still
  // fail the engine's own input validation, not the window budget.
  Dataset data = MakeUniformDataset(3, 2, 89);
  JobSpec spec;
  spec.algorithm.k = 5;
  auto report = RunJob(data, spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("k must be in [1, n]"),
            std::string::npos)
      << report.status().ToString();
}

}  // namespace
}  // namespace tcm
