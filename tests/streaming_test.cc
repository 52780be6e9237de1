// Tests for the out-of-core streaming execution layer: RecordSource and
// its implementations, the streaming CSV reader/writer, and streamed
// RunJob. The load-bearing properties: (1) streamed and in-memory jobs
// agree — a single-window streamed release is byte-identical to the
// in-memory job's release at any thread count; (2) resident input rows
// never exceed the max_resident_rows budget; (3) every released window
// independently re-verifies k-anonymous and t-close; (4) no pool task
// outlives RunJob.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "colstore/convert.h"
#include "common/json.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "data/record_source.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << "cannot open " << path;
  std::string bytes;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(file);
  return bytes;
}

// ---------------------------------------------------------- RecordSource

TEST(RecordSourceTest, DatasetSourceStreamsEveryRowInOrder) {
  Dataset data = MakeUniformDataset(257, 3, 11);
  DatasetSource source(&data);
  Dataset drained(source.schema());
  size_t batches = 0;
  while (true) {
    auto got = source.ReadInto(&drained, 100);
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    EXPECT_LE(*got, 100u);
    ++batches;
  }
  EXPECT_EQ(batches, 3u);  // 100 + 100 + 57
  EXPECT_TRUE(drained == data);
}

// --------------------------------------------------- StreamingCsvReader

TEST(StreamingCsvReaderTest, StreamsFileInBatchesIdenticalToReadCsv) {
  Dataset data = MakeAdultLike({.num_records = 300, .seed = 5});
  const std::string path = TempPath("stream_reader_adult.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());

  auto whole = ReadCsv(path, data.schema());
  ASSERT_TRUE(whole.ok());

  StreamingCsvOptions options;
  options.buffer_bytes = 64;  // force many feed chunks
  auto reader = StreamingCsvReader::Open(path, data.schema(), options);
  ASSERT_TRUE(reader.ok());
  Dataset streamed((*reader)->schema());
  size_t batches = 0;
  while (true) {
    auto got = (*reader)->ReadInto(&streamed, 64);
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    ++batches;
  }
  EXPECT_GE(batches, 5u);
  EXPECT_EQ((*reader)->rows_read(), 300u);
  EXPECT_TRUE(streamed == *whole);
  EXPECT_TRUE(streamed == data);
}

TEST(StreamingCsvReaderTest, OpenNumericInfersSchemaAndTakesRoles) {
  Dataset data = MakeUniformDataset(50, 2, 9);
  const std::string path = TempPath("stream_reader_numeric.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());

  auto reader = StreamingCsvReader::OpenNumeric(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->schema().size(), 3u);
  EXPECT_TRUE((*reader)->schema().QuasiIdentifierIndices().empty());

  auto roled = SchemaWithRoles((*reader)->schema(), {"QI0", "QI1"}, "CONF");
  ASSERT_TRUE(roled.ok());
  ASSERT_TRUE((*reader)->ReplaceSchema(std::move(roled).value()).ok());
  EXPECT_EQ((*reader)->schema().QuasiIdentifierIndices().size(), 2u);
  EXPECT_EQ((*reader)->schema().ConfidentialIndices().size(), 1u);

  // Roles don't change parsing: the rows still match.
  Dataset streamed((*reader)->schema());
  ASSERT_TRUE((*reader)->ReadInto(&streamed, 1000).ok());
  EXPECT_EQ(streamed.NumRecords(), 50u);
}

TEST(StreamingCsvReaderTest, ReplaceSchemaRejectsRenamesAndRetypes) {
  auto input = std::make_unique<std::istringstream>("a,b\n1,2\n");
  auto reader = StreamingCsvReader::FromStreamNumeric(std::move(input));
  ASSERT_TRUE(reader.ok());
  Schema renamed({Attribute{"a", AttributeType::kNumeric,
                            AttributeRole::kOther, {}},
                  Attribute{"c", AttributeType::kNumeric,
                            AttributeRole::kOther, {}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(renamed).ok());
  Schema retyped({Attribute{"a", AttributeType::kNumeric,
                            AttributeRole::kOther, {}},
                  Attribute{"b", AttributeType::kNominal,
                            AttributeRole::kOther, {"x"}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(retyped).ok());
  Schema wrong_size({Attribute{"a", AttributeType::kNumeric,
                               AttributeRole::kOther, {}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(wrong_size).ok());
}

TEST(StreamingCsvReaderTest, ReplaceSchemaRejectsCategoryChanges) {
  Schema schema({Attribute{"cat", AttributeType::kNominal,
                           AttributeRole::kOther, {"red", "green"}}});
  auto input = std::make_unique<std::istringstream>("cat\nred\n");
  auto reader = StreamingCsvReader::FromStream(std::move(input), schema);
  ASSERT_TRUE(reader.ok());
  // Reordered labels would silently remap codes mid-stream: rejected.
  Schema reordered({Attribute{"cat", AttributeType::kNominal,
                              AttributeRole::kOther, {"green", "red"}}});
  EXPECT_FALSE((*reader)->ReplaceSchema(reordered).ok());
  // Role-only change is fine.
  Schema roled({Attribute{"cat", AttributeType::kNominal,
                          AttributeRole::kConfidential, {"red", "green"}}});
  EXPECT_TRUE((*reader)->ReplaceSchema(roled).ok());
}

// --------------------------------------------------- StreamingCsvWriter

TEST(StreamingCsvWriterTest, WindowedWritesMatchWriteCsvBytes) {
  Dataset data = MakeAdultLike({.num_records = 123, .seed = 31});
  const std::string whole_path = TempPath("writer_whole.csv");
  const std::string windowed_path = TempPath("writer_windowed.csv");
  ASSERT_TRUE(WriteCsv(data, whole_path).ok());

  auto writer = StreamingCsvWriter::Open(windowed_path, data.schema());
  ASSERT_TRUE(writer.ok());
  DatasetSource source(&data);
  Dataset batch(data.schema());
  while (true) {
    batch.Clear();
    auto got = source.ReadInto(&batch, 40);
    ASSERT_TRUE(got.ok());
    if (*got == 0) break;
    ASSERT_TRUE((*writer)->WriteRows(batch).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->rows_written(), 123u);
  EXPECT_EQ(ReadFileBytes(windowed_path), ReadFileBytes(whole_path));
}

// ---------------------------------------------------- streamed RunJob

// A streaming job over a caller's record source (the source carries the
// roles, so the spec names none).
JobSpec StreamSpec(size_t max_resident_rows, size_t threads = 1) {
  JobSpec spec;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.25;
  spec.algorithm.seed = 7;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.threads = threads;
  spec.execution.shard_size = 256;
  spec.execution.max_resident_rows = max_resident_rows;
  return spec;
}

// The acceptance anchor: when the budget covers the whole stream, a
// streamed job releases the in-memory job's bytes and reports the same
// measurements — checked at two thread counts.
TEST(StreamingJobTest, SingleWindowByteIdenticalToInMemory) {
  constexpr size_t kRows = 1500;
  Dataset data = MakeUniformDataset(kRows, 3, 2016);
  const std::string input_path = TempPath("stream_identity_in.csv");
  ASSERT_TRUE(WriteCsv(data, input_path).ok());

  for (size_t threads : {1u, 4u}) {
    auto run = [&](ExecutionMode mode) {
      JobSpec spec;
      spec.input.path = input_path;
      spec.roles.quasi_identifiers = {"QI0", "QI1", "QI2"};
      spec.roles.confidential = "CONF";
      spec.algorithm.k = 4;
      spec.algorithm.t = 0.25;
      spec.algorithm.seed = 7;
      spec.execution.mode = mode;
      spec.execution.threads = threads;
      spec.execution.shard_size = 256;
      spec.execution.max_resident_rows = kRows + spec.algorithm.k;
      spec.output.release_path =
          TempPath(std::string("stream_identity_") + ExecutionModeName(mode) +
                   std::to_string(threads) + ".csv");
      return RunJob(spec);
    };
    auto mem = run(ExecutionMode::kInMemory);
    ASSERT_TRUE(mem.ok()) << mem.status().ToString();
    auto str = run(ExecutionMode::kStreaming);
    ASSERT_TRUE(str.ok()) << str.status().ToString();
    EXPECT_EQ(str->num_windows, 1u);
    EXPECT_TRUE(str->k_verified);
    EXPECT_TRUE(str->t_verified);

    EXPECT_EQ(ReadFileBytes(str->release_path),
              ReadFileBytes(mem->release_path))
        << "streamed release differs from in-memory release at threads="
        << threads;
    EXPECT_EQ(str->rows, mem->rows);
    EXPECT_EQ(str->clusters, mem->clusters);
    EXPECT_EQ(str->min_cluster_size, mem->min_cluster_size);
    EXPECT_EQ(str->max_cluster_size, mem->max_cluster_size);
    EXPECT_EQ(str->max_cluster_emd, mem->max_cluster_emd);
    EXPECT_EQ(str->normalized_sse, mem->normalized_sse);
    EXPECT_EQ(str->stats.num_shards, mem->stats.num_shards);
    EXPECT_EQ(str->stats.final_merges, mem->stats.final_merges);
    EXPECT_EQ(str->stats.merge_subtrees, mem->stats.merge_subtrees);
    EXPECT_EQ(str->stats.subtree_merges, mem->stats.subtree_merges);
    EXPECT_EQ(str->stats.tail_merges, mem->stats.tail_merges);
    EXPECT_EQ(str->stats.candidate_checks, mem->stats.candidate_checks);
    EXPECT_EQ(str->stats.pruned_checks, mem->stats.pruned_checks);
    EXPECT_EQ(str->stats.exact_checks, mem->stats.exact_checks);
  }
}

TEST(StreamingJobTest, MultiWindowRespectsResidentBudget) {
  constexpr size_t kRows = 3000;
  constexpr size_t kBudget = 700;
  auto source = MakeUniformSource(kRows, 3, 42);
  JobSpec spec = StreamSpec(kBudget, 2);
  const std::string out_path = TempPath("stream_multiwindow.csv");
  spec.output.release_path = out_path;

  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->num_windows, 4u);
  EXPECT_EQ(report->rows, kRows);
  EXPECT_LE(report->peak_resident_rows, kBudget);
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  size_t sum = 0;
  for (const StreamingWindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
    EXPECT_LE(window.rows, kBudget);
    sum += window.rows;
  }
  EXPECT_EQ(sum, kRows);

  // The concatenation of per-window k-anonymous releases is k-anonymous.
  auto table = ReadTable(out_path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Dataset release = table->ToDataset();
  EXPECT_EQ(release.NumRecords(), kRows);
  ASSERT_TRUE(AssignRoles(&release, {"QI0", "QI1", "QI2"}, "CONF").ok());
  auto verified = CheckRelease(release, spec.algorithm.k, 1.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified->k_anonymous);
}

TEST(StreamingJobTest, MultiWindowReleaseIsThreadInvariant) {
  std::string reference;
  for (size_t threads : {1u, 4u}) {
    auto source = MakeUniformSource(1700, 2, 13);
    JobSpec spec = StreamSpec(500, threads);
    const std::string out_path =
        TempPath("stream_invariant_" + std::to_string(threads) + ".csv");
    spec.output.release_path = out_path;
    auto report = RunJob(source.get(), spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->num_windows, 1u);
    std::string bytes = ReadFileBytes(out_path);
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference);
    }
  }
}

// Zeroes every "*_seconds" and the thread counts, and replaces
// release_path: what is left of a report must not depend on the pool.
JsonValue ThreadFreeReport(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const JsonValue::Member& member : value.members()) {
      const std::string& key = member.first;
      if ((key.size() > 8 &&
           key.compare(key.size() - 8, 8, "_seconds") == 0) ||
          key == "threads") {
        out.Set(key, 0);
      } else if (key == "release_path") {
        out.Set(key, "<release>");
      } else {
        out.Set(key, ThreadFreeReport(member.second));
      }
    }
    return out;
  }
  if (value.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (size_t i = 0; i < value.size(); ++i) {
      out.Append(ThreadFreeReport(value.at(i)));
    }
    return out;
  }
  return value;
}

// Every stage of a window that fans out on the pool — shard copies,
// merge init, aggregation and metrics, verify, CSV formatting — writes
// disjoint outputs, so release bytes and report are the same at any
// thread count. The overlapped windows hold 9,997 rows: several format
// chunks plus a partial one.
TEST(StreamingJobTest, ReleaseAndReportAreThreadCountInvariant) {
  constexpr size_t kRows = 24000;
  const std::string input_path = TempPath("stream_threads_in.csv");
  ASSERT_TRUE(WriteCsv(MakeUniformDataset(kRows, 3, 2016), input_path).ok());
  std::string reference_bytes;
  std::string reference_report;
  for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    JobSpec spec;
    spec.input.path = input_path;
    spec.roles.quasi_identifiers = {"QI0", "QI1", "QI2"};
    spec.roles.confidential = "CONF";
    spec.algorithm.name = "merge_projection";
    spec.algorithm.k = 5;
    spec.algorithm.t = 0.2;
    spec.execution.mode = ExecutionMode::kStreaming;
    spec.execution.threads = threads;
    spec.execution.max_resident_rows = 20000;
    spec.execution.merge_strategy = MergeStrategy::kHierarchical;
    spec.execution.overlap_io = true;
    spec.output.release_path =
        TempPath("stream_threads_" + std::to_string(threads) + ".csv");
    auto report = RunJob(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->num_windows, 3u);
    EXPECT_EQ(report->windows[0].rows, 9997u);
    EXPECT_NE(report->windows[0].rows % CsvRowWriter::kRowsPerChunk, 0u);
    EXPECT_GT(report->stats.merge_subtrees, 0u);
    const std::string bytes = ReadFileBytes(report->release_path);
    const std::string json = ThreadFreeReport(report->ToJson()).Write(2);
    if (threads == 1) {
      reference_bytes = bytes;
      reference_report = json;
    } else {
      EXPECT_EQ(bytes, reference_bytes) << threads << " threads";
      EXPECT_EQ(json, reference_report) << threads << " threads";
    }
  }
}

// Pipelined I/O: with overlap_io the reads of windows 2..N run on the
// pool while earlier windows are processed. The resident budget still
// holds (the window target is halved to leave room for the read-ahead),
// both guarantees verify, and the release stays byte-identical for any
// thread count — including one thread, where the "prefetch" is stolen
// back and run inline.
TEST(StreamingJobTest, OverlapIoStaysBoundedAndDeterministic) {
  constexpr size_t kRows = 3000;
  constexpr size_t kBudget = 700;
  std::string reference;
  for (size_t threads : {1u, 2u, 4u}) {
    auto source = MakeUniformSource(kRows, 3, 42);
    JobSpec spec = StreamSpec(kBudget, threads);
    spec.execution.overlap_io = true;
    const std::string out_path =
        TempPath("stream_overlap_" + std::to_string(threads) + ".csv");
    spec.output.release_path = out_path;
    auto report = RunJob(source.get(), spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rows, kRows);
    EXPECT_LE(report->peak_resident_rows, kBudget);
    EXPECT_GT(report->num_windows, 1u);
    EXPECT_GT(report->overlapped_reads, 0u);
    EXPECT_TRUE(report->k_verified);
    EXPECT_TRUE(report->t_verified);
    std::string bytes = ReadFileBytes(out_path);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
    }
  }

  // The serial path is untouched: overlap off reports no overlapped
  // reads (and the byte-pinning tests above cover its output).
  auto source = MakeUniformSource(kRows, 3, 42);
  auto report = RunJob(source.get(), StreamSpec(kBudget, 2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->overlapped_reads, 0u);
}

// Hierarchical repair inside windows composes with streaming: verdicts
// hold per window and the merge ledger balances across the whole run.
TEST(StreamingJobTest, HierarchicalMergeComposesWithWindows) {
  auto source = MakeUniformSource(2400, 3, 21);
  JobSpec spec = StreamSpec(800, 2);
  spec.execution.shard_size = 120;
  spec.execution.merge_strategy = MergeStrategy::kHierarchical;
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  const ShardedAnonymizeStats& stats = report->stats;
  EXPECT_EQ(stats.candidate_checks, stats.pruned_checks + stats.exact_checks);
  EXPECT_EQ(stats.subtree_merges + stats.tail_merges, stats.final_merges);
  size_t shards = 0;
  size_t final_merges = 0;
  for (const StreamingWindowSummary& window : report->windows) {
    shards += window.num_shards;
    final_merges += window.final_merges;
  }
  EXPECT_EQ(stats.num_shards, shards);
  EXPECT_EQ(stats.final_merges, final_merges);
}

TEST(StreamingJobTest, TailSmallerThanKJoinsFinalWindow) {
  // 104-row budget with k=4 gives 100-row fill targets; 302 rows leave a
  // 2-row tail that cannot be anonymized alone and must join the last
  // window.
  auto source = MakeUniformSource(302, 2, 99);
  JobSpec spec = StreamSpec(104);
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows, 302u);
  EXPECT_LE(report->peak_resident_rows, 104u);
  for (const StreamingWindowSummary& window : report->windows) {
    EXPECT_GE(window.rows, spec.algorithm.k);
  }
}

// The release file is every window's release in stream order: read back
// window by window (report->windows[w].rows rows each), every block is
// k-anonymous and t-close on its own, and nothing follows the last one.
// Window buffers are reused, so a stale row would show: the confidential
// column, which aggregation leaves alone, must match the input row for
// row. Both stream lengths end in a window of a different size from the
// others — 900 rows in a short one, 890 in one that takes a 2-row tail.
TEST(StreamingJobTest, ReleaseHoldsEveryWindowInOrder) {
  for (size_t total : {900u, 890u}) {
    const Dataset input = MakeUniformDataset(total, 2, 55);
    const size_t conf = input.schema().ConfidentialIndices()[0];
    for (bool overlap_io : {false, true}) {
      for (size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(std::to_string(total) + " rows, overlap_io " +
                     std::to_string(overlap_io) + ", " +
                     std::to_string(threads) + " threads");
        auto source = MakeUniformSource(total, 2, 55);
        JobSpec spec = StreamSpec(300, threads);
        spec.execution.overlap_io = overlap_io;
        spec.output.release_path = TempPath("stream_window_order.csv");
        auto report = RunJob(source.get(), spec);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_GE(report->num_windows, 3u);
        EXPECT_EQ(report->windows.size(), report->num_windows);
        const size_t first = report->windows.front().rows;
        const size_t last = report->windows.back().rows;
        if (total == 900) {
          EXPECT_LT(last, first);
        } else {
          EXPECT_EQ(last, first + 2);
        }

        auto reader =
            StreamingCsvReader::OpenNumeric(spec.output.release_path);
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        auto schema =
            SchemaWithRoles((*reader)->schema(), {"QI0", "QI1"}, "CONF");
        ASSERT_TRUE(schema.ok()) << schema.status().ToString();
        ASSERT_TRUE((*reader)->ReplaceSchema(*schema).ok());
        size_t rows = 0;
        for (const StreamingWindowSummary& window : report->windows) {
          Dataset block(*schema);
          auto got = (*reader)->ReadInto(&block, window.rows);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(*got, window.rows);
          EXPECT_TRUE(
              VerifyRelease(block, spec.algorithm.k, spec.algorithm.t).ok());
          for (size_t row = 0; row < block.NumRecords(); ++row) {
            ASSERT_EQ(block.cell(row, conf), input.cell(rows + row, conf))
                << "release row " << rows + row;
          }
          rows += window.rows;
        }
        Dataset rest(*schema);
        auto extra = (*reader)->ReadInto(&rest, 1);
        ASSERT_TRUE(extra.ok());
        EXPECT_EQ(*extra, 0u);
        EXPECT_EQ(rows, report->rows);
        EXPECT_EQ(rows, total);
      }
    }
  }
}

TEST(StreamingJobTest, RejectsBudgetSmallerThanKFloor) {
  auto source = MakeUniformSource(100, 2, 1);
  JobSpec spec = StreamSpec(15);  // < k + max(k, 2) = 20
  spec.algorithm.k = 10;
  auto report = RunJob(source.get(), spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidSpec);
}

TEST(StreamingJobTest, RejectsUnknownAlgorithmBeforeReading) {
  auto source = MakeUniformSource(100, 2, 1);
  JobSpec spec = StreamSpec(100000);
  spec.algorithm.name = "no_such_algorithm";
  auto report = RunJob(source.get(), spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnknownAlgorithm);
  // Nothing was consumed: the stream still yields its first row.
  Dataset probe(source->schema());
  auto got = source->ReadInto(&probe, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
}

TEST(StreamingJobTest, RejectsSchemaWithoutRoles) {
  Dataset data = MakeUniformDataset(50, 2, 3);
  const std::string path = TempPath("stream_no_roles.csv");
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto reader = StreamingCsvReader::OpenNumeric(path);  // roles all kOther
  ASSERT_TRUE(reader.ok());
  auto report = RunJob(reader->get(), StreamSpec(100000));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidSpec);
  // Refused before reading: the stream still yields every row.
  Dataset probe((*reader)->schema());
  auto got = (*reader)->ReadInto(&probe, 100);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 50u);
}

TEST(StreamingJobTest, EmptyStreamIsAnError) {
  Dataset data(Schema({Attribute{"QI0", AttributeType::kNumeric,
                                 AttributeRole::kQuasiIdentifier, {}},
                       Attribute{"CONF", AttributeType::kNumeric,
                                 AttributeRole::kConfidential, {}}}));
  DatasetSource source(&data);
  auto report = RunJob(&source, StreamSpec(100000));
  EXPECT_FALSE(report.ok());
}

// Reads that SlowSource has started beyond its first window's two (fill
// and read-ahead): the overlapped prefetches.
std::atomic<int> g_prefetch_reads{0};

// A uniform stream whose reads after the first window's two take a
// while, so an overlapped prefetch stays inside ReadInto while window 0
// is processed. Counts the ReadInto calls started and those in progress.
class SlowSource : public RecordSource {
 public:
  explicit SlowSource(size_t rows) : inner_(MakeUniformSource(rows, 2, 5)) {}

  const Schema& schema() const override { return inner_->schema(); }

  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override {
    ++active_;
    if (calls_++ >= 2) {
      ++g_prefetch_reads;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    auto got = inner_->ReadInto(out, max_rows);
    --active_;
    return got;
  }

  int calls() const { return calls_.load(); }
  int active() const { return active_.load(); }

 private:
  std::unique_ptr<SyntheticSource> inner_;
  std::atomic<int> calls_{0};
  std::atomic<int> active_{0};
};

// tclose_first, started only once a prefetch is inside
// SlowSource::ReadInto: whatever fails after it in window 0 fails while
// that read is still running.
std::string WaitForPrefetchAlgorithm() {
  static const std::string name = [] {
    const std::string registered = "test.wait_for_prefetch";
    AlgorithmRegistry& registry = AlgorithmRegistry::BuiltIns();
    PartitionFn inner = registry.Find("tclose_first").value();
    Status status = registry.Register(
        registered, "tclose_first once a prefetch read has started",
        [inner](const Dataset& data, const AlgorithmParams& params) {
          for (int i = 0; i < 5000 && g_prefetch_reads.load() == 0; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return inner(data, params);
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return registered;
  }();
  return name;
}

// The overlap_io prefetch reads through state in the window loop's
// frame, so the loop must wait for it on its error returns too, not only
// when it collects it. Window 0's write fails (the release directory
// does not exist) while window 1's prefetch is inside ReadInto.
TEST(StreamingJobTest, FailingWriteWaitsForOutstandingPrefetch) {
  g_prefetch_reads = 0;
  SlowSource source(400);
  JobSpec spec = StreamSpec(204, 2);  // 100-row windows under overlap_io
  spec.algorithm.name = WaitForPrefetchAlgorithm();
  // Window 0 runs inline; the pool only prefetches.
  spec.execution.shard_size = 0;
  spec.execution.overlap_io = true;
  spec.output.release_path = TempPath("no_such_directory/release.csv");
  auto report = RunJob(&source, spec);
  EXPECT_GE(source.calls(), 3) << "no prefetch was started";
  EXPECT_EQ(source.active(), 0) << "a prefetch ReadInto outlived RunJob";
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);
}

// Calls of the algorithm RegisterFromSecondCall registers; each test
// that runs one resets it.
std::atomic<int> g_algorithm_calls{0};

// Registers `name` (once per process): tclose_first on its first call,
// `later` from the second on. With shard_size 0 each window is one call,
// so window 0 anonymizes properly and every later window runs `later`.
std::string RegisterFromSecondCall(const std::string& name,
                                   PartitionFn later) {
  AlgorithmRegistry& registry = AlgorithmRegistry::BuiltIns();
  if (!registry.Contains(name)) {
    PartitionFn first = registry.Find("tclose_first").value();
    Status status = registry.Register(
        name, "tclose_first once, then a test-only partition",
        [first, later](const Dataset& data, const AlgorithmParams& params) {
          return g_algorithm_calls++ == 0 ? first(data, params)
                                          : later(data, params);
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return name;
}

// Under overlap_io window 1 is verified on the pool while window 2
// anonymizes. Its pairs are not 4-anonymous: the job fails with window
// 1's PrivacyViolation, window 1 is never written, and no read outlives
// RunJob.
TEST(StreamingJobTest, OverlappedVerifyFailureStopsBeforeTheWindowIsWritten) {
  g_algorithm_calls = 0;
  SlowSource source(400);
  JobSpec spec = StreamSpec(204, 2);  // 100-row windows under overlap_io
  spec.algorithm.name = RegisterFromSecondCall(
      "test.pairs_from_second_call",
      [](const Dataset& data, const AlgorithmParams&) -> Result<Partition> {
        Partition partition;
        for (size_t row = 0; row < data.NumRecords(); row += 2) {
          Cluster cluster;
          cluster.push_back(row);
          if (row + 1 < data.NumRecords()) cluster.push_back(row + 1);
          partition.clusters.push_back(std::move(cluster));
        }
        return partition;
      });
  spec.algorithm.t = 10.0;  // never triggers the t repair pass
  spec.execution.shard_size = 0;
  spec.execution.overlap_io = true;
  spec.output.release_path = TempPath("stream_overlap_violation.csv");
  auto report = RunJob(&source, spec);
  EXPECT_EQ(source.active(), 0) << "a prefetch ReadInto outlived RunJob";
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kPrivacyViolation);
  EXPECT_NE(report.status().message().find("window 1: "), std::string::npos)
      << report.status().ToString();

  // The release holds exactly window 0: the source's first 100 rows.
  auto table = ReadTable(spec.output.release_path);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Dataset release = table->ToDataset();
  ASSERT_EQ(release.NumRecords(), 100u);
  ASSERT_TRUE(AssignRoles(&release, {"QI0", "QI1"}, "CONF").ok());
  EXPECT_TRUE(VerifyRelease(release, spec.algorithm.k, spec.algorithm.t).ok());
  const Dataset input = MakeUniformDataset(400, 2, 5);
  const size_t conf = input.schema().ConfidentialIndices()[0];
  for (size_t row = 0; row < release.NumRecords(); ++row) {
    EXPECT_EQ(release.cell(row, conf), input.cell(row, conf)) << row;
  }
}

// Clusters of two consecutive rows: never 4-anonymous.
Result<Partition> PairsPartition(const Dataset& data,
                                 const AlgorithmParams&) {
  Partition partition;
  for (size_t row = 0; row < data.NumRecords(); row += 2) {
    Cluster cluster;
    cluster.push_back(row);
    if (row + 1 < data.NumRecords()) cluster.push_back(row + 1);
    partition.clusters.push_back(std::move(cluster));
  }
  return partition;
}

// A uniform stream whose fifth ReadInto call and every later one fail
// with IoError. Each window is one fill and one read-ahead call, so in
// both modes the read of window 2 is the first to fail.
class FailingThirdWindowSource : public RecordSource {
 public:
  FailingThirdWindowSource() : inner_(MakeUniformSource(1000, 2, 5)) {}

  const Schema& schema() const override { return inner_->schema(); }

  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override {
    if (calls_++ >= 4) return Status::IoError("window 2 cannot be read");
    return inner_->ReadInto(out, max_rows);
  }

 private:
  std::unique_ptr<SyntheticSource> inner_;
  int calls_ = 0;
};

// Two windows fail in each case, and the earlier window's error is the
// one returned, with overlap_io (where they can fail in either order)
// and without it:
//   - window 0's write fails (the release directory does not exist) and
//     window 1's anonymize fails;
//   - window 1's release fails verification and the read of window 2
//     fails, which surfaces only as window 2's failure.
TEST(StreamingJobTest, EarliestWindowErrorWins) {
  for (bool overlap_io : {false, true}) {
    for (size_t threads : {1u, 2u, 4u}) {
      const std::string label = std::to_string(threads) + " threads, " +
                                (overlap_io ? "overlapped" : "serial");
      g_algorithm_calls = 0;
      auto source = MakeUniformSource(400, 2, 5);
      JobSpec spec = StreamSpec(204, threads);
      spec.algorithm.name = RegisterFromSecondCall(
          "test.fails_from_second_call",
          [](const Dataset&, const AlgorithmParams&) -> Result<Partition> {
            return Status::Internal("window 1 fails to anonymize");
          });
      spec.execution.shard_size = 0;
      spec.execution.overlap_io = overlap_io;
      spec.output.release_path = TempPath("no_such_directory/release.csv");
      auto report = RunJob(source.get(), spec);
      ASSERT_FALSE(report.ok()) << label;
      EXPECT_EQ(report.status().code(), StatusCode::kIoError)
          << label << ": " << report.status().ToString();

      g_algorithm_calls = 0;
      FailingThirdWindowSource failing_source;
      spec = StreamSpec(204, threads);
      spec.algorithm.name = RegisterFromSecondCall(
          "test.pairs_from_second_call", PairsPartition);
      spec.algorithm.t = 10.0;  // never triggers the t repair pass
      spec.execution.shard_size = 0;
      spec.execution.overlap_io = overlap_io;
      report = RunJob(&failing_source, spec);
      ASSERT_FALSE(report.ok()) << label;
      EXPECT_EQ(report.status().code(), StatusCode::kPrivacyViolation)
          << label << ": " << report.status().ToString();
      EXPECT_NE(report.status().message().find("window 1: "),
                std::string::npos)
          << label << ": " << report.status().ToString();
    }
  }
}

}  // namespace
}  // namespace tcm
