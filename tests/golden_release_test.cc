// Golden-release regression tests: the exact output bytes of the
// anonymization pipeline are pinned for a fixed seed/dataset/flag
// matrix, so a future refactor cannot silently change what gets
// released. The matrix mirrors tcm_anonymize invocations (the tool is a
// thin flag parser over JobSpec, and the CSV bytes
// it writes are exactly WriteCsvString of the release — additionally
// pinned binary-level by tools/anonymize_golden.cmake).
//
// Regenerating after an INTENTIONAL release-changing commit:
//   TCM_REGENERATE_GOLDEN=1 ./build/tests/golden_release_test
// then review the diff under tests/golden/ like any other code change.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.h"
#include "data/csv.h"
#include "data/generator.h"
#include "data/record_source.h"

#ifndef TCM_GOLDEN_DIR
#error "TCM_GOLDEN_DIR must point at tests/golden"
#endif

namespace tcm {
namespace {

bool Regenerating() {
  const char* env = std::getenv("TCM_REGENERATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

std::string GoldenPath(const std::string& name) {
  return std::string(TCM_GOLDEN_DIR) + "/" + name;
}

void CompareWithGolden(const std::string& name, const std::string& bytes) {
  const std::string path = GoldenPath(name);
  if (Regenerating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with TCM_REGENERATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), bytes)
      << "release bytes drifted from " << name
      << "; if intentional, regenerate with TCM_REGENERATE_GOLDEN=1 and "
         "review the diff";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

Dataset GoldenInput() { return MakeMcdDataset({.num_records = 120, .seed = 7}); }

// The generator + CSV writer themselves are part of the pinned surface.
TEST(GoldenReleaseTest, InputDatasetBytesArePinned) {
  CompareWithGolden("input_mcd_120.csv", WriteCsvString(GoldenInput()));
}

// Flag matrix over the in-memory pipeline: every case runs sharded on a
// 2-thread pool (thread count provably cannot change the bytes; shard
// size 64 forces real fan-out + the global merge pass).
TEST(GoldenReleaseTest, ReleaseBytesArePinnedAcrossFlagMatrix) {
  struct Case {
    const char* algorithm;
    size_t k;
    double t;
  };
  const Case cases[] = {
      {"merge", 3, 0.2},        {"merge_chunked", 5, 0.2},
      {"kanon_first", 3, 0.25}, {"tclose_first", 5, 0.3},
      {"mondrian", 4, 0.3},     {"sabre", 4, 0.3},
  };
  Dataset data = GoldenInput();
  for (const Case& c : cases) {
    JobSpec spec;
    spec.algorithm.name = c.algorithm;
    spec.algorithm.k = c.k;
    spec.algorithm.t = c.t;
    spec.algorithm.seed = 9;
    spec.execution.threads = 2;
    spec.execution.shard_size = 64;
    spec.verify = true;
    auto report = RunJob(data, spec);
    ASSERT_TRUE(report.ok()) << c.algorithm << ": "
                             << report.status().ToString();
    char name[128];
    std::snprintf(name, sizeof(name), "release_%s_k%zu_t%02d.csv",
                  c.algorithm, c.k, static_cast<int>(c.t * 100));
    CompareWithGolden(name, WriteCsvString(*report->release));
  }
}

// Streamed-vs-in-memory byte identity, pinned: the single-window
// streamed release must equal BOTH the in-memory release and the
// committed golden bytes.
TEST(GoldenReleaseTest, StreamedSingleWindowMatchesInMemoryGolden) {
  Dataset data = GoldenInput();
  JobSpec mem_spec;
  mem_spec.algorithm.name = "tclose_first";
  mem_spec.algorithm.k = 5;
  mem_spec.algorithm.t = 0.3;
  mem_spec.algorithm.seed = 9;
  mem_spec.execution.threads = 2;
  mem_spec.execution.shard_size = 64;
  auto mem_report = RunJob(data, mem_spec);
  ASSERT_TRUE(mem_report.ok()) << mem_report.status().ToString();
  const std::string mem_bytes = WriteCsvString(*mem_report->release);

  DatasetSource source(&data);
  JobSpec spec = mem_spec;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.max_resident_rows = 4096;  // whole stream in one window
  spec.output.release_path =
      ::testing::TempDir() + "golden_streamed_single_window.csv";
  auto report = RunJob(&source, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_windows, 1u);
  const std::string streamed_bytes = ReadFileBytes(spec.output.release_path);
  EXPECT_EQ(streamed_bytes, mem_bytes);
  CompareWithGolden("release_tclose_first_k5_t30.csv", streamed_bytes);
}

// A multi-window streamed release is pinned too: window composition and
// per-window seeds are part of the streaming contract.
TEST(GoldenReleaseTest, StreamedMultiWindowReleaseIsPinned) {
  auto source = MakeUniformSource(400, 2, 31);
  JobSpec spec;
  spec.algorithm.name = "merge_chunked";
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.25;
  spec.algorithm.seed = 13;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.threads = 2;
  spec.execution.shard_size = 64;
  spec.execution.max_resident_rows = 150;
  spec.output.release_path =
      ::testing::TempDir() + "golden_streamed_multi_window.csv";
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->num_windows, 2u);
  CompareWithGolden("release_streamed_uniform400.csv",
                    ReadFileBytes(spec.output.release_path));
}

// Mixed-type (categorical) releases exercise label round-tripping in
// the pinned bytes.
TEST(GoldenReleaseTest, CategoricalReleaseBytesArePinned) {
  Dataset data = MakeAdultLike({.num_records = 90, .seed = 3});
  JobSpec spec;
  spec.algorithm.name = "merge";
  spec.algorithm.k = 3;
  spec.algorithm.t = 0.3;
  spec.algorithm.seed = 9;
  spec.execution.shard_size = 0;
  auto report = RunJob(data, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CompareWithGolden("release_adult_merge_k3_t30.csv",
                    WriteCsvString(*report->release));
}

}  // namespace
}  // namespace tcm
