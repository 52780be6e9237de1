// Tests for chunked (scalable) microaggregation.

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "data/generator.h"
#include "distance/qi_space.h"
#include "microagg/aggregate.h"
#include "microagg/chunked.h"
#include "microagg/mdav.h"
#include "utility/sse.h"

namespace tcm {
namespace {

// ----------------------------------------------------------------- Chunked

TEST(ChunkedTest, ValidPartitionAcrossChunkSizes) {
  Dataset data = MakeUniformDataset(1000, 3, 41);
  QiSpace space(data);
  for (size_t chunk : {64u, 256u, 5000u}) {
    ChunkedOptions options;
    options.chunk_size = chunk;
    auto partition = ChunkedMicroaggregation(space, 5, options);
    ASSERT_TRUE(partition.ok()) << "chunk=" << chunk;
    EXPECT_TRUE(ValidatePartition(*partition, 1000, 5).ok());
    EXPECT_LE(partition->MaxClusterSize(), 9u);
  }
}

TEST(ChunkedTest, HugeChunkEqualsPlainMdav) {
  Dataset data = MakeUniformDataset(300, 2, 43);
  QiSpace space(data);
  ChunkedOptions options;
  options.chunk_size = 10000;  // larger than n: one chunk
  auto chunked = ChunkedMicroaggregation(space, 4, options);
  auto plain = Mdav(space, 4);
  ASSERT_TRUE(chunked.ok() && plain.ok());
  EXPECT_EQ(chunked->clusters, plain->clusters);
}

TEST(ChunkedTest, TinyChunkIsClampedToThreeK) {
  Dataset data = MakeUniformDataset(200, 2, 47);
  QiSpace space(data);
  ChunkedOptions options;
  options.chunk_size = 1;  // clamped to 3k
  auto partition = ChunkedMicroaggregation(space, 6, options);
  ASSERT_TRUE(partition.ok());
  EXPECT_TRUE(ValidatePartition(*partition, 200, 6).ok());
}

TEST(ChunkedTest, RejectsBadArguments) {
  Dataset data = MakeUniformDataset(50, 2, 49);
  QiSpace space(data);
  EXPECT_FALSE(ChunkedMicroaggregation(space, 0).ok());
  EXPECT_FALSE(ChunkedMicroaggregation(space, 51).ok());
  ChunkedOptions options;
  options.chunk_size = 0;
  EXPECT_FALSE(ChunkedMicroaggregation(space, 2, options).ok());
}

TEST(ChunkedTest, SseDegradesGracefully) {
  // Chunked SSE must stay within a small factor of full MDAV — the
  // contract that justifies it on big data.
  Dataset data = MakePatientDischargeLike({3000, 51});
  QiSpace space(data);
  auto full = Mdav(space, 5);
  ChunkedOptions options;
  options.chunk_size = 256;
  auto chunked = ChunkedMicroaggregation(space, 5, options);
  ASSERT_TRUE(full.ok() && chunked.ok());
  auto full_release = AggregatePartition(data, *full);
  auto chunked_release = AggregatePartition(data, *chunked);
  ASSERT_TRUE(full_release.ok() && chunked_release.ok());
  double full_sse = NormalizedSse(data, *full_release).value();
  double chunked_sse = NormalizedSse(data, *chunked_release).value();
  EXPECT_LT(chunked_sse, full_sse * 4.0 + 1e-9);
}

TEST(ChunkedTest, FasterThanFullMdavOnLargeInput) {
  Dataset data = MakePatientDischargeLike({8000, 53});
  QiSpace space(data);
  WallTimer timer;
  ASSERT_TRUE(Mdav(space, 3).ok());
  double full_seconds = timer.ElapsedSeconds();
  timer.Restart();
  ChunkedOptions options;
  options.chunk_size = 512;
  ASSERT_TRUE(ChunkedMicroaggregation(space, 3, options).ok());
  double chunked_seconds = timer.ElapsedSeconds();
  EXPECT_LT(chunked_seconds, full_seconds);
}

TEST(ChunkedTest, InnerMethodSelectable) {
  Dataset data = MakeUniformDataset(400, 2, 57);
  QiSpace space(data);
  for (MicroaggMethod method :
       {MicroaggMethod::kMdav, MicroaggMethod::kVMdav,
        MicroaggMethod::kProjection}) {
    ChunkedOptions options;
    options.chunk_size = 100;
    options.inner.method = method;
    auto partition = ChunkedMicroaggregation(space, 4, options);
    ASSERT_TRUE(partition.ok()) << MicroaggMethodName(method);
    EXPECT_TRUE(ValidatePartition(*partition, 400, 4).ok())
        << MicroaggMethodName(method);
  }
}

TEST(ChunkedTest, SubsetHelpersCoverOnlyGivenRows) {
  Dataset data = MakeUniformDataset(100, 2, 59);
  QiSpace space(data);
  std::vector<size_t> rows = {5, 10, 15, 20, 25, 30, 35, 40, 45, 50};
  for (MicroaggMethod method :
       {MicroaggMethod::kMdav, MicroaggMethod::kVMdav,
        MicroaggMethod::kProjection}) {
    MicroaggOptions options;
    options.method = method;
    auto partition = MicroaggregateRows(space, rows, 3, options);
    ASSERT_TRUE(partition.ok()) << MicroaggMethodName(method);
    std::vector<size_t> covered;
    for (const Cluster& cluster : partition->clusters) {
      covered.insert(covered.end(), cluster.begin(), cluster.end());
    }
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, rows) << MicroaggMethodName(method);
  }
}

}  // namespace
}  // namespace tcm
