// M1: google-benchmark micro-benchmarks of the library's hot primitives.
// Documents why the closed-form EMD matters: Algorithm 2 evaluates EMD
// O(n k) times per cluster, so the O(c) fast path vs the O(n) reference
// is the difference between seconds and hours at paper scale.

#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "data/stats.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "microagg/univariate.h"
#include "privacy/equivalence.h"
#include "tclose/tclose_first.h"

namespace {

std::vector<size_t> RandomCluster(size_t n, size_t c, uint64_t seed) {
  tcm::Rng rng(seed);
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  rng.Shuffle(all);
  all.resize(c);
  return all;
}

void BM_EmdFastPath(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t c = static_cast<size_t>(state.range(1));
  std::vector<double> values(n);
  tcm::Rng rng(1);
  for (double& v : values) v = rng.NextDouble();
  tcm::EmdCalculator emd(values);
  std::vector<size_t> cluster = RandomCluster(n, c, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emd.ClusterEmd(cluster));
  }
}
BENCHMARK(BM_EmdFastPath)
    ->Args({1080, 2})
    ->Args({1080, 10})
    ->Args({1080, 30})
    ->Args({23435, 30});

void BM_EmdReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t c = static_cast<size_t>(state.range(1));
  std::vector<double> values(n);
  tcm::Rng rng(1);
  for (double& v : values) v = rng.NextDouble();
  tcm::EmdCalculator emd(values);
  std::vector<size_t> cluster = RandomCluster(n, c, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emd.ReferenceClusterEmd(cluster));
  }
}
BENCHMARK(BM_EmdReference)
    ->Args({1080, 2})
    ->Args({1080, 30})
    ->Args({23435, 30});

void BM_QiSpaceConstruction(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  tcm::Dataset data = tcm::MakeUniformDataset(n, 4, 3);
  for (auto _ : state) {
    tcm::QiSpace space(data);
    benchmark::DoNotOptimize(space.num_records());
  }
}
BENCHMARK(BM_QiSpaceConstruction)->Arg(1080)->Arg(8000);

void BM_MdavPartition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  tcm::Dataset data = tcm::MakeUniformDataset(n, 2, 5);
  tcm::QiSpace space(data);
  for (auto _ : state) {
    auto partition = tcm::Mdav(space, k);
    benchmark::DoNotOptimize(partition.ok());
  }
}
BENCHMARK(BM_MdavPartition)->Args({1080, 2})->Args({1080, 30})->Args({4000, 2});

void BM_TCloseFirstPartition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  tcm::Dataset data = tcm::MakeUniformDataset(n, 2, 7);
  tcm::QiSpace space(data);
  tcm::EmdCalculator emd(data);
  for (auto _ : state) {
    auto partition = tcm::TCloseFirstTCloseness(space, emd, 2, 0.05);
    benchmark::DoNotOptimize(partition.ok());
  }
}
BENCHMARK(BM_TCloseFirstPartition)->Arg(1080)->Arg(4000);

// The rank sort under every EmdCalculator (per shard, the window's merge,
// verify): 4,096 rows is a shard, 50,000 a streamed window.
void BM_SortOrder(benchmark::State& state) {
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  tcm::Rng rng(3);
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcm::SortOrder(values).data());
  }
}
BENCHMARK(BM_SortOrder)->Arg(4096)->Arg(50000);

// Verify's grouping pass over a 50k-row k = 5 release (the projection
// partition, aggregated).
void BM_EquivalenceClasses(benchmark::State& state) {
  tcm::Dataset data =
      tcm::MakeUniformDataset(static_cast<size_t>(state.range(0)), 3, 11);
  tcm::QiSpace space(data);
  tcm::Dataset release =
      tcm::AggregatePartition(data,
                              tcm::ProjectionMicroaggregation(space, 5).value())
          .value();
  for (auto _ : state) {
    auto classes = tcm::EquivalenceClasses(release);
    benchmark::DoNotOptimize(classes.ok());
  }
}
BENCHMARK(BM_EquivalenceClasses)->Arg(50000);

// The streamed job's read stage: one 50k-row window of 3 QIs + 1
// confidential column at full precision, scanned and parsed from an
// in-memory stream (the istringstream copy of the text is included).
void BM_CsvReadInto(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const std::string text =
      tcm::WriteCsvString(tcm::MakeUniformDataset(rows, 3, 13));
  for (auto _ : state) {
    auto reader = tcm::StreamingCsvReader::FromStreamNumeric(
        std::make_unique<std::istringstream>(text));
    tcm::Dataset window((*reader)->schema());
    auto got = (*reader)->ReadInto(&window, rows);
    benchmark::DoNotOptimize(got.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CsvReadInto)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();
