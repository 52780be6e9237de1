// Shard-parallel scaling of the anonymization engine: anonymize a
// generated 100k-row dataset with the same spec at 1/2/4/8 threads and
// measure wall-clock speedup. The engine contract makes the release
// byte-identical across thread counts; each config re-checks that and the
// k/t guarantees, and emits one JSON line for the BENCH trajectory.
//
// Environment knobs (see bench_util.h):
//   TCM_N       — record count            (default 100000)
//   TCM_SHARD   — rows per shard          (default 4096)
//   TCM_FAST    — nonzero: 20k rows for smoke runs

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/generator.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "privacy/verify.h"

int main() {
  const size_t n =
      tcm_bench::EnvSize("TCM_N", tcm_bench::FastMode() ? 20000 : 100000);
  const size_t shard_size = tcm_bench::EnvSize("TCM_SHARD", 4096);
  constexpr size_t kK = 5;
  constexpr double kT = 0.1;

  tcm::Dataset data = tcm::MakeUniformDataset(n, 4, 2016);
  tcm_bench::PrintHeader("parallel_scaling: sharded t-closeness-first, n=" +
                         std::to_string(n));

  tcm::ShardedAnonymizeOptions options;
  options.algorithm = "tclose_first";
  options.params.k = kK;
  options.params.t = kT;
  options.shard_size = shard_size;

  std::string reference_release;
  double reference_seconds = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    tcm::ThreadPool pool(threads);
    tcm::ShardedAnonymizeStats stats;
    tcm::WallTimer timer;
    auto result = tcm::ShardedAnonymize(data, options, &pool, &stats);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "threads=%zu failed: %s\n", threads,
                   result.status().ToString().c_str());
      return 1;
    }

    std::string release = tcm::WriteCsvString(result->anonymized);
    bool identical = true;
    if (threads == 1) {
      reference_release = release;
      reference_seconds = seconds;
    } else {
      identical = (release == reference_release);
    }
    auto verification = tcm::CheckRelease(result->anonymized, kK, kT);
    bool verified = verification.ok() && verification->ok();

    std::printf(
        "{\"bench\":\"parallel_scaling\",\"n\":%zu,\"shard_size\":%zu,"
        "\"shards\":%zu,\"threads\":%zu,\"seconds\":%.3f,"
        "\"speedup\":%.2f,\"identical_to_t1\":%s,\"verified\":%s,"
        "\"final_merges\":%zu,\"sse\":%.6f,\"max_emd\":%.4f}\n",
        n, shard_size, stats.num_shards, threads, seconds,
        reference_seconds / seconds, identical ? "true" : "false",
        verified ? "true" : "false", stats.final_merges,
        result->normalized_sse, result->max_cluster_emd);
    if (!identical || !verified) return 1;
  }
  return 0;
}
