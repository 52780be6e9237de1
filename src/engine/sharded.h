#ifndef TCM_ENGINE_SHARDED_H_
#define TCM_ENGINE_SHARDED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "engine/registry.h"
#include "engine/thread_pool.h"
#include "tclose/merge.h"

namespace tcm {

// A deterministic assignment of the rows 0..n-1 to shards. Row i goes to
// shard i % num_shards (round-robin), so every shard is a systematic
// sample of the data set and its confidential distribution tracks the
// global one — which keeps per-shard t-closeness meaningful globally.
// The plan is a pure function of (n, shard_size, k): thread count never
// changes which rows share a shard.
struct ShardPlan {
  std::vector<std::vector<size_t>> shards;  // global row ids, ascending

  size_t NumShards() const { return shards.size(); }
};

// Builds the plan. `shard_size` is the target rows per shard; 0 (or a
// value > n) yields a single shard. The shard count is num_records /
// shard_size rounded to nearest (so 8191 rows at shard_size 4096 run as
// two ~4096-row shards, not one oversized 8191-row shard), and is
// clamped so every shard keeps at least max(3k, 2) rows, the floor the
// clustering heuristics need to work with.
ShardPlan MakeShardPlan(size_t num_records, size_t shard_size, size_t k);

struct ShardedAnonymizeOptions {
  std::string algorithm = "tclose_first";  // registry name
  AlgorithmParams params;
  // Target records per shard; 0 gives a one-shard plan.
  size_t shard_size = 4096;
  // Engine of the repair pass that ends every plan: it merges clusters
  // whose EMD against the GLOBAL confidential distribution exceeds t
  // (shards only see their own distribution, and no algorithm's own
  // guarantee is taken on trust, so a residual can remain). The pass is
  // deterministic and only ever grows clusters, so k-anonymity is
  // preserved. kSequential is the byte-stable legacy loop; kHierarchical
  // repairs deterministic subtrees in parallel on the caller's pool (with
  // emd_bounds pruning) and finishes with a sequential global tail —
  // reproducible at any thread count, but with legitimately different
  // (still k-anonymous + t-close) release bytes than kSequential.
  MergeStrategy merge_strategy = MergeStrategy::kSequential;
};

struct ShardedAnonymizeStats {
  size_t num_shards = 1;
  size_t final_merges = 0;        // cluster mergers in the global pass
  double max_shard_seconds = 0.0; // slowest shard (parallel critical path)
  // Per-stage wall clock inside this call.
  double shard_seconds = 0.0;     // shard plan (rows are copied in tasks)
  // Shard fan-out: per-shard copy + algorithm, and the window's QiSpace
  // and confidential ranks, built as one more task of the fan-out.
  double anonymize_seconds = 0.0;
  double merge_seconds = 0.0;     // global MergeUntilTClose repair pass
  double measure_seconds = 0.0;   // aggregation + utility measurement
  // Final-merge engine detail (see MergeStats): subtree fan-out and the
  // bound-pruning ledger (candidate == pruned + exact).
  size_t merge_subtrees = 0;
  size_t subtree_merges = 0;
  size_t tail_merges = 0;
  size_t candidate_checks = 0;
  size_t pruned_checks = 0;
  size_t exact_checks = 0;

  // Folds another call's stats into this ledger: counters and timers
  // sum, max_shard_seconds keeps the slowest shard seen.
  ShardedAnonymizeStats& operator+=(const ShardedAnonymizeStats& other);
};

// Anonymizes `data` shard-by-shard on `pool` (serially when pool is null
// — the result is identical either way):
//   1. shard rows via MakeShardPlan,
//   2. run the registry algorithm on every shard concurrently (a
//      one-shard plan's shard is `data` itself, others copy their rows
//      out), with a per-shard seed derived from params.seed and the
//      shard index; one more task of the same fan-out, run by the
//      caller, builds the window's QiSpace and EmdCalculator,
//   3. concatenate the per-shard clusters in shard order (deterministic),
//   4. merge until the global t-closeness bound holds (the hierarchical
//      engine repairs its subtrees on the pool), whatever the plan,
//   5. aggregate and measure the release, clusters fanned out on the pool.
// Results are collected in shard order, every per-shard computation
// depends only on its shard's rows, and every parallel stage writes
// disjoint outputs — so the release is byte-identical for any thread
// count.
Result<AnonymizationResult> ShardedAnonymize(
    const Dataset& data, const ShardedAnonymizeOptions& options,
    ThreadPool* pool, ShardedAnonymizeStats* stats = nullptr);

}  // namespace tcm

#endif  // TCM_ENGINE_SHARDED_H_
