#include "engine/sharded.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "obs/trace.h"
#include "tclose/merge.h"

namespace tcm {

ShardedAnonymizeStats& ShardedAnonymizeStats::operator+=(
    const ShardedAnonymizeStats& other) {
  num_shards += other.num_shards;
  final_merges += other.final_merges;
  max_shard_seconds = std::max(max_shard_seconds, other.max_shard_seconds);
  shard_seconds += other.shard_seconds;
  anonymize_seconds += other.anonymize_seconds;
  merge_seconds += other.merge_seconds;
  measure_seconds += other.measure_seconds;
  merge_subtrees += other.merge_subtrees;
  subtree_merges += other.subtree_merges;
  tail_merges += other.tail_merges;
  candidate_checks += other.candidate_checks;
  pruned_checks += other.pruned_checks;
  exact_checks += other.exact_checks;
  return *this;
}

ShardPlan MakeShardPlan(size_t num_records, size_t shard_size, size_t k) {
  ShardPlan plan;
  size_t num_shards = 1;
  if (shard_size > 0 && shard_size < num_records) {
    // Round to nearest: truncation made e.g. 8191 rows at shard_size
    // 4096 run as ONE 8191-row shard (~2x the requested size); rounding
    // splits it into two ~4096-row shards as asked.
    num_shards = std::max<size_t>(
        1, (num_records + shard_size / 2) / shard_size);
    // Keep every shard workable: at least max(3k, 2) rows each.
    size_t min_rows = std::max<size_t>(3 * k, 2);
    if (min_rows > 0) {
      num_shards = std::min(num_shards, std::max<size_t>(
                                            1, num_records / min_rows));
    }
  }
  plan.shards.assign(num_shards, {});
  for (size_t s = 0; s < num_shards; ++s) {
    plan.shards[s].reserve(num_records / num_shards + 1);
  }
  for (size_t row = 0; row < num_records; ++row) {
    plan.shards[row % num_shards].push_back(row);
  }
  return plan;
}

namespace {

// Per-shard unit of work: a task reads the const window and writes only
// its own outcome, so scheduling cannot affect results.
struct ShardOutcome {
  Status status;
  Partition partition;  // row ids local to the shard
  double seconds = 0.0;
};

// Partitions one shard. A one-shard plan's shard holds every row, so it
// runs on the window in place; any other shard copies its rows out.
Result<Partition> RunShard(const PartitionFn& fn, const Dataset& data,
                           const std::vector<size_t>& rows,
                           const AlgorithmParams& params) {
  if (rows.size() == data.NumRecords()) return fn(data, params);
  TCM_ASSIGN_OR_RETURN(Dataset shard, data.Select(rows));
  return fn(shard, params);
}

}  // namespace

Result<AnonymizationResult> ShardedAnonymize(
    const Dataset& data, const ShardedAnonymizeOptions& options,
    ThreadPool* pool, ShardedAnonymizeStats* stats) {
  const AlgorithmParams& params = options.params;
  // One lookup per call; an unknown name fails with its suggestions
  // before any work.
  TCM_ASSIGN_OR_RETURN(PartitionFn fn,
                       AlgorithmRegistry::BuiltIns().Find(options.algorithm));
  TCM_RETURN_IF_ERROR(ValidateAlgorithmInputs(data, params));

  ShardedAnonymizeStats local;
  ShardedAnonymizeStats& out = stats != nullptr ? *stats : local;
  out = ShardedAnonymizeStats{};
  WallTimer timer;
  ShardPlan plan = MakeShardPlan(data.NumRecords(), options.shard_size,
                                 params.k);
  out.num_shards = plan.NumShards();
  out.shard_seconds = timer.ElapsedSeconds();

  // Fan the shards across the pool; collect in shard order so the merged
  // partition never depends on completion order.
  std::vector<ShardOutcome> outcomes(plan.NumShards());
  {
    ScopedStage stage("anonymize", &out.anonymize_seconds);
    ParallelFor(pool, plan.NumShards(), [&](size_t s) {
      ShardOutcome& outcome = outcomes[s];
      ScopedStage shard_stage("shard_anonymize", &outcome.seconds);
      AlgorithmParams shard_params = params;
      shard_params.seed = params.seed + 0x9E3779B97F4A7C15ULL * (s + 1);
      auto partition = RunShard(fn, data, plan.shards[s], shard_params);
      if (partition.ok()) {
        outcome.partition = std::move(partition).value();
      } else {
        outcome.status = partition.status();
      }
    });
  }

  Partition merged;
  for (size_t s = 0; s < plan.NumShards(); ++s) {
    ShardOutcome& outcome = outcomes[s];
    if (!outcome.status.ok()) {
      return Status(outcome.status.code(),
                    "shard " + std::to_string(s) + ": " +
                        outcome.status.message());
    }
    out.max_shard_seconds = std::max(out.max_shard_seconds, outcome.seconds);
    // Translate shard-local row ids back to global ones.
    const std::vector<size_t>& rows = plan.shards[s];
    for (Cluster& cluster : outcome.partition.clusters) {
      for (size_t& row : cluster) row = rows[row];
      merged.clusters.push_back(std::move(cluster));
    }
  }

  // The one repair pass, whatever the plan: shards steer by their own
  // confidential distribution and no algorithm's own guarantee is taken
  // on trust, so this pass enforces t against the global one. Built
  // inside the merge stage, so its seconds count as merge time.
  std::optional<EmdCalculator> global_emd;
  {
    ScopedStage stage("merge", &out.merge_seconds);
    QiSpace space(data);
    global_emd.emplace(data);
    MergeOptions merge_options;
    merge_options.strategy = options.merge_strategy;
    merge_options.pool = pool;
    MergeStats merge_stats;
    TCM_ASSIGN_OR_RETURN(
        merged,
        MergeUntilTCloseWith(space, *global_emd, params.t, std::move(merged),
                             merge_options, &merge_stats));
    out.final_merges = merge_stats.merges;
    out.merge_subtrees = merge_stats.num_subtrees;
    out.subtree_merges = merge_stats.subtree_merges;
    out.tail_merges = merge_stats.tail_merges;
    out.candidate_checks = merge_stats.candidate_checks;
    out.pruned_checks = merge_stats.pruned_checks;
    out.exact_checks = merge_stats.exact_checks;
  }

  ScopedStage stage("metrics", &out.measure_seconds);
  TCM_ASSIGN_OR_RETURN(
      AnonymizationResult result,
      MeasurePartition(data, std::move(merged), timer.ElapsedSeconds(),
                       &*global_emd, pool));
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tcm
