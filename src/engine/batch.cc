#include "engine/batch.h"

#include <utility>

namespace tcm {

namespace {

BatchOutcome RunOneJob(const BatchJob& job) {
  BatchOutcome outcome;
  outcome.label = job.label;
  if (job.data == nullptr) {
    outcome.status = Status::InvalidArgument("job '" + job.label +
                                             "' has no dataset");
    return outcome;
  }
  auto result = RunAlgorithm(*job.data, job.algorithm, job.params);
  if (!result.ok()) {
    outcome.status = result.status();
    return outcome;
  }
  outcome.clusters = result->partition.NumClusters();
  outcome.min_cluster_size = result->min_cluster_size;
  outcome.max_cluster_size = result->max_cluster_size;
  outcome.max_cluster_emd = result->max_cluster_emd;
  outcome.normalized_sse = result->normalized_sse;
  outcome.elapsed_seconds = result->elapsed_seconds;
  return outcome;
}

}  // namespace

std::vector<BatchOutcome> RunBatch(const std::vector<BatchJob>& jobs,
                                   ThreadPool* pool) {
  std::vector<BatchOutcome> outcomes(jobs.size());
  ParallelFor(pool, jobs.size(),
              [&](size_t i) { outcomes[i] = RunOneJob(jobs[i]); });
  return outcomes;
}

}  // namespace tcm
