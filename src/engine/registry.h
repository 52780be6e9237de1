#ifndef TCM_ENGINE_REGISTRY_H_
#define TCM_ENGINE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "data/dataset.h"
#include "distance/emd.h"
#include "engine/thread_pool.h"
#include "microagg/partition.h"

namespace tcm {

// Parameters handed to every registered algorithm. `seed` is forwarded so
// stochastic algorithms stay reproducible (the engine derives one seed per
// shard from it); the current built-ins are fully deterministic and ignore
// it.
struct AlgorithmParams {
  size_t k = 2;
  double t = 0.25;
  uint64_t seed = 1;
};

// Everything a caller needs to audit a run: the release itself, the
// partition behind it, and privacy/utility measurements.
struct AnonymizationResult {
  Dataset anonymized;
  Partition partition;

  size_t min_cluster_size = 0;      // k-anonymity level achieved
  size_t max_cluster_size = 0;
  double average_cluster_size = 0.0;
  double max_cluster_emd = 0.0;     // t-closeness level achieved
  double normalized_sse = 0.0;      // paper Eq. 5
  double elapsed_seconds = 0.0;
};

// A registered algorithm: partitions `data` (whose schema declares the
// quasi-identifier and confidential roles) into clusters of >= k records.
// Every algorithm in this library reduces to a Partition; aggregation and
// measurement are shared downstream (see MeasurePartition).
using PartitionFn =
    std::function<Result<Partition>(const Dataset& data,
                                    const AlgorithmParams& params)>;

// Name -> factory map over the anonymization algorithms. Thread-safe: the
// engine consults it from pool workers.
class AlgorithmRegistry {
 public:
  AlgorithmRegistry() = default;

  // InvalidArgument on an empty name, FailedPrecondition when the name is
  // already taken.
  Status Register(const std::string& name, const std::string& description,
                  PartitionFn fn) TCM_EXCLUDES(mutex_);

  // NotFound lists the registered names so CLI users see their options.
  Result<PartitionFn> Find(const std::string& name) const
      TCM_EXCLUDES(mutex_);

  bool Contains(const std::string& name) const TCM_EXCLUDES(mutex_);

  // Registered names in sorted order.
  std::vector<std::string> Names() const TCM_EXCLUDES(mutex_);

  // One-line description of a registered algorithm ("" when unknown).
  std::string Description(const std::string& name) const
      TCM_EXCLUDES(mutex_);

  // The process-wide registry, pre-populated with the built-in algorithms:
  //   merge, merge_vmdav, merge_projection, merge_chunked,
  //   kanon_first (alias: kanon), tclose_first (alias: tclose),
  //   mondrian, sabre
  static AlgorithmRegistry& BuiltIns();

 private:
  struct Entry {
    std::string description;
    PartitionFn fn;
  };

  // nullptr when `name` is unknown; the pointer is only valid while the
  // lock stays held (entries_ may be rehashed by a concurrent Register).
  const Entry* FindEntryLocked(const std::string& name) const
      TCM_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Entry> entries_ TCM_GUARDED_BY(mutex_);
};

// Registers the built-in algorithms into `registry`. Idempotent on
// BuiltIns() (which calls this once); on a fresh registry it registers
// each name exactly once.
void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry);

// Shared input validation of the registry-driven drivers: records >= 2,
// QI and confidential roles present, k in [1, n], t finite and >= 0.
Status ValidateAlgorithmInputs(const Dataset& data,
                               const AlgorithmParams& params);

// Aggregates `partition` over `data` and fills in the shared measurements
// (cluster sizes, max cluster EMD against the data set's confidential
// distribution, normalized SSE). `elapsed_seconds` is recorded verbatim.
// `emd` lets callers that already built the rank structure reuse it; when
// null it is built here. With a `pool`, aggregation and the per-cluster
// EMDs fan out over disjoint clusters; every measurement is the same.
Result<AnonymizationResult> MeasurePartition(
    const Dataset& data, Partition partition, double elapsed_seconds,
    const EmdCalculator* emd = nullptr, ThreadPool* pool = nullptr);

// The raw-algorithm dispatcher: looks `name` up in BuiltIns() (or
// `registry` when given), validates the inputs with
// ValidateAlgorithmInputs, runs the algorithm and measures its partition
// as is, with no repair pass. The paper benches use it to measure an
// algorithm's own construction; every job runs ShardedAnonymize
// (engine/sharded.h), which ends each partition with the repair pass.
// `elapsed_seconds` covers the algorithm call (QI space, rank structure
// and partition), not aggregation or measurement.
Result<AnonymizationResult> RunAlgorithm(
    const Dataset& data, const std::string& name,
    const AlgorithmParams& params,
    const AlgorithmRegistry* registry = nullptr);

}  // namespace tcm

#endif  // TCM_ENGINE_REGISTRY_H_
