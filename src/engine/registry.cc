#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "baseline/mondrian.h"
#include "baseline/sabre_like.h"
#include "common/strings.h"
#include "common/timer.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "microagg/aggregate.h"
#include "microagg/chunked.h"
#include "microagg/microagg.h"
#include "tclose/kanon_first.h"
#include "tclose/merge.h"
#include "tclose/tclose_first.h"
#include "utility/sse.h"

namespace tcm {

Status AlgorithmRegistry::Register(const std::string& name,
                                   const std::string& description,
                                   PartitionFn fn) {
  if (name.empty()) {
    return Status::InvalidArgument("algorithm name must not be empty");
  }
  if (!fn) {
    return Status::InvalidArgument("algorithm '" + name + "' has no factory");
  }
  MutexLock lock(mutex_);
  auto [it, inserted] =
      entries_.emplace(name, Entry{description, std::move(fn)});
  (void)it;
  if (!inserted) {
    return Status::FailedPrecondition("algorithm '" + name +
                                      "' is already registered");
  }
  return Status::Ok();
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::FindEntryLocked(
    const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

Result<PartitionFn> AlgorithmRegistry::Find(const std::string& name) const {
  MutexLock lock(mutex_);
  const Entry* entry = FindEntryLocked(name);
  if (entry == nullptr) {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [known, unused] : entries_) names.push_back(known);
    return Status::NotFound("unknown algorithm '" + name +
                            "'; known algorithms: " +
                            JoinStrings(names, ", "));
  }
  return entry->fn;
}

bool AlgorithmRegistry::Contains(const std::string& name) const {
  MutexLock lock(mutex_);
  return FindEntryLocked(name) != nullptr;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

std::string AlgorithmRegistry::Description(const std::string& name) const {
  MutexLock lock(mutex_);
  const Entry* entry = FindEntryLocked(name);
  return entry == nullptr ? std::string() : entry->description;
}

AlgorithmRegistry& AlgorithmRegistry::BuiltIns() {
  static AlgorithmRegistry* registry = []() {
    auto* r = new AlgorithmRegistry();
    RegisterBuiltinAlgorithms(r);
    return r;
  }();
  return *registry;
}

namespace {

// Shared preamble of every built-in: QI geometry plus the rank structure
// of the steering confidential attribute.
struct AlgorithmInputs {
  QiSpace space;
  EmdCalculator emd;
  explicit AlgorithmInputs(const Dataset& data) : space(data), emd(data) {}
};

PartitionFn MergeVariant(MicroaggMethod method) {
  return [method](const Dataset& data,
                  const AlgorithmParams& params) -> Result<Partition> {
    AlgorithmInputs in(data);
    MicroaggOptions inner;
    inner.method = method;
    return MergeTCloseness(in.space, in.emd, params.k, params.t, inner);
  };
}

}  // namespace

void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry) {
  struct Builtin {
    const char* name;
    const char* description;
    PartitionFn fn;
  };
  const Builtin builtins[] = {
      {"merge", "Algorithm 1: MDAV microaggregation, then cluster merging",
       MergeVariant(MicroaggMethod::kMdav)},
      {"merge_vmdav",
       "Algorithm 1 with variable-size V-MDAV initial clusters",
       MergeVariant(MicroaggMethod::kVMdav)},
      {"merge_projection",
       "Algorithm 1 with PCA-projection initial clusters",
       MergeVariant(MicroaggMethod::kProjection)},
      {"merge_chunked",
       "Algorithm 1 with chunked (scalable) initial microaggregation",
       [](const Dataset& data,
          const AlgorithmParams& params) -> Result<Partition> {
         AlgorithmInputs in(data);
         TCM_ASSIGN_OR_RETURN(Partition initial,
                              ChunkedMicroaggregation(in.space, params.k));
         return MergeUntilTClose(in.space, in.emd, params.t,
                                 std::move(initial));
       }},
      {"kanon_first",
       "Algorithm 2: k-anonymity first with swap refinement (+ merge "
       "fallback)",
       [](const Dataset& data,
          const AlgorithmParams& params) -> Result<Partition> {
         AlgorithmInputs in(data);
         return KAnonFirstTCloseness(in.space, in.emd, params.k, params.t);
       }},
      {"tclose_first",
       "Algorithm 3: t-closeness by construction via analytic subsets",
       [](const Dataset& data,
          const AlgorithmParams& params) -> Result<Partition> {
         AlgorithmInputs in(data);
         return TCloseFirstTCloseness(in.space, in.emd, params.k, params.t);
       }},
      {"mondrian",
       "Mondrian baseline with the t-closeness split constraint",
       [](const Dataset& data,
          const AlgorithmParams& params) -> Result<Partition> {
         AlgorithmInputs in(data);
         return MondrianTClosePartition(in.space, in.emd, params.k, params.t);
       }},
      {"sabre",
       "SABRE-like baseline: greedy bucketization + redistribution",
       [](const Dataset& data,
          const AlgorithmParams& params) -> Result<Partition> {
         AlgorithmInputs in(data);
         return SabreLikePartition(in.space, in.emd, params.k, params.t);
       }},
  };
  for (const Builtin& builtin : builtins) {
    // Ignore duplicates so re-registering into a shared registry is benign.
    (void)registry->Register(builtin.name, builtin.description, builtin.fn);
  }
  // CLI back-compat aliases for the historic --algorithm spellings.
  (void)registry->Register("kanon", "alias of kanon_first",
                           *registry->Find("kanon_first"));
  (void)registry->Register("tclose", "alias of tclose_first",
                           *registry->Find("tclose_first"));
}

Status ValidateAlgorithmInputs(const Dataset& data,
                               const AlgorithmParams& params) {
  if (data.NumRecords() < 2) {
    return Status::InvalidArgument("need at least 2 records");
  }
  if (data.schema().QuasiIdentifierIndices().empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  if (data.schema().ConfidentialIndices().empty()) {
    return Status::InvalidArgument("dataset has no confidential attribute");
  }
  if (params.k == 0 || params.k > data.NumRecords()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (!std::isfinite(params.t) || params.t < 0.0) {
    return Status::InvalidArgument("t must be a finite number >= 0");
  }
  return Status::Ok();
}

Result<AnonymizationResult> MeasurePartition(
    const Dataset& data, Partition partition, double elapsed_seconds,
    const EmdCalculator* emd, ThreadPool* pool) {
  TCM_ASSIGN_OR_RETURN(Dataset anonymized,
                       AggregatePartition(data, partition, pool));
  std::optional<EmdCalculator> local;
  if (emd == nullptr) emd = &local.emplace(data);
  AnonymizationResult result{std::move(anonymized), Partition{}};
  result.elapsed_seconds = elapsed_seconds;
  result.min_cluster_size = partition.MinClusterSize();
  result.max_cluster_size = partition.MaxClusterSize();
  result.average_cluster_size = partition.AverageClusterSize();
  const std::vector<Cluster>& clusters = partition.clusters;
  std::vector<double> cluster_emd(clusters.size());
  ParallelForRanges(pool, clusters.size(), [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      cluster_emd[c] = emd->ClusterEmd(clusters[c]);
    }
  });
  for (double value : cluster_emd) {
    result.max_cluster_emd = std::max(result.max_cluster_emd, value);
  }
  TCM_ASSIGN_OR_RETURN(result.normalized_sse,
                       NormalizedSse(data, result.anonymized));
  result.partition = std::move(partition);
  return result;
}

Result<AnonymizationResult> RunAlgorithm(const Dataset& data,
                                         const std::string& name,
                                         const AlgorithmParams& params,
                                         const AlgorithmRegistry* registry) {
  if (registry == nullptr) registry = &AlgorithmRegistry::BuiltIns();
  TCM_ASSIGN_OR_RETURN(PartitionFn fn, registry->Find(name));
  TCM_RETURN_IF_ERROR(ValidateAlgorithmInputs(data, params));
  WallTimer timer;
  TCM_ASSIGN_OR_RETURN(Partition partition, fn(data, params));
  return MeasurePartition(data, std::move(partition),
                          timer.ElapsedSeconds());
}

}  // namespace tcm
