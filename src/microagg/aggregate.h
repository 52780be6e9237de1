#ifndef TCM_MICROAGG_AGGREGATE_H_
#define TCM_MICROAGG_AGGREGATE_H_

#include "common/result.h"
#include "data/dataset.h"
#include "microagg/partition.h"

namespace tcm {

class ThreadPool;

// The aggregation step of microaggregation (paper Sec. 2.3): within each
// cluster, every quasi-identifier cell is replaced by the cluster's
// aggregate for that attribute — the mean for numeric attributes, the
// median category for ordinal ones and the modal category for nominal
// ones. Confidential and other attributes are released unchanged, so the
// result is k-anonymous with k = the partition's minimum cluster size.

// Aggregate value of `attribute_index` over the records in `rows`.
// Requires a non-empty cluster.
Value ClusterAggregate(const Dataset& data, const Cluster& rows,
                       size_t attribute_index);

// Returns the anonymized dataset; FailedPrecondition if the partition does
// not exactly cover the dataset. The release starts as one buffer copy of
// `data`; with a `pool`, disjoint clusters are aggregated concurrently
// (each task writes only its own clusters' cells, so the bytes are the
// same at any thread count).
Result<Dataset> AggregatePartition(const Dataset& data,
                                   const Partition& partition,
                                   ThreadPool* pool = nullptr);

}  // namespace tcm

#endif  // TCM_MICROAGG_AGGREGATE_H_
