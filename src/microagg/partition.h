#ifndef TCM_MICROAGG_PARTITION_H_
#define TCM_MICROAGG_PARTITION_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace tcm {

// A cluster is a set of record indices into some dataset.
using Cluster = std::vector<size_t>;

// A partition of the records 0..n-1 into disjoint clusters. This is the
// output of every microaggregation / t-closeness algorithm in the library;
// the aggregation step (see aggregate.h) turns it into an anonymized
// dataset.
struct Partition {
  std::vector<Cluster> clusters;

  size_t NumClusters() const { return clusters.size(); }

  // Total number of records across clusters.
  size_t NumRecords() const;

  // Size of the smallest cluster — the k-anonymity level actually achieved.
  // 0 for an empty partition.
  size_t MinClusterSize() const;

  size_t MaxClusterSize() const;

  // Mean cluster size; 0 for an empty partition.
  double AverageClusterSize() const;

  // cluster id of each record; records must be covered exactly once
  // (checked), n inferred as NumRecords().
  std::vector<size_t> AssignmentVector() const;
};

// Removes `cluster`'s members from `remaining`, keeping the order of the
// rest. The greedy partitioners (MDAV, V-MDAV, k-anonymity-first) call it
// after fixing each cluster.
void RemoveRows(const Cluster& cluster, std::vector<size_t>* remaining);

// OK iff the clusters cover every index in [0, expected_records) exactly
// once and every cluster has at least min_cluster_size records.
Status ValidatePartition(const Partition& partition, size_t expected_records,
                         size_t min_cluster_size);

}  // namespace tcm

#endif  // TCM_MICROAGG_PARTITION_H_
