#include "microagg/partition.h"

#include <algorithm>

#include "common/check.h"

namespace tcm {

size_t Partition::NumRecords() const {
  size_t total = 0;
  for (const Cluster& cluster : clusters) total += cluster.size();
  return total;
}

size_t Partition::MinClusterSize() const {
  size_t best = 0;
  bool first = true;
  for (const Cluster& cluster : clusters) {
    if (first || cluster.size() < best) {
      best = cluster.size();
      first = false;
    }
  }
  return first ? 0 : best;
}

size_t Partition::MaxClusterSize() const {
  size_t best = 0;
  for (const Cluster& cluster : clusters) {
    best = std::max(best, cluster.size());
  }
  return best;
}

double Partition::AverageClusterSize() const {
  if (clusters.empty()) return 0.0;
  return static_cast<double>(NumRecords()) /
         static_cast<double>(clusters.size());
}

std::vector<size_t> Partition::AssignmentVector() const {
  size_t n = NumRecords();
  std::vector<size_t> assignment(n, clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t row : clusters[c]) {
      TCM_DCHECK_LT(row, n) << "record index out of range";
      TCM_DCHECK_EQ(assignment[row], clusters.size())
          << "record " << row << " appears in two clusters";
      assignment[row] = c;
    }
  }
  return assignment;
}

void RemoveRows(const Cluster& cluster, std::vector<size_t>* remaining) {
  size_t max_index = 0;
  for (size_t row : *remaining) max_index = std::max(max_index, row);
  std::vector<bool> in_cluster(max_index + 1, false);
  for (size_t row : cluster) {
    if (row <= max_index) in_cluster[row] = true;
  }
  std::erase_if(*remaining, [&](size_t row) { return in_cluster[row]; });
}

Status ValidatePartition(const Partition& partition, size_t expected_records,
                         size_t min_cluster_size) {
  std::vector<bool> seen(expected_records, false);
  for (size_t c = 0; c < partition.clusters.size(); ++c) {
    const Cluster& cluster = partition.clusters[c];
    if (cluster.size() < min_cluster_size) {
      return Status::FailedPrecondition(
          "cluster " + std::to_string(c) + " has " +
          std::to_string(cluster.size()) + " records, fewer than " +
          std::to_string(min_cluster_size));
    }
    for (size_t row : cluster) {
      if (row >= expected_records) {
        return Status::OutOfRange("record index " + std::to_string(row) +
                                  " out of range");
      }
      if (seen[row]) {
        return Status::FailedPrecondition("record " + std::to_string(row) +
                                          " covered twice");
      }
      seen[row] = true;
    }
  }
  for (size_t row = 0; row < expected_records; ++row) {
    if (!seen[row]) {
      return Status::FailedPrecondition("record " + std::to_string(row) +
                                        " not covered by any cluster");
    }
  }
  return Status::Ok();
}

}  // namespace tcm
