#include "microagg/vmdav.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace tcm {
namespace {

// Minimum squared distance from `row` to any member of `cluster`.
double MinSquaredDistanceToCluster(const QiSpace& space, size_t row,
                                   const Cluster& cluster) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t member : cluster) {
    best = std::min(best, space.SquaredDistance(row, member));
  }
  return best;
}

}  // namespace

Result<Partition> VMdav(const QiSpace& space, size_t k,
                        const VMdavOptions& options) {
  std::vector<size_t> all(space.num_records());
  std::iota(all.begin(), all.end(), 0);
  return VMdavOnRows(space, std::move(all), k, options);
}

Result<Partition> VMdavOnRows(const QiSpace& space, std::vector<size_t> rows,
                              size_t k, const VMdavOptions& options) {
  const size_t n = rows.size();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds number of records " +
                                   std::to_string(n));
  }
  if (options.gamma < 0.0) {
    return Status::InvalidArgument("gamma must be non-negative");
  }

  Partition partition;
  std::vector<size_t> remaining = std::move(rows);
  const std::vector<double> global_centroid = space.Centroid(remaining);

  while (remaining.size() >= k) {
    size_t extreme = space.FarthestFromPoint(remaining, global_centroid);
    Cluster cluster = space.NearestToRecord(remaining, extreme, k);
    RemoveRows(cluster, &remaining);

    // Variable-size extension: add unassigned records while they are
    // gamma-closer to the cluster than to their unassigned neighbourhood.
    while (cluster.size() < 2 * k - 1 && !remaining.empty()) {
      size_t best_row = remaining[0];
      double best_din = std::numeric_limits<double>::infinity();
      for (size_t row : remaining) {
        double din = MinSquaredDistanceToCluster(space, row, cluster);
        if (din < best_din) {
          best_din = din;
          best_row = row;
        }
      }
      double dout = std::numeric_limits<double>::infinity();
      for (size_t row : remaining) {
        if (row == best_row) continue;
        dout = std::min(dout, space.SquaredDistance(best_row, row));
      }
      // Compare Euclidean (not squared) distances against gamma.
      bool gain = remaining.size() == 1 ||
                  std::sqrt(best_din) < options.gamma * std::sqrt(dout);
      if (!gain) break;
      cluster.push_back(best_row);
      RemoveRows({best_row}, &remaining);
    }
    partition.clusters.push_back(std::move(cluster));
  }

  // Fewer than k records left: each joins the cluster with the nearest
  // centroid.
  for (size_t row : remaining) {
    size_t best_cluster = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < partition.clusters.size(); ++c) {
      std::vector<double> centroid = space.Centroid(partition.clusters[c]);
      double dist = space.SquaredDistanceToPoint(row, centroid);
      if (dist < best_dist) {
        best_dist = dist;
        best_cluster = c;
      }
    }
    partition.clusters[best_cluster].push_back(row);
  }
  return partition;
}

}  // namespace tcm
