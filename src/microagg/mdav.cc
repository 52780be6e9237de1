#include "microagg/mdav.h"

#include <numeric>

namespace tcm {

Result<Partition> Mdav(const QiSpace& space, size_t k) {
  std::vector<size_t> all(space.num_records());
  std::iota(all.begin(), all.end(), 0);
  return MdavOnRows(space, std::move(all), k);
}

Result<Partition> MdavOnRows(const QiSpace& space, std::vector<size_t> rows,
                             size_t k) {
  const size_t n = rows.size();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > n) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds number of records " +
                                   std::to_string(n));
  }

  Partition partition;
  std::vector<size_t> remaining = std::move(rows);

  while (remaining.size() >= 3 * k) {
    std::vector<double> centroid = space.Centroid(remaining);
    size_t extreme_r = space.FarthestFromPoint(remaining, centroid);
    Cluster cluster_r = space.NearestToRecord(remaining, extreme_r, k);
    RemoveRows(cluster_r, &remaining);
    partition.clusters.push_back(std::move(cluster_r));

    const double* extreme_point = space.point(extreme_r);
    std::vector<double> extreme_coords(extreme_point,
                                       extreme_point + space.num_dims());
    size_t extreme_s = space.FarthestFromPoint(remaining, extreme_coords);
    Cluster cluster_s = space.NearestToRecord(remaining, extreme_s, k);
    RemoveRows(cluster_s, &remaining);
    partition.clusters.push_back(std::move(cluster_s));
  }

  if (remaining.size() >= 2 * k) {
    std::vector<double> centroid = space.Centroid(remaining);
    size_t extreme_r = space.FarthestFromPoint(remaining, centroid);
    Cluster cluster_r = space.NearestToRecord(remaining, extreme_r, k);
    RemoveRows(cluster_r, &remaining);
    partition.clusters.push_back(std::move(cluster_r));
  }
  if (!remaining.empty()) {
    partition.clusters.push_back(std::move(remaining));
  }
  return partition;
}

}  // namespace tcm
