#include "distance/qi_space.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "data/stats.h"

namespace tcm {

QiSpace::QiSpace(const Dataset& data, QiNormalization normalization) {
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  TCM_CHECK(!qi.empty()) << "dataset has no quasi-identifier attributes";
  num_records_ = data.NumRecords();
  num_dims_ = qi.size();
  coords_.assign(num_records_ * num_dims_, 0.0);

  for (size_t d = 0; d < num_dims_; ++d) {
    std::vector<double> col = data.ColumnAsDouble(qi[d]);
    double shift = 0.0, scale = 1.0;
    switch (normalization) {
      case QiNormalization::kRange: {
        double lo = Min(col), hi = Max(col);
        shift = lo;
        scale = (hi > lo) ? (hi - lo) : 1.0;
        break;
      }
      case QiNormalization::kStandardize: {
        shift = Mean(col);
        double sd = StdDev(col);
        scale = (sd > 0.0) ? sd : 1.0;
        break;
      }
      case QiNormalization::kNone:
        break;
    }
    for (size_t row = 0; row < num_records_; ++row) {
      coords_[row * num_dims_ + d] = (col[row] - shift) / scale;
    }
  }
}

double QiSpace::SquaredDistance(size_t row_a, size_t row_b) const {
  const double* a = point(row_a);
  const double* b = point(row_b);
  double sum = 0.0;
  for (size_t d = 0; d < num_dims_; ++d) {
    double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

double QiSpace::SquaredDistanceToPoint(size_t row,
                                       const std::vector<double>& p) const {
  TCM_DCHECK(p.size() == num_dims_);
  const double* a = point(row);
  double sum = 0.0;
  for (size_t d = 0; d < num_dims_; ++d) {
    double diff = a[d] - p[d];
    sum += diff * diff;
  }
  return sum;
}

double QiSpace::Distance(size_t row_a, size_t row_b) const {
  return std::sqrt(SquaredDistance(row_a, row_b));
}

std::vector<double> QiSpace::Centroid(const std::vector<size_t>& rows) const {
  TCM_DCHECK(!rows.empty());
  std::vector<double> centroid(num_dims_, 0.0);
  for (size_t row : rows) {
    const double* p = point(row);
    for (size_t d = 0; d < num_dims_; ++d) centroid[d] += p[d];
  }
  for (double& c : centroid) c /= static_cast<double>(rows.size());
  return centroid;
}

size_t QiSpace::FarthestFromPoint(const std::vector<size_t>& candidates,
                                  const std::vector<double>& p) const {
  TCM_DCHECK(!candidates.empty());
  size_t best = candidates[0];
  double best_dist = -1.0;
  for (size_t row : candidates) {
    double dist = SquaredDistanceToPoint(row, p);
    if (dist > best_dist) {
      best_dist = dist;
      best = row;
    }
  }
  return best;
}

std::vector<size_t> QiSpace::NearestToRecord(
    const std::vector<size_t>& candidates, size_t row, size_t count) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(candidates.size());
  for (size_t candidate : candidates) {
    scored.emplace_back(SquaredDistance(candidate, row), candidate);
  }
  size_t take = std::min(count, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  std::vector<size_t> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace tcm
