#ifndef TCM_DISTANCE_QI_SPACE_H_
#define TCM_DISTANCE_QI_SPACE_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"

namespace tcm {

// How each quasi-identifier dimension is scaled before computing Euclidean
// distances. Range normalization matches the paper's "normalized Euclidean
// distance"; standardization (z-scores) is the classic MDAV choice.
enum class QiNormalization {
  kRange,        // (x - min) / (max - min)
  kStandardize,  // (x - mean) / stddev
  kNone,
};

// A dense, normalized view of the quasi-identifier block of a dataset.
// Every algorithm in the library measures record similarity through this
// class, so the QI projection and scaling are computed once. Records are
// addressed by their row index in the originating dataset.
class QiSpace {
 public:
  // Builds the view; `data` must have at least one quasi-identifier.
  explicit QiSpace(const Dataset& data,
                   QiNormalization normalization = QiNormalization::kRange);

  size_t num_records() const { return num_records_; }
  size_t num_dims() const { return num_dims_; }

  // Normalized coordinates of record `row` (contiguous, num_dims() wide).
  const double* point(size_t row) const {
    return coords_.data() + row * num_dims_;
  }

  // Squared Euclidean distance between two records.
  double SquaredDistance(size_t row_a, size_t row_b) const;

  // Squared Euclidean distance between a record and an arbitrary point.
  double SquaredDistanceToPoint(size_t row,
                                const std::vector<double>& point) const;

  // Mean point of the given rows; requires a non-empty set.
  std::vector<double> Centroid(const std::vector<size_t>& rows) const;

  // Among `candidates`, the row farthest from `point` (ties -> lowest row).
  // Requires non-empty candidates.
  size_t FarthestFromPoint(const std::vector<size_t>& candidates,
                           const std::vector<double>& point) const;

  // The `count` rows among `candidates` closest to record `row`, including
  // `row` itself if present; ordered by increasing distance.
  std::vector<size_t> NearestToRecord(const std::vector<size_t>& candidates,
                                      size_t row, size_t count) const;

 private:
  size_t num_records_ = 0;
  size_t num_dims_ = 0;
  std::vector<double> coords_;  // row-major num_records x num_dims
};

}  // namespace tcm

#endif  // TCM_DISTANCE_QI_SPACE_H_
