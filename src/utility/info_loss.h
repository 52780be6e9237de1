#ifndef TCM_UTILITY_INFO_LOSS_H_
#define TCM_UTILITY_INFO_LOSS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// How well an anonymized release preserves aggregate statistics of the
// original data. Complements record-level SSE: a release can have a large
// SSE yet still support accurate aggregate analysis, and vice versa.
struct AttributePreservation {
  std::string name;
  double mean_absolute_error = 0.0;      // |mean - mean'|
  double variance_ratio = 1.0;           // var' / var (1 = perfect)
  double range_ratio = 1.0;              // range' / range
};

struct StatisticsPreservation {
  std::vector<AttributePreservation> attributes;  // QIs only
  // Mean absolute deviation between all pairwise QI Pearson correlations
  // of the original and anonymized data.
  double correlation_mad = 0.0;
  // Mean absolute deviation between each QI<->confidential correlation.
  double qi_confidential_correlation_mad = 0.0;
};

// InvalidArgument if shapes differ or there are no quasi-identifiers.
Result<StatisticsPreservation> EvaluateStatisticsPreservation(
    const Dataset& original, const Dataset& anonymized);

}  // namespace tcm

#endif  // TCM_UTILITY_INFO_LOSS_H_
