#include "privacy/tcloseness.h"

#include <algorithm>

#include "distance/emd.h"
#include "engine/thread_pool.h"
#include "privacy/equivalence.h"

namespace tcm {

Result<TClosenessReport> EvaluateTCloseness(const Dataset& data,
                                            size_t confidential_offset) {
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(data));
  return EvaluateTCloseness(data, classes, confidential_offset);
}

Result<TClosenessReport> EvaluateTCloseness(
    const Dataset& data, const std::vector<std::vector<size_t>>& classes,
    size_t confidential_offset, ThreadPool* pool) {
  if (data.schema().ConfidentialIndices().size() <= confidential_offset) {
    return Status::InvalidArgument("confidential attribute not available");
  }
  if (data.NumRecords() < 2) {
    return Status::InvalidArgument("need at least 2 records");
  }
  EmdCalculator emd(data, confidential_offset);
  TClosenessReport report;
  report.num_equivalence_classes = classes.size();
  std::vector<double> class_emd(classes.size());
  ParallelForRanges(pool, classes.size(), [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      class_emd[c] = emd.ClusterEmd(classes[c]);
    }
  });
  // Summed in class order, so the mean is the same at any thread count.
  double total = 0.0;
  for (double value : class_emd) {
    report.max_emd = std::max(report.max_emd, value);
    total += value;
  }
  if (!classes.empty()) {
    report.mean_emd = total / static_cast<double>(classes.size());
  }
  return report;
}

Result<bool> IsTClose(const Dataset& data, double t,
                      size_t confidential_offset) {
  TCM_ASSIGN_OR_RETURN(TClosenessReport report,
                       EvaluateTCloseness(data, confidential_offset));
  return report.max_emd <= t + kTCloseTolerance;
}

}  // namespace tcm
