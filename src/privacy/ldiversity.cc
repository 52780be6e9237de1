#include "privacy/ldiversity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "privacy/equivalence.h"

namespace tcm {

Result<LDiversityReport> EvaluateLDiversity(const Dataset& data,
                                            size_t confidential_offset) {
  const auto confidential = data.schema().ConfidentialIndices();
  if (confidential.size() <= confidential_offset) {
    return Status::InvalidArgument("confidential attribute not available");
  }
  size_t conf_col = confidential[confidential_offset];
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(data));

  LDiversityReport report;
  report.num_equivalence_classes = classes.size();
  report.min_distinct_values = std::numeric_limits<size_t>::max();
  report.min_entropy_l = std::numeric_limits<double>::infinity();
  for (const auto& group : classes) {
    std::map<double, size_t> counts;
    for (size_t row : group) ++counts[data.cell(row, conf_col).AsDouble()];
    report.min_distinct_values =
        std::min(report.min_distinct_values, counts.size());
    double entropy = 0.0;
    for (const auto& [unused, count] : counts) {
      double p = static_cast<double>(count) / static_cast<double>(group.size());
      entropy -= p * std::log(p);
    }
    report.min_entropy_l = std::min(report.min_entropy_l, std::exp(entropy));
  }
  if (classes.empty()) {
    report.min_distinct_values = 0;
    report.min_entropy_l = 0.0;
  }
  return report;
}

}  // namespace tcm
