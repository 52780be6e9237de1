#include "privacy/kanonymity.h"

#include <algorithm>

#include "privacy/equivalence.h"

namespace tcm {

Result<KAnonymityReport> EvaluateKAnonymity(const Dataset& data) {
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(data));
  return EvaluateKAnonymity(classes);
}

KAnonymityReport EvaluateKAnonymity(
    const std::vector<std::vector<size_t>>& classes) {
  KAnonymityReport report;
  report.num_equivalence_classes = classes.size();
  if (classes.empty()) return report;
  size_t total = 0;
  report.min_class_size = classes[0].size();
  for (const auto& group : classes) {
    report.min_class_size = std::min(report.min_class_size, group.size());
    report.max_class_size = std::max(report.max_class_size, group.size());
    total += group.size();
  }
  report.average_class_size =
      static_cast<double>(total) / static_cast<double>(classes.size());
  return report;
}

Result<bool> IsKAnonymous(const Dataset& data, size_t k) {
  TCM_ASSIGN_OR_RETURN(KAnonymityReport report, EvaluateKAnonymity(data));
  return report.min_class_size >= k;
}

}  // namespace tcm
