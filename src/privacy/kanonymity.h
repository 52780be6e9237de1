#ifndef TCM_PRIVACY_KANONYMITY_H_
#define TCM_PRIVACY_KANONYMITY_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

struct KAnonymityReport {
  size_t num_equivalence_classes = 0;
  size_t min_class_size = 0;   // the k actually achieved
  size_t max_class_size = 0;
  double average_class_size = 0.0;
};

// Measures the k-anonymity of a release (Definition 1 of the paper):
// the size of the smallest equivalence class.
Result<KAnonymityReport> EvaluateKAnonymity(const Dataset& data);

// Same measurement over precomputed equivalence classes, for callers
// that already grouped the release (e.g. the verify stage, which shares
// one EquivalenceClasses pass between the k and t checks).
KAnonymityReport EvaluateKAnonymity(
    const std::vector<std::vector<size_t>>& classes);

// True iff every equivalence class has at least k records.
Result<bool> IsKAnonymous(const Dataset& data, size_t k);

}  // namespace tcm

#endif  // TCM_PRIVACY_KANONYMITY_H_
