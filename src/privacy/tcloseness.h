#ifndef TCM_PRIVACY_TCLOSENESS_H_
#define TCM_PRIVACY_TCLOSENESS_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

class ThreadPool;

struct TClosenessReport {
  size_t num_equivalence_classes = 0;
  double max_emd = 0.0;   // the t actually achieved (Definition 2)
  double mean_emd = 0.0;
};

// Measures t-closeness of a release: the EMD (ordered ground distance)
// between each equivalence class's confidential distribution and the
// whole data set's, maximized over classes. `confidential_offset` selects
// among several confidential attributes.
Result<TClosenessReport> EvaluateTCloseness(const Dataset& data,
                                            size_t confidential_offset = 0);

// Same measurement over precomputed equivalence classes, for callers
// that already grouped the release (e.g. the verify stage, which shares
// one EquivalenceClasses pass between the k and t checks). The guards
// (confidential attribute present, at least 2 records) still apply.
// With a `pool` the per-class EMDs are computed concurrently; the report
// is the same.
Result<TClosenessReport> EvaluateTCloseness(
    const Dataset& data, const std::vector<std::vector<size_t>>& classes,
    size_t confidential_offset = 0, ThreadPool* pool = nullptr);

// Float round-off the t-closeness verdict tolerates in the closed-form
// EMD: a release is t-close iff its max_emd <= t + kTCloseTolerance.
inline constexpr double kTCloseTolerance = 1e-9;

// True iff every equivalence class is within EMD `t` of the global
// confidential distribution (up to kTCloseTolerance).
Result<bool> IsTClose(const Dataset& data, double t,
                      size_t confidential_offset = 0);

}  // namespace tcm

#endif  // TCM_PRIVACY_TCLOSENESS_H_
