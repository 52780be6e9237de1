#include "privacy/verify.h"

#include <algorithm>
#include <vector>

#include "distance/emd.h"
#include "engine/thread_pool.h"
#include "privacy/equivalence.h"

namespace tcm {

Result<ReleaseVerification> CheckRelease(const Dataset& release, size_t k,
                                         double t, ThreadPool* pool) {
  // One grouping pass feeds both checks.
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(release, pool));
  if (release.schema().ConfidentialIndices().empty()) {
    return Status::InvalidArgument("confidential attribute not available");
  }
  if (release.NumRecords() < 2) {
    return Status::InvalidArgument("need at least 2 records");
  }
  ReleaseVerification verification;
  verification.num_classes = classes.size();
  verification.min_class_size = classes.front().size();
  for (const auto& group : classes) {
    verification.min_class_size =
        std::min(verification.min_class_size, group.size());
  }
  EmdCalculator emd(release);
  std::vector<double> class_emd(classes.size());
  ParallelForRanges(pool, classes.size(), [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      class_emd[c] = emd.ClusterEmd(classes[c]);
    }
  });
  // Summed in class order, so the mean is the same at any thread count.
  double total = 0.0;
  for (double value : class_emd) {
    verification.max_class_emd = std::max(verification.max_class_emd, value);
    total += value;
  }
  verification.mean_class_emd = total / static_cast<double>(classes.size());
  verification.k_anonymous = verification.min_class_size >= k;
  verification.t_close = verification.max_class_emd <= t + kTCloseTolerance;
  return verification;
}

Status PrivacyViolationError(const ReleaseVerification& verification,
                             const std::string& context) {
  return Status::PrivacyViolation(
      context + "release failed re-verification: " +
      (verification.k_anonymous ? "" : "k-anonymity ") +
      (verification.t_close ? "" : "t-closeness"));
}

}  // namespace tcm
