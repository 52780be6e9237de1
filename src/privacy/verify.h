#ifndef TCM_PRIVACY_VERIFY_H_
#define TCM_PRIVACY_VERIFY_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

class ThreadPool;

// Verdicts of the independent release re-check (the auditor-side view:
// only the released data is consulted, never the algorithm's own
// bookkeeping). The one k-anonymity and t-closeness verifier: the job's
// verify stage, VerifyRelease, --audit, the recoding baseline and the
// tests all read their verdicts from it, so no two paths can drift.
struct ReleaseVerification {
  bool k_anonymous = false;
  bool t_close = false;
  // The levels measured, whatever the verdict: the smallest equivalence
  // class (the k achieved, Definition 1) and the largest class EMD (the t
  // achieved, Definition 2), plus the class count and the mean class EMD.
  size_t num_classes = 0;
  size_t min_class_size = 0;
  double max_class_emd = 0.0;
  double mean_class_emd = 0.0;

  bool ok() const { return k_anonymous && t_close; }
};

// Float round-off the t-closeness verdict tolerates in the closed-form
// EMD: a release is t-close iff its max_class_emd <= t + kTCloseTolerance.
inline constexpr double kTCloseTolerance = 1e-9;

// Groups `release` into equivalence classes once and measures both
// guarantees over them: k-anonymity (every class has >= k records) and
// t-closeness (every class's confidential distribution is within ordered
// EMD t of the whole release's, on the schema's first confidential
// attribute). InvalidArgument when the release has no quasi-identifier,
// no confidential attribute or fewer than 2 records. With a `pool`, class
// grouping and the per-class EMDs run on it; the verification is the
// same.
Result<ReleaseVerification> CheckRelease(const Dataset& release, size_t k,
                                         double t,
                                         ThreadPool* pool = nullptr);

// Converts failed verdicts into the structured kPrivacyViolation error,
// naming the violated guarantee(s). `context` prefixes the message
// (e.g. "window 3: ").
Status PrivacyViolationError(const ReleaseVerification& verification,
                             const std::string& context = "");

}  // namespace tcm

#endif  // TCM_PRIVACY_VERIFY_H_
