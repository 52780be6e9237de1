#ifndef TCM_ENGINE_PIPELINE_H_
#define TCM_ENGINE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "engine/thread_pool.h"

namespace tcm {

// Stage helpers shared by the Job API's window loop (api/runner.cc) and
// the CLI: the independent release re-check and role assignment by
// column name.

// Verdicts of the independent release re-check (the auditor-side view:
// only the released data is consulted, never the algorithm's own
// bookkeeping). Shared by the runner's verify stage and the public
// VerifyRelease facade, so the two paths cannot drift.
struct ReleaseVerification {
  bool k_anonymous = false;
  bool t_close = false;
  // The levels measured, whatever the verdict: the smallest equivalence
  // class (the k achieved) and the largest class EMD (the t achieved).
  size_t min_class_size = 0;
  double max_class_emd = 0.0;

  bool ok() const { return k_anonymous && t_close; }
};

// Re-checks k-anonymity and t-closeness of `release` with the
// independent privacy evaluators. With a `pool`, class grouping and the
// per-class EMDs run on it; the verdict is the same.
Result<ReleaseVerification> CheckRelease(const Dataset& release, size_t k,
                                         double t,
                                         ThreadPool* pool = nullptr);

// Converts failed verdicts into the structured kPrivacyViolation error,
// naming the violated guarantee(s). `context` prefixes the message
// (e.g. "window 3: ").
Status PrivacyViolationError(const ReleaseVerification& verification,
                             const std::string& context = "");

// Returns a copy of `schema` with kQuasiIdentifier / kConfidential roles
// assigned to the named columns, validating every name: unknown names
// fail with a message listing the available columns. The Job API puts
// the spec's roles on the schema a job reads rows into this way, leaving
// its record source's own schema alone.
Result<Schema> SchemaWithRoles(
    const Schema& schema, const std::vector<std::string>& quasi_identifiers,
    const std::string& confidential);

// Same, applied in place to a dataset's schema.
Status AssignRoles(Dataset* data,
                   const std::vector<std::string>& quasi_identifiers,
                   const std::string& confidential);

}  // namespace tcm

#endif  // TCM_ENGINE_PIPELINE_H_
