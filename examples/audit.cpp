// Audit example: the receiving side of a data release. Given an original
// data set and a candidate anonymized release, run the full verifier
// battery — the syntactic models (k-anonymity, t-closeness,
// (n,t)-closeness, l-diversity, p-sensitivity), the empirical attacks
// (record linkage, interval disclosure) and the utility measures (SSE,
// statistics preservation, range queries, pMSE) — and print a one-page
// audit report.
//
//   ./build/examples/audit

#include <cstdio>

#include "data/generator.h"
#include "privacy/interval_disclosure.h"
#include "privacy/ldiversity.h"
#include "privacy/linkage.h"
#include "privacy/ntcloseness.h"
#include "privacy/psensitive.h"
#include "privacy/verify.h"
#include "tcm/api.h"
#include "utility/pmse.h"
#include "utility/query.h"
#include "utility/sse.h"

int main() {
  // Produce a release to audit through the Job API (a real auditor would
  // load two CSVs; the report's JSON doubles as the producer-side trail).
  tcm::Dataset original = tcm::MakeMcdDataset();
  tcm::JobSpec spec;
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.1;
  spec.execution.shard_size = 0;
  auto produced = tcm::RunJob(original, spec);
  if (!produced.ok()) {
    std::fprintf(stderr, "%s\n", produced.status().ToString().c_str());
    return 1;
  }
  const tcm::Dataset& release = *produced->release;

  std::printf("=== privacy models =====================================\n");
  auto verification =
      tcm::CheckRelease(release, spec.algorithm.k, spec.algorithm.t);
  if (verification.ok()) {
    std::printf("k-anonymity        : k=%zu (%zu classes, avg %.1f)\n",
                verification->min_class_size, verification->num_classes,
                static_cast<double>(release.NumRecords()) /
                    static_cast<double>(verification->num_classes));
    std::printf("t-closeness        : max EMD %.4f, mean %.4f\n",
                verification->max_class_emd, verification->mean_class_emd);
  }
  auto nt = tcm::EvaluateNTCloseness(release, /*min_superset_size=*/200);
  if (nt.ok()) {
    std::printf("(200,t)-closeness  : max EMD %.4f (local supersets)\n",
                nt->max_emd);
  }
  auto diversity = tcm::EvaluateLDiversity(release);
  if (diversity.ok()) {
    std::printf("l-diversity        : distinct %zu, entropy-l %.2f\n",
                diversity->min_distinct_values, diversity->min_entropy_l);
  }
  auto p = tcm::MaxSensitiveP(release);
  if (p.ok()) {
    std::printf("p-sensitivity      : p=%zu\n", *p);
  }

  std::printf("\n=== empirical attacks ==================================\n");
  auto linkage = tcm::EvaluateLinkageRisk(original, release);
  if (linkage.ok()) {
    std::printf("record linkage     : E[reid] = %.4f (1/k bound %.4f)\n",
                linkage->expected_reidentification_rate,
                1.0 / static_cast<double>(spec.algorithm.k));
  }
  auto interval = tcm::EvaluateIntervalDisclosure(original, release, 0.01);
  if (interval.ok()) {
    std::printf("interval disclosure: %.2f%% of QI cells within 1%% ranks\n",
                interval->disclosure_rate * 100);
  }

  std::printf("\n=== utility ============================================\n");
  auto sse = tcm::NormalizedSse(original, release);
  if (sse.ok()) {
    std::printf("normalized SSE     : %.5f\n", *sse);
  }
  auto queries = tcm::EvaluateRangeQueries(original, release);
  if (queries.ok()) {
    std::printf("range queries      : mean rel err %.2f%%\n",
                queries->mean_relative_error * 100);
  }
  auto pmse = tcm::PropensityMse(original, release);
  if (pmse.ok()) {
    std::printf("pMSE               : %.5f (0 = indistinguishable)\n",
                *pmse);
  }

  std::printf("\n=== machine-readable ===================================\n");
  std::printf("%s\n", produced->ToJsonText().c_str());
  return 0;
}
