#include "privacy/psensitive.h"

#include "privacy/ldiversity.h"

namespace tcm {

Result<size_t> MaxSensitiveP(const Dataset& data) {
  TCM_ASSIGN_OR_RETURN(LDiversityReport report, EvaluateLDiversity(data));
  return report.min_distinct_values;
}

}  // namespace tcm
