#include "privacy/psensitive.h"

#include "privacy/ldiversity.h"

namespace tcm {

Result<size_t> MaxSensitiveP(const Dataset& data,
                             size_t confidential_offset) {
  TCM_ASSIGN_OR_RETURN(LDiversityReport report,
                       EvaluateLDiversity(data, confidential_offset));
  return report.min_distinct_values;
}

}  // namespace tcm
