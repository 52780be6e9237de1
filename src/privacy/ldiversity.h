#ifndef TCM_PRIVACY_LDIVERSITY_H_
#define TCM_PRIVACY_LDIVERSITY_H_

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

struct LDiversityReport {
  size_t num_equivalence_classes = 0;
  // Distinct l-diversity: the minimum number of distinct confidential
  // values in any equivalence class.
  size_t min_distinct_values = 0;
  // Entropy l-diversity: min over classes of exp(H(class)); a class
  // satisfies entropy l-diversity when this is >= l.
  double min_entropy_l = 0.0;
};

// Machanavajjhala et al. 2007. Included because the paper positions
// t-closeness among the k-anonymity refinements; the report lets users
// compare what each model would certify for the same release. Reads the
// schema's first confidential attribute.
Result<LDiversityReport> EvaluateLDiversity(const Dataset& data);

}  // namespace tcm

#endif  // TCM_PRIVACY_LDIVERSITY_H_
