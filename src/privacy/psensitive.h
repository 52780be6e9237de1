#ifndef TCM_PRIVACY_PSENSITIVE_H_
#define TCM_PRIVACY_PSENSITIVE_H_

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// p-Sensitive k-anonymity (Truta & Vinay 2006): a release satisfies the
// model when it is k-anonymous AND every equivalence class contains at
// least p distinct values of the confidential attribute. Referenced by
// the paper as the one k-anonymity refinement microaggregation had been
// applied to before this work.
//
// The largest p for which the release's classes are p-sensitive: the
// fewest distinct confidential values in any class (0 when some class is
// empty of confidential values — cannot happen for valid data). Whether
// it is k-anonymous too is CheckRelease's (privacy/verify.h) to say.
Result<size_t> MaxSensitiveP(const Dataset& data);

}  // namespace tcm

#endif  // TCM_PRIVACY_PSENSITIVE_H_
