#ifndef TCM_UTILITY_SSE_H_
#define TCM_UTILITY_SSE_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

class ThreadPool;

// Normalized Sum of Squared Errors (paper Eq. 5):
//   SSE = (1/n) sum_records (1/m) sum_attrs NED(a, a')^2
// where NED is the attribute-wise Euclidean distance normalized by the
// attribute's range in the ORIGINAL data set (constant attributes
// contribute 0), and the sum runs over the masked attributes — the
// quasi-identifiers, since microaggregation releases everything else
// unchanged. Result is in [0, 1]-ish (records cannot move farther than
// one range per attribute).
//
// With a pool the per-record terms are computed on it and summed in
// record order, so the result is bit-identical for any pool.
//
// InvalidArgument if shapes differ or there are no quasi-identifiers.
Result<double> NormalizedSse(const Dataset& original,
                             const Dataset& anonymized,
                             ThreadPool* pool = nullptr);

// Same formula restricted to an explicit attribute set (used to evaluate
// baselines that mask other columns).
Result<double> NormalizedSseOverAttributes(const Dataset& original,
                                           const Dataset& anonymized,
                                           const std::vector<size_t>& attrs,
                                           ThreadPool* pool = nullptr);

}  // namespace tcm

#endif  // TCM_UTILITY_SSE_H_
