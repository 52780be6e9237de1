#ifndef TCM_MICROAGG_UNIVARIATE_H_
#define TCM_MICROAGG_UNIVARIATE_H_

#include <vector>

#include "common/result.h"
#include "distance/qi_space.h"
#include "microagg/partition.h"

namespace tcm {

// Optimal univariate microaggregation (Hansen & Mukherjee 2003): for a
// totally ordered attribute, the SSE-minimal partition into groups of
// consecutive sorted values with sizes in [k, 2k-1] can be found exactly
// by dynamic programming in O(n k) time after an O(n) radix sort. This is
// the one case where microaggregation is solvable to optimality (the
// multivariate problem is NP-hard, paper Sec. 2.3).
//
// Returns clusters of record indices into `values`.
// InvalidArgument if k == 0 or k > n.
Result<Partition> OptimalUnivariateMicroaggregation(
    const std::vector<double>& values, size_t k);

// SSE of a partition of `values` against per-cluster means (the quantity
// the DP minimizes); useful for comparing heuristics.
double UnivariateSse(const std::vector<double>& values,
                     const Partition& partition);

// Projection microaggregation: projects the (normalized) quasi-identifier
// space onto its first principal component — computed by power iteration —
// and runs the optimal univariate DP on the scores. A classic cheap
// heuristic for multivariate data; exact when the data is intrinsically
// one-dimensional.
Result<Partition> ProjectionMicroaggregation(const QiSpace& space, size_t k);

// First-principal-component scores of the QI block (unit-norm direction,
// sign fixed so the first nonzero loading is positive). Exposed for tests.
std::vector<double> PrincipalComponentScores(const QiSpace& space);

}  // namespace tcm

#endif  // TCM_MICROAGG_UNIVARIATE_H_
