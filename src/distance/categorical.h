#ifndef TCM_DISTANCE_CATEGORICAL_H_
#define TCM_DISTANCE_CATEGORICAL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tcm {

// Distribution distances for categorical confidential attributes, covering
// the paper's "research directions" item (i): an EMD suitable for
// categorical values. Distributions are given as counts over the same
// category universe; counts are normalized internally.

// Ordinal categories (sortable, e.g. severity grades): the ordered EMD over
// the category bins, identical in form to the numerical case.
double OrdinalCategoricalEmd(const std::vector<size_t>& counts_p,
                             const std::vector<size_t>& counts_q);

// Nominal categories (no order): the ground distance between distinct
// categories is 1, which makes EMD collapse to total variation distance,
//   EMD = (1/2) * sum_i |p_i - q_i|.
double NominalCategoricalEmd(const std::vector<size_t>& counts_p,
                             const std::vector<size_t>& counts_q);

// Jensen-Shannon divergence (bounded, symmetric) as an alternative
// categorical dissimilarity for sensitivity analyses; natural log base,
// range [0, ln 2].
double JensenShannonDivergence(const std::vector<size_t>& counts_p,
                               const std::vector<size_t>& counts_q);

// Histogram of int32 dictionary `codes` over a dictionary of `universe`
// categories: the dense count vector the distances above take. Every code
// must lie in [0, universe) — out-of-range aborts (the .tcmb reader has
// already range-checked persisted payloads; anything else is a
// programming error).
std::vector<size_t> CountCategoryCodes(std::span<const int32_t> codes,
                                       size_t universe);

}  // namespace tcm

#endif  // TCM_DISTANCE_CATEGORICAL_H_
