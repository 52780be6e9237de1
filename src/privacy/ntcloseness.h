#ifndef TCM_PRIVACY_NTCLOSENESS_H_
#define TCM_PRIVACY_NTCLOSENESS_H_

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// (n, t)-Closeness (Li, Li & Venkatasubramanian, TKDE 2010) — the
// relaxation the paper says its methods are "easily adaptable to": an
// equivalence class E satisfies (n, t)-closeness when there exists a
// *natural superset* of E with at least n records whose confidential
// distribution is within t of E's. Intuition: learning that a subject
// lives in a large neighbourhood-sized population is acceptable; only
// deviations from every sufficiently large surrounding population leak.
//
// Natural supersets here are QI-balls: the superset of E is E plus the
// records closest to E's QI centroid, grown until it holds >= n records
// (the whole data set is always a fallback, so (n_total, t) reduces to
// plain t-closeness).

struct NTClosenessReport {
  size_t num_equivalence_classes = 0;
  double max_emd = 0.0;   // max over classes of EMD(E, superset(E))
  double mean_emd = 0.0;
};

// EMD between a class and its natural superset, maximized over classes.
// `min_superset_size` is the model's n parameter. InvalidArgument on
// missing roles; min_superset_size is clamped to the data set size.
// Reads the schema's first confidential attribute.
Result<NTClosenessReport> EvaluateNTCloseness(const Dataset& data,
                                              size_t min_superset_size);

}  // namespace tcm

#endif  // TCM_PRIVACY_NTCLOSENESS_H_
