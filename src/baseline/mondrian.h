#ifndef TCM_BASELINE_MONDRIAN_H_
#define TCM_BASELINE_MONDRIAN_H_

#include "common/result.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "microagg/partition.h"

namespace tcm {

// Mondrian multidimensional partitioning (LeFevre et al. 2006), the
// generalization-style baseline the paper's related work adapts to
// t-closeness (Li et al. 2010), with the t-closeness constraint folded
// into the split test. Relaxed variant: recursively split the record set
// on the quasi-identifier with the widest normalized spread at the index
// median, taking a split only when both halves keep >= k records and have
// EMD <= t against the whole data set. Leaves become clusters, so the
// resulting release is k-anonymous AND t-close (the root always satisfies
// EMD = 0).
//
// InvalidArgument if k == 0, k > n or t < 0.
Result<Partition> MondrianTClosePartition(const QiSpace& space,
                                          const EmdCalculator& emd, size_t k,
                                          double t);

}  // namespace tcm

#endif  // TCM_BASELINE_MONDRIAN_H_
