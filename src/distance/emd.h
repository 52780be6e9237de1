#ifndef TCM_DISTANCE_EMD_H_
#define TCM_DISTANCE_EMD_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace tcm {

// Earth Mover's Distance with the ordered (rank) ground distance, as used
// by t-closeness for numerical attributes (Li et al. 2007, and Props. 1-2
// of Soria-Comas et al.). Two granularities are provided:
//
//  * Distribution-level: EMD between two probability vectors over the same
//    ordered support of m bins,
//        EMD(P,Q) = (1/(m-1)) * sum_i |sum_{j<=i} (p_j - q_j)|.
//
//  * Record-level (EmdCalculator): the reference distribution places mass
//    1/n on each record of the data set in confidential-attribute order
//    (each record is its own bin; tied values take ascending bins in row
//    order, the stable SortOrder of data/stats.h); a cluster of c records
//    places mass 1/c on its members' bins. This is the formulation the
//    paper's bounds assume.

// Distribution-level ordered EMD; `p` and `q` must have equal size >= 1 and
// each should sum to ~1 (not enforced; the formula is linear in the bins).
double OrderedEmd(const std::vector<double>& p, const std::vector<double>& q);

// Record-level ordered EMD for one data set's confidential attribute.
// Construction is one radix SortOrder, O(n); cluster evaluations are O(c)
// after an O(c log c) sort of member ranks, independent of n, via the
// closed-form piecewise evaluation of the cumulative difference.
class EmdCalculator {
 public:
  // Ranks `data`'s first confidential attribute, which must exist.
  explicit EmdCalculator(const Dataset& data);

  // Constructs directly from the confidential column (used by tests).
  explicit EmdCalculator(const std::vector<double>& confidential_values);

  size_t num_records() const { return static_cast<size_t>(n_); }

  // 0-based position of `row` in the confidential sort order.
  uint32_t RankOf(size_t row) const { return ranks_[row]; }

  // EMD between the cluster containing `rows` and the whole data set.
  // Requires a non-empty cluster; rows must be distinct.
  double ClusterEmd(const std::vector<size_t>& rows) const;

  // Same, but from 0-based ranks sorted ascending (no duplicates).
  double EmdFromSortedRanks(const std::vector<uint32_t>& sorted_ranks) const;

  // O(n + c) reference implementation (direct cumulative sums); the test
  // oracle for EmdFromSortedRanks.
  double ReferenceClusterEmd(const std::vector<size_t>& rows) const;

 private:
  int64_t n_ = 0;
  std::vector<uint32_t> ranks_;  // ranks_[row] = sorted position of row
};

}  // namespace tcm

#endif  // TCM_DISTANCE_EMD_H_
