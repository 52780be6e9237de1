#ifndef TCM_PRIVACY_EQUIVALENCE_H_
#define TCM_PRIVACY_EQUIVALENCE_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

class ThreadPool;

// Groups records by exact equality of their quasi-identifier values.
// Each returned group is a list of record indices; together they cover
// every record exactly once. The equivalence classes of a released
// dataset are the unit all syntactic privacy checks operate on.
//
// Classes come in first-occurrence order with ascending members; -0.0
// and 0.0 group together. Rows are hashed (on `pool` when given), then
// one serial pass over an open-addressing table assigns class ids and a
// counting pass fills the classes: O(n) expected, and the output does
// not depend on the pool.
//
// InvalidArgument if the dataset has no quasi-identifiers.
Result<std::vector<std::vector<size_t>>> EquivalenceClasses(
    const Dataset& data, ThreadPool* pool = nullptr);

}  // namespace tcm

#endif  // TCM_PRIVACY_EQUIVALENCE_H_
