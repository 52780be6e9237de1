#ifndef TCM_MICROAGG_MICROAGG_H_
#define TCM_MICROAGG_MICROAGG_H_

#include "common/result.h"
#include "distance/qi_space.h"
#include "microagg/aggregate.h"
#include "microagg/mdav.h"
#include "microagg/partition.h"
#include "microagg/univariate.h"
#include "microagg/vmdav.h"

namespace tcm {

// Convenience front-end over the microaggregation heuristics.
enum class MicroaggMethod {
  kMdav,
  kVMdav,
  // First-principal-component projection + optimal univariate DP.
  kProjection,
};

const char* MicroaggMethodName(MicroaggMethod method);

struct MicroaggOptions {
  MicroaggMethod method = MicroaggMethod::kMdav;
  VMdavOptions vmdav;  // used only when method == kVMdav
};

// Partitions the records of `space` into clusters of at least k records
// using the selected heuristic.
Result<Partition> Microaggregate(const QiSpace& space, size_t k,
                                 const MicroaggOptions& options = {});

// Same, restricted to a subset of rows: clusters contain indices from
// `rows` only. V-MDAV uses the subset centroid as its extreme-point
// reference; the projection method orders the subset by the global first
// principal component. Used by chunked microaggregation.
Result<Partition> MicroaggregateRows(const QiSpace& space,
                                     const std::vector<size_t>& rows,
                                     size_t k,
                                     const MicroaggOptions& options = {});

}  // namespace tcm

#endif  // TCM_MICROAGG_MICROAGG_H_
