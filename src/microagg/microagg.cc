#include "microagg/microagg.h"

namespace tcm {

const char* MicroaggMethodName(MicroaggMethod method) {
  switch (method) {
    case MicroaggMethod::kMdav:
      return "MDAV";
    case MicroaggMethod::kVMdav:
      return "V-MDAV";
    case MicroaggMethod::kProjection:
      return "projection";
  }
  return "unknown";
}

Result<Partition> Microaggregate(const QiSpace& space, size_t k,
                                 const MicroaggOptions& options) {
  switch (options.method) {
    case MicroaggMethod::kMdav:
      return Mdav(space, k);
    case MicroaggMethod::kVMdav:
      return VMdav(space, k, options.vmdav);
    case MicroaggMethod::kProjection:
      return ProjectionMicroaggregation(space, k);
  }
  return Status::InvalidArgument("unknown microaggregation method");
}

Result<Partition> MicroaggregateRows(const QiSpace& space,
                                     const std::vector<size_t>& rows,
                                     size_t k,
                                     const MicroaggOptions& options) {
  switch (options.method) {
    case MicroaggMethod::kMdav:
      return MdavOnRows(space, rows, k);
    case MicroaggMethod::kVMdav:
      return VMdavOnRows(space, rows, k, options.vmdav);
    case MicroaggMethod::kProjection: {
      // Order the subset by the global first principal component and run
      // the optimal univariate DP on the subset's scores.
      std::vector<double> scores = PrincipalComponentScores(space);
      std::vector<double> subset_scores;
      subset_scores.reserve(rows.size());
      for (size_t row : rows) subset_scores.push_back(scores[row]);
      TCM_ASSIGN_OR_RETURN(
          Partition local,
          OptimalUnivariateMicroaggregation(subset_scores, k));
      for (Cluster& cluster : local.clusters) {
        for (size_t& index : cluster) index = rows[index];
      }
      return local;
    }
  }
  return Status::InvalidArgument("unknown microaggregation method");
}

}  // namespace tcm
