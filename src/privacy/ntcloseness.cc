#include "privacy/ntcloseness.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "distance/emd.h"
#include "distance/qi_space.h"
#include "privacy/equivalence.h"

namespace tcm {
namespace {

// EMD (ordered ground distance) between the confidential distribution of
// `subset` and that of `superset`, with the superset's records as bins.
// `subset` must be contained in `superset`.
double SubsetEmd(const std::vector<double>& confidential,
                 const std::vector<size_t>& subset,
                 std::vector<size_t> superset) {
  std::stable_sort(superset.begin(), superset.end(),
                   [&](size_t a, size_t b) {
                     return confidential[a] < confidential[b];
                   });
  std::unordered_set<size_t> members(subset.begin(), subset.end());
  const size_t m = superset.size();
  std::vector<double> p(m, 0.0), q(m, 1.0 / static_cast<double>(m));
  double share = 1.0 / static_cast<double>(subset.size());
  for (size_t i = 0; i < m; ++i) {
    if (members.count(superset[i]) > 0) p[i] = share;
  }
  return OrderedEmd(p, q);
}

}  // namespace

Result<NTClosenessReport> EvaluateNTCloseness(const Dataset& data,
                                              size_t min_superset_size) {
  const auto confidential_cols = data.schema().ConfidentialIndices();
  if (confidential_cols.empty()) {
    return Status::InvalidArgument("confidential attribute not available");
  }
  if (data.NumRecords() < 2) {
    return Status::InvalidArgument("need at least 2 records");
  }
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(data));
  const size_t n_records = data.NumRecords();
  const size_t superset_size = std::min(min_superset_size, n_records);

  QiSpace space(data);
  std::vector<double> confidential =
      data.ColumnAsDouble(confidential_cols.front());
  std::vector<size_t> all(n_records);
  for (size_t i = 0; i < n_records; ++i) all[i] = i;

  NTClosenessReport report;
  report.num_equivalence_classes = classes.size();
  double total = 0.0;
  for (const auto& group : classes) {
    double emd = 0.0;
    if (group.size() < superset_size) {
      // Natural superset: the records nearest to the class centroid in
      // (released) QI space. The class members share the centroid value,
      // so they are the nearest and always included.
      std::vector<double> centroid = space.Centroid(group);
      std::vector<std::pair<double, size_t>> scored;
      scored.reserve(n_records);
      for (size_t row : all) {
        scored.emplace_back(space.SquaredDistanceToPoint(row, centroid), row);
      }
      std::partial_sort(scored.begin(), scored.begin() + superset_size,
                        scored.end());
      std::vector<size_t> superset;
      superset.reserve(superset_size);
      for (size_t i = 0; i < superset_size; ++i) {
        superset.push_back(scored[i].second);
      }
      // Defensive: make sure every class member made it into the ball
      // (ties at the boundary could in principle push one out).
      std::unordered_set<size_t> in_ball(superset.begin(), superset.end());
      for (size_t row : group) {
        if (in_ball.insert(row).second) superset.push_back(row);
      }
      emd = SubsetEmd(confidential, group, std::move(superset));
    }
    report.max_emd = std::max(report.max_emd, emd);
    total += emd;
  }
  if (!classes.empty()) {
    report.mean_emd = total / static_cast<double>(classes.size());
  }
  return report;
}

}  // namespace tcm
