#include "baseline/recoding.h"

#include <algorithm>
#include <cmath>

#include "data/stats.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// Discretizes every QI column of `data` into `bins[j]` equal-width bins,
// writing bin centres. One bin maps the whole column to its midpoint.
Result<Dataset> RecodeToBins(const Dataset& data,
                             const std::vector<size_t>& qi,
                             const std::vector<size_t>& bins) {
  Dataset out = data;
  for (size_t j = 0; j < qi.size(); ++j) {
    std::vector<double> col = data.ColumnAsDouble(qi[j]);
    double lo = Min(col);
    double width = Range(col);
    size_t b = std::max<size_t>(1, bins[j]);
    for (size_t row = 0; row < col.size(); ++row) {
      double centre;
      if (width <= 0.0 || b == 1) {
        centre = lo + width / 2.0;
      } else {
        double relative = (col[row] - lo) / width;  // in [0, 1]
        size_t bin = std::min<size_t>(b - 1, static_cast<size_t>(
                                                 relative * static_cast<double>(b)));
        double bin_width = width / static_cast<double>(b);
        centre = lo + (static_cast<double>(bin) + 0.5) * bin_width;
      }
      TCM_RETURN_IF_ERROR(out.SetCell(row, qi[j], Value::Numeric(centre)));
    }
  }
  return out;
}

}  // namespace

Result<RecodingResult> GlobalRecodingAnonymize(const Dataset& data, size_t k,
                                               const RecodingOptions& options) {
  const size_t n = data.NumRecords();
  if (n < 2) {
    return Status::InvalidArgument("need at least 2 records");
  }
  std::vector<size_t> qi = data.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  if (data.schema().ConfidentialIndices().empty()) {
    return Status::InvalidArgument("dataset has no confidential attribute");
  }
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  if (options.initial_bins == 0) {
    return Status::InvalidArgument("initial_bins must be positive");
  }

  std::vector<size_t> bins(qi.size(), options.initial_bins);
  size_t coarsenings = 0;
  while (true) {
    TCM_ASSIGN_OR_RETURN(Dataset candidate, RecodeToBins(data, qi, bins));
    TCM_ASSIGN_OR_RETURN(ReleaseVerification verification,
                         CheckRelease(candidate, k, options.t));
    if (verification.k_anonymous &&
        (options.t < 0.0 || verification.t_close)) {
      RecodingResult result{std::move(candidate), bins, coarsenings};
      return result;
    }
    // Coarsen the attribute with the most bins (ties -> first).
    size_t widest = 0;
    for (size_t j = 1; j < bins.size(); ++j) {
      if (bins[j] > bins[widest]) widest = j;
    }
    if (bins[widest] <= 1) {
      // Fully generalized and still failing — impossible: one bin per
      // attribute is a single equivalence class.
      return Status::Internal("recoding lattice exhausted");
    }
    bins[widest] = std::max<size_t>(1, bins[widest] / 2);
    ++coarsenings;
  }
}

}  // namespace tcm
