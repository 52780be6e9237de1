#include "utility/info_loss.h"

#include <cmath>

#include "data/stats.h"

namespace tcm {
namespace {

Status CheckShapes(const Dataset& original, const Dataset& anonymized) {
  if (original.NumRecords() != anonymized.NumRecords() ||
      original.NumAttributes() != anonymized.NumAttributes()) {
    return Status::InvalidArgument("dataset shapes differ");
  }
  if (original.NumRecords() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  return Status::Ok();
}

}  // namespace

Result<StatisticsPreservation> EvaluateStatisticsPreservation(
    const Dataset& original, const Dataset& anonymized) {
  TCM_RETURN_IF_ERROR(CheckShapes(original, anonymized));
  std::vector<size_t> qi = original.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }

  StatisticsPreservation out;
  std::vector<std::vector<double>> orig_cols, anon_cols;
  for (size_t col : qi) {
    orig_cols.push_back(original.ColumnAsDouble(col));
    anon_cols.push_back(anonymized.ColumnAsDouble(col));
  }

  for (size_t j = 0; j < qi.size(); ++j) {
    AttributePreservation ap;
    ap.name = original.schema().at(qi[j]).name;
    ap.mean_absolute_error =
        std::fabs(Mean(orig_cols[j]) - Mean(anon_cols[j]));
    double orig_var = Variance(orig_cols[j]);
    ap.variance_ratio =
        (orig_var > 0.0) ? Variance(anon_cols[j]) / orig_var : 1.0;
    double orig_range = Range(orig_cols[j]);
    ap.range_ratio =
        (orig_range > 0.0) ? Range(anon_cols[j]) / orig_range : 1.0;
    out.attributes.push_back(std::move(ap));
  }

  // Pairwise QI correlation preservation.
  size_t pair_count = 0;
  double pair_sum = 0.0;
  for (size_t a = 0; a < qi.size(); ++a) {
    for (size_t b = a + 1; b < qi.size(); ++b) {
      pair_sum += std::fabs(PearsonCorrelation(orig_cols[a], orig_cols[b]) -
                            PearsonCorrelation(anon_cols[a], anon_cols[b]));
      ++pair_count;
    }
  }
  out.correlation_mad =
      (pair_count > 0) ? pair_sum / static_cast<double>(pair_count) : 0.0;

  // QI <-> confidential correlation preservation.
  std::vector<size_t> conf = original.schema().ConfidentialIndices();
  size_t cross_count = 0;
  double cross_sum = 0.0;
  for (size_t col : conf) {
    std::vector<double> orig_conf = original.ColumnAsDouble(col);
    std::vector<double> anon_conf = anonymized.ColumnAsDouble(col);
    for (size_t j = 0; j < qi.size(); ++j) {
      cross_sum += std::fabs(PearsonCorrelation(orig_cols[j], orig_conf) -
                             PearsonCorrelation(anon_cols[j], anon_conf));
      ++cross_count;
    }
  }
  out.qi_confidential_correlation_mad =
      (cross_count > 0) ? cross_sum / static_cast<double>(cross_count) : 0.0;
  return out;
}

}  // namespace tcm
