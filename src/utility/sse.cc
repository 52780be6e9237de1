#include "utility/sse.h"

#include "data/stats.h"

namespace tcm {
namespace {

Status CheckShapes(const Dataset& original, const Dataset& anonymized) {
  if (original.NumRecords() != anonymized.NumRecords()) {
    return Status::InvalidArgument("record counts differ");
  }
  if (original.NumAttributes() != anonymized.NumAttributes()) {
    return Status::InvalidArgument("attribute counts differ");
  }
  if (original.NumRecords() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  return Status::Ok();
}

}  // namespace

Result<double> NormalizedSseOverAttributes(const Dataset& original,
                                           const Dataset& anonymized,
                                           const std::vector<size_t>& attrs) {
  TCM_RETURN_IF_ERROR(CheckShapes(original, anonymized));
  if (attrs.empty()) {
    return Status::InvalidArgument("no attributes to evaluate");
  }
  const size_t n = original.NumRecords();
  const size_t m = attrs.size();

  // Per-attribute inverse ranges from the original data.
  std::vector<double> inv_range(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    if (attrs[j] >= original.NumAttributes()) {
      return Status::OutOfRange("attribute index out of range");
    }
    double range = Range(original.ColumnAsDouble(attrs[j]));
    inv_range[j] = (range > 0.0) ? 1.0 / range : 0.0;
  }

  double total = 0.0;
  for (size_t row = 0; row < n; ++row) {
    double record_sum = 0.0;
    for (size_t j = 0; j < m; ++j) {
      double diff = (original.cell(row, attrs[j]).AsDouble() -
                     anonymized.cell(row, attrs[j]).AsDouble()) *
                    inv_range[j];
      record_sum += diff * diff;
    }
    total += record_sum / static_cast<double>(m);
  }
  return total / static_cast<double>(n);
}

Result<double> NormalizedSse(const Dataset& original,
                             const Dataset& anonymized) {
  std::vector<size_t> qi = original.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  return NormalizedSseOverAttributes(original, anonymized, qi);
}

}  // namespace tcm
