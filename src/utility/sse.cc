#include "utility/sse.h"

#include "data/stats.h"
#include "engine/thread_pool.h"

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
                                           const std::vector<size_t>& attrs,
                                           ThreadPool* pool) {
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

  // Per-row terms on the pool, summed serially in row order, so the
  // total is the same double for any pool.
  std::vector<double> terms(n);
  ParallelForRanges(pool, n, [&](size_t begin, size_t end) {
    for (size_t row = begin; row < end; ++row) {
      double record_sum = 0.0;
      for (size_t j = 0; j < m; ++j) {
        double diff = (original.cell(row, attrs[j]).AsDouble() -
                       anonymized.cell(row, attrs[j]).AsDouble()) *
                      inv_range[j];
        record_sum += diff * diff;
      }
      terms[row] = record_sum / static_cast<double>(m);
    }
  });
  double total = 0.0;
  for (double term : terms) total += term;
  return total / static_cast<double>(n);
}

Result<double> NormalizedSse(const Dataset& original,
                             const Dataset& anonymized, ThreadPool* pool) {
  std::vector<size_t> qi = original.schema().QuasiIdentifierIndices();
  if (qi.empty()) {
    return Status::InvalidArgument("dataset has no quasi-identifiers");
  }
  return NormalizedSseOverAttributes(original, anonymized, qi, pool);
}

}  // namespace tcm
