#include "data/record_source.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace tcm {

Result<size_t> DatasetSource::ReadInto(Dataset* out, size_t max_rows) {
  size_t appended = 0;
  while (appended < max_rows && next_row_ < data_->NumRecords()) {
    TCM_RETURN_IF_ERROR(out->Append(data_->record(next_row_)));
    ++next_row_;
    ++appended;
  }
  return appended;
}

Result<size_t> SyntheticSource::ReadInto(Dataset* out, size_t max_rows) {
  size_t appended = 0;
  while (appended < max_rows && next_row_ < num_records_) {
    TCM_RETURN_IF_ERROR(out->Append(row_fn_()));
    ++next_row_;
    ++appended;
  }
  return appended;
}

namespace {

// QI0..QIn-1 + CONF, all numeric, with QI and confidential roles.
Schema UniformLikeSchema(size_t num_quasi_identifiers) {
  std::vector<Attribute> attrs;
  attrs.reserve(num_quasi_identifiers + 1);
  for (size_t j = 0; j < num_quasi_identifiers; ++j) {
    attrs.push_back(Attribute{"QI" + std::to_string(j),
                              AttributeType::kNumeric,
                              AttributeRole::kQuasiIdentifier,
                              {}});
  }
  attrs.push_back(Attribute{"CONF", AttributeType::kNumeric,
                            AttributeRole::kConfidential,
                            {}});
  return Schema(std::move(attrs));
}

}  // namespace

std::unique_ptr<SyntheticSource> MakeUniformSource(
    size_t num_records, size_t num_quasi_identifiers, uint64_t seed) {
  TCM_CHECK_GT(num_records, 0u);
  TCM_CHECK_GT(num_quasi_identifiers, 0u);
  // Row-major draws (all of row i before row i+1) from one RNG carried
  // across calls.
  auto row_fn = [rng = Rng(seed), num_quasi_identifiers]() mutable {
    Record record;
    record.reserve(num_quasi_identifiers + 1);
    for (size_t j = 0; j <= num_quasi_identifiers; ++j) {
      record.push_back(Value::Numeric(rng.NextDouble()));
    }
    return record;
  };
  return std::make_unique<SyntheticSource>(
      UniformLikeSchema(num_quasi_identifiers), num_records,
      std::move(row_fn));
}

std::unique_ptr<SyntheticSource> MakeClusteredSource(
    size_t num_records, size_t num_quasi_identifiers, size_t num_modes,
    uint64_t seed) {
  TCM_CHECK_GT(num_records, 0u);
  TCM_CHECK_GT(num_quasi_identifiers, 0u);
  TCM_CHECK_GT(num_modes, 0u);
  // The mode centres are drawn up front, then the rows row-major, all
  // from one RNG. Centres sit on a coarse grid so modes are well
  // separated.
  Rng rng(seed);
  std::vector<std::vector<double>> centres(num_modes);
  for (size_t m = 0; m < num_modes; ++m) {
    centres[m].resize(num_quasi_identifiers);
    for (size_t j = 0; j < num_quasi_identifiers; ++j) {
      centres[m][j] = 10.0 * static_cast<double>(rng.NextBounded(10));
    }
  }
  auto row_fn = [rng, centres = std::move(centres), num_quasi_identifiers,
                 num_modes]() mutable {
    Record record;
    record.reserve(num_quasi_identifiers + 1);
    size_t mode = static_cast<size_t>(rng.NextBounded(num_modes));
    for (size_t j = 0; j < num_quasi_identifiers; ++j) {
      record.push_back(Value::Numeric(centres[mode][j] + rng.NextGaussian()));
    }
    // Confidential value tied to the mode with noise: moderate dependence.
    record.push_back(Value::Numeric(static_cast<double>(mode) +
                                    0.75 * rng.NextGaussian()));
    return record;
  };
  return std::make_unique<SyntheticSource>(
      UniformLikeSchema(num_quasi_identifiers), num_records,
      std::move(row_fn));
}

}  // namespace tcm
