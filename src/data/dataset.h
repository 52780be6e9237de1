#ifndef TCM_DATA_DATASET_H_
#define TCM_DATA_DATASET_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/attribute.h"
#include "data/value.h"

namespace tcm {

// One row of a microdata table, as an owning value (row builders and the
// Append shim); a Dataset hands rows out as spans over its own storage.
using Record = std::vector<Value>;

// Row-store microdata table: a Schema plus n records, each with one Value
// per attribute, held in ONE contiguous row-major buffer — appending,
// copying and selecting rows cost no per-row heap allocation. This is the
// substrate every algorithm in the library operates on. Mutations
// validate against the schema; cell access is unchecked in release
// builds for speed.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t NumRecords() const { return num_records_; }
  size_t NumAttributes() const { return schema_.size(); }
  bool empty() const { return num_records_ == 0; }

  // Appends a record; InvalidArgument if the arity or any cell kind does
  // not match the schema. `record` may view a row of this dataset.
  Status Append(std::span<const Value> record);
  Status Append(const Record& record) {
    return Append(std::span<const Value>(record));
  }

  // Appends one row that `fill(std::span<Value>)` writes in place, for
  // readers that convert each cell once: no copy and no per-cell kind
  // check, so `fill` must give every cell its attribute's kind (cells
  // start as numeric zero). If `fill` returns an error the row is
  // dropped and the error returned.
  template <typename Fill>
  Status AppendInPlace(Fill&& fill) {
    const size_t width = schema_.size();
    const size_t old_size = values_.size();
    values_.resize(old_size + width);
    Status status = fill(std::span<Value>(values_.data() + old_size, width));
    if (!status.ok()) {
      values_.resize(old_size);
      return status;
    }
    ++num_records_;
    return status;
  }

  // Makes room for `rows` records without reallocating.
  void Reserve(size_t rows) { values_.reserve(rows * schema_.size()); }

  // Drops every record but keeps the buffer's capacity, so a refill up
  // to that size allocates nothing.
  void Clear() {
    values_.clear();
    num_records_ = 0;
  }

  // Row `row`, valid until the next mutation of the row count.
  std::span<const Value> record(size_t row) const {
    TCM_DCHECK(row < num_records_);
    return {values_.data() + row * schema_.size(), schema_.size()};
  }

  const Value& cell(size_t row, size_t col) const {
    TCM_DCHECK(row < num_records_);
    TCM_DCHECK(col < schema_.size());
    return values_[row * schema_.size() + col];
  }

  // Overwrites one cell; kind must match the attribute type. Writes to
  // distinct cells may run concurrently.
  Status SetCell(size_t row, size_t col, Value value);

  // Column `col` as doubles (category codes cast). Useful for statistics
  // and distance computations.
  std::vector<double> ColumnAsDouble(size_t col) const;

  // New dataset containing only the given rows; OutOfRange on a bad index.
  Result<Dataset> Select(const std::vector<size_t>& rows) const;

  // Replaces the schema roles; the attribute list must be otherwise
  // identical (same names/types), or InvalidArgument.
  Status ReplaceSchema(Schema schema);

  // Deep equality (schema names/types/roles and all cells).
  friend bool operator==(const Dataset& a, const Dataset& b);

 private:
  Schema schema_;
  std::vector<Value> values_;  // row-major, schema_.size() per row
  size_t num_records_ = 0;
};

// Builds a dataset from named numeric columns of equal length.
// InvalidArgument if lengths differ or `names`/`columns` sizes mismatch.
Result<Dataset> DatasetFromColumns(
    const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& columns,
    const std::vector<AttributeRole>& roles);

}  // namespace tcm

#endif  // TCM_DATA_DATASET_H_
