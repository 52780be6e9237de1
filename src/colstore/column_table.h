#ifndef TCM_COLSTORE_COLUMN_TABLE_H_
#define TCM_COLSTORE_COLUMN_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "common/status.h"
#include "data/attribute.h"
#include "data/dataset.h"

namespace tcm {

// Column-major microdata table: one fixed-width array per attribute.
// Numeric columns are contiguous doubles; categorical columns are int32
// dictionary codes indexing Attribute::categories (the per-column interned
// dictionary). Move-only. Column pointers may alias a memory-mapped .tcmb
// file; the table keeps that mapping alive through a shared owner, so all
// spans handed out stay valid while the table — or a keep-alive copy of
// owner() — exists. TCM_CHECKs guard every column access so a stale or
// out-of-range index aborts instead of mis-reading.
class ColumnTable {
 public:
  // Storage for one column. Exactly one of numeric/codes is set (matching
  // the attribute type); the pointer either aliases the shared owner (zero
  // copy) or the column's own owned_* vector.
  struct ColumnData {
    std::vector<double> owned_numeric;
    std::vector<int32_t> owned_codes;
    const double* numeric = nullptr;
    const int32_t* codes = nullptr;
  };

  ColumnTable() = default;
  ColumnTable(const ColumnTable&) = delete;
  ColumnTable& operator=(const ColumnTable&) = delete;
  ColumnTable(ColumnTable&&) noexcept = default;
  ColumnTable& operator=(ColumnTable&&) noexcept = default;

  // Structural factory used by the .tcmb reader and tests. Checks arity and
  // per-column type/pointer consistency but deliberately does NOT validate
  // dictionary code ranges: the reader verifies payloads after checksums,
  // and fuzz tests construct intentionally-bad tables through this seam.
  static ColumnTable Make(Schema schema, size_t num_rows,
                          std::vector<ColumnData> columns,
                          std::shared_ptr<const void> owner,
                          size_t mapped_bytes, size_t copied_bytes);

  // Columnarizes a row-store dataset (full copy; no shared owner).
  static ColumnTable FromDataset(const Dataset& data);

  // Materializes the whole table as a row-store dataset.
  Dataset ToDataset() const;

  // Appends rows [begin, begin + count) to `*out`, whose schema must accept
  // them. Returns the number of Value cells materialized (for copy-byte
  // accounting). Bounds are TCM_CHECKed.
  Result<size_t> AppendRows(Dataset* out, size_t begin, size_t count) const;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.size(); }

  // Typed column views. The column index must be in range and the attribute
  // type must match (numeric vs categorical), or the process aborts.
  std::span<const double> NumericColumn(size_t col) const;
  std::span<const int32_t> CodeColumn(size_t col) const;

  // Shared keep-alive for zero-copy column storage (the mmap). Consumers
  // that stash spans beyond the table's lifetime must hold a copy.
  const std::shared_ptr<const void>& owner() const { return owner_; }

  // Byte accounting for RunReport: bytes served by the mapping vs bytes
  // copied into owned buffers while building this table.
  size_t mapped_bytes() const { return mapped_bytes_; }
  size_t copied_bytes() const { return copied_bytes_; }

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<ColumnData> columns_;
  std::shared_ptr<const void> owner_;
  size_t mapped_bytes_ = 0;
  size_t copied_bytes_ = 0;
};

}  // namespace tcm

#endif  // TCM_COLSTORE_COLUMN_TABLE_H_
