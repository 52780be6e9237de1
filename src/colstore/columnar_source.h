#ifndef TCM_COLSTORE_COLUMNAR_SOURCE_H_
#define TCM_COLSTORE_COLUMNAR_SOURCE_H_

#include <memory>
#include <string>
#include <utility>

#include "colstore/column_table.h"
#include "common/result.h"
#include "data/record_source.h"

namespace tcm {

// Streams a ColumnTable as records: the .tcmb counterpart of
// StreamingCsvReader. Rows are materialized batch by batch straight from
// the (usually memory-mapped) columns — categorical cells carry their
// dictionary codes directly, so there is no per-cell label lookup the way
// the CSV reader pays per field. The source owns the table and therefore
// the mapping keep-alive.
class ColumnarSource : public RecordSource {
 public:
  // Memory-maps and parses a .tcmb file (see tcmb.h for the error
  // contract: IoError for damage, InvalidSpec for format mismatch).
  static Result<std::unique_ptr<ColumnarSource>> Open(const std::string& path);

  explicit ColumnarSource(ColumnTable table) : table_(std::move(table)) {}

  const Schema& schema() const override { return table_.schema(); }

  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

  const ColumnTable& table() const { return table_; }
  size_t rows_read() const { return next_row_; }

  // Byte accounting for RunReport: bytes served zero-copy by the mapping,
  // and payload bytes materialized into row batches so far.
  size_t mapped_bytes() const { return table_.mapped_bytes(); }
  size_t copied_bytes() const {
    return table_.copied_bytes() + materialized_bytes_;
  }

 private:
  ColumnTable table_;
  size_t next_row_ = 0;
  size_t materialized_bytes_ = 0;
};

}  // namespace tcm

#endif  // TCM_COLSTORE_COLUMNAR_SOURCE_H_
