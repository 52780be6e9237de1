#ifndef TCM_DATA_RECORD_SOURCE_H_
#define TCM_DATA_RECORD_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// A bounded-memory stream of records sharing one schema: the input side
// of the streaming execution layer. Sources are pull-based and
// single-pass — callers drain them batch by batch and never hold more
// rows than they asked for. Implementations: StreamingCsvReader
// (csv_stream.h), DatasetSource and SyntheticSource (below).
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  // Schema every emitted record conforms to.
  virtual const Schema& schema() const = 0;

  // Appends up to `max_rows` records to `*out` (whose schema must accept
  // them) and returns the number appended. Reads until `max_rows` or the
  // end of the stream, so a return value smaller than `max_rows` means
  // the stream is exhausted; 0 means it already was.
  virtual Result<size_t> ReadInto(Dataset* out, size_t max_rows) = 0;
};

// Streams an in-memory dataset. Non-owning: the dataset must outlive the
// source. Adapts existing tables (and tests) to streaming consumers.
class DatasetSource : public RecordSource {
 public:
  explicit DatasetSource(const Dataset* data) : data_(data) {}

  const Schema& schema() const override { return data_->schema(); }
  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

 private:
  const Dataset* data_;
  size_t next_row_ = 0;
};

// Streams synthetic records from a row callback without materializing
// the dataset — the generator-backed source for million-row workloads.
// The callback is invoked exactly once per emitted row, in row order, so
// a generator that carries its RNG in the closure draws the same rows
// however the stream is split into batches.
class SyntheticSource : public RecordSource {
 public:
  using RowFn = std::function<Record()>;

  SyntheticSource(Schema schema, size_t num_records, RowFn row_fn)
      : schema_(std::move(schema)),
        num_records_(num_records),
        row_fn_(std::move(row_fn)) {}

  const Schema& schema() const override { return schema_; }
  size_t num_records() const { return num_records_; }
  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

 private:
  Schema schema_;
  size_t num_records_;
  size_t next_row_ = 0;
  RowFn row_fn_;
};

// The uniform and clustered synthetic workloads (QI0..QIn-1 + CONF, all
// numeric). These are the only place their rows are drawn: the batch
// generators MakeUniformDataset / MakeClusteredDataset (generator.h) read
// every row of them, so streamed and in-memory runs of a synthetic
// workload see the same data.
std::unique_ptr<SyntheticSource> MakeUniformSource(
    size_t num_records, size_t num_quasi_identifiers, uint64_t seed);
std::unique_ptr<SyntheticSource> MakeClusteredSource(
    size_t num_records, size_t num_quasi_identifiers, size_t num_modes,
    uint64_t seed);

}  // namespace tcm

#endif  // TCM_DATA_RECORD_SOURCE_H_
