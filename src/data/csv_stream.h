#ifndef TCM_DATA_CSV_STREAM_H_
#define TCM_DATA_CSV_STREAM_H_

#include <fstream>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/record_source.h"

namespace tcm {

class ThreadPool;

// Incremental CSV plumbing shared by the in-memory reader (csv.h), the
// streaming reader below and the .tcmb converter, which all scan with
// CsvScanner. The two readers also validate and convert with the same
// code, so every input — well-formed or adversarial — receives the same
// verdict whether it is parsed from a string or streamed from a file in
// fixed-size chunks.
//
// Dialect: RFC 4180 with pragmatic relaxations.
//   - Records end at LF or CRLF; the final record may omit the newline.
//   - A field starting with '"' is quoted: it may contain commas,
//     newlines and doubled quotes ("" -> "); the closing quote must be
//     followed by a comma, a record end, or end of input.
//   - A '"' inside an unquoted field, a closing quote followed by other
//     characters, and an unterminated quote at end of input are errors.
//   - A lone CR inside an unquoted field is kept as data (field-level
//     whitespace stripping later removes it at field edges).
//   - Records consisting of a single whitespace-only field (blank lines)
//     are skipped by the readers, matching the line-based parser.
//   - Whitespace is the C locale's set, whatever the process locale:
//     space and '\t' through '\r' (StripWhitespace in strings.h).

// Where a CsvScanner gets its bytes: writes up to `size` bytes at `dst`
// and returns how many it wrote; 0 means end of input.
using CsvByteSource = std::function<Result<size_t>(char* dst, size_t size)>;

// A CsvByteSource reading `input`, which must outlive it; a failed read
// is an IoError with message `error`.
CsvByteSource IstreamByteSource(std::istream* input, std::string error);

// Pull scanner: Next() yields one record at a time, asking `source` for
// `chunk_bytes` more input whenever the record in progress runs past the
// bytes buffered. It owns one contiguous buffer holding the unconsumed
// tail plus the next chunk, which grows only when one record is longer
// than a chunk. Records are scanned in place, each input byte once: a
// field is a view into that buffer, and a quoted field's doubled quotes
// are unescaped in place. The chunking never changes the records or the
// verdict (fuzzed in tests).
class CsvScanner {
 public:
  CsvScanner(CsvByteSource source, size_t chunk_bytes);

  // Pulls the next record into *fields. Returns true when one was
  // produced, false at end of input. A malformed construct is an IoError
  // naming its physical line, returned after every record before it and
  // by every later call. The views stay valid until the next call.
  Result<bool> Next(std::vector<std::string_view>* fields);

  // 1-based physical line on which the record returned by the last
  // successful Next() began (quoted fields may span lines).
  size_t record_line() const { return record_line_; }

 private:
  enum class State {
    kFieldStart,  // at the first byte of a field
    kUnquoted,    // inside an unquoted field
    kQuoted,      // inside a quoted field
  };
  enum class Step { kRecord, kNeedMore, kEnd, kError };

  // Scans from the resume point to the end of the current record, or to
  // the end of the buffered bytes (kNeedMore; scanning resumes there).
  Step Scan();
  // Closes the record at buffer offset rec_ + `length`.
  Step EndRecord(size_t length);
  Step Fail(const char* message);
  // Moves the unconsumed tail to the front and appends the next chunk.
  Status Refill();

  CsvByteSource source_;
  size_t chunk_bytes_;
  std::vector<char> buffer_;
  size_t rec_ = 0;  // buffer offset of the record in progress
  size_t end_ = 0;  // buffer offset one past the last byte read
  bool input_done_ = false;
  // Scan state of the record in progress; offsets are relative to rec_,
  // so they survive Refill moving the record to the front.
  State state_ = State::kFieldStart;
  size_t pos_ = 0;          // where scanning resumes
  size_t field_begin_ = 0;  // first byte of the field in progress
  size_t write_ = 0;        // unescape cursor of a quoted field
  // Completed fields of the record in progress: [begin, end) pairs.
  std::vector<std::pair<size_t, size_t>> spans_;
  Status error_ = Status::Ok();
  size_t line_ = 1;        // physical line of the byte at pos_
  size_t start_line_ = 1;  // line the record in progress began on
  size_t record_line_ = 1;
};

// True for a blank-line record: a single field that strips to empty.
// The readers skip such records.
bool IsBlankCsvRecord(std::span<const std::string_view> fields);

// --- Shared formatting (used by WriteCsv and StreamingCsvWriter) ---

// Appends the header line (attribute names + '\n'). Names containing
// separators or quotes are RFC 4180-quoted.
void AppendCsvHeader(const Schema& schema, std::string* out);

// Appends one data row + '\n'. Numeric cells print with 17 significant
// digits (doubles round-trip exactly); categorical cells print their
// label, quoted when it contains separators or quotes.
void AppendCsvRow(const Dataset& data, size_t row, std::string* out);

// The one row-emission loop behind WriteCsv and StreamingCsvWriter, so
// their bytes cannot drift apart. Rows are formatted in chunks of
// kRowsPerChunk; with a pool, each round formats up to one chunk per
// thread concurrently and then writes the round's chunks in row order.
// Rounds bound the formatted bytes held at once, and the chunk buffers
// are kept for the next call. The bytes never depend on the pool.
class CsvRowWriter {
 public:
  static constexpr size_t kRowsPerChunk = 4096;

  // Writes every row of `data` (no header) to `out`.
  void Write(const Dataset& data, std::ostream& out,
             ThreadPool* pool = nullptr);

 private:
  std::vector<std::string> chunks_;
};

// --- Streaming reader / writer ---

struct StreamingCsvOptions {
  // Bytes read from the input per I/O call; the reader holds one chunk
  // plus at most one partial record (see CsvScanner).
  size_t buffer_bytes = 1 << 16;
};

// Pull-based CSV record stream over a file (or any istream): the
// streaming counterpart of ReadCsv/ReadNumericCsv. The header is parsed
// at open; ReadInto() then yields records batch by batch without ever
// buffering the whole file.
class StreamingCsvReader : public RecordSource {
 public:
  // Opens `path`; the header must match `schema` (same error messages as
  // ReadCsv).
  static Result<std::unique_ptr<StreamingCsvReader>> Open(
      const std::string& path, const Schema& schema,
      const StreamingCsvOptions& options = {});

  // Opens `path`, inferring an all-numeric schema from the header (the
  // streaming counterpart of ReadNumericCsv).
  static Result<std::unique_ptr<StreamingCsvReader>> OpenNumeric(
      const std::string& path, const StreamingCsvOptions& options = {});

  // In-memory/test variants over an owned istream.
  static Result<std::unique_ptr<StreamingCsvReader>> FromStream(
      std::unique_ptr<std::istream> input, const Schema& schema,
      const StreamingCsvOptions& options = {});
  static Result<std::unique_ptr<StreamingCsvReader>> FromStreamNumeric(
      std::unique_ptr<std::istream> input,
      const StreamingCsvOptions& options = {});

  const Schema& schema() const override { return schema_; }

  // Replaces the schema (e.g. to assign roles after OpenNumeric). The
  // attribute names and types must be unchanged.
  Status ReplaceSchema(Schema schema);

  // RecordSource: appends up to max_rows records; a short count means
  // end of file. Each field is stripped and converted once, straight
  // into a new row of `out`. Parse errors carry the same messages as
  // ReadCsv; a window whose cell kinds differ from schema() is an
  // InvalidArgument (Dataset::Append's message) before any row is read.
  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

  // Records emitted so far (header excluded).
  size_t rows_read() const { return rows_read_; }

 private:
  StreamingCsvReader(std::unique_ptr<std::istream> input, Schema schema,
                     const StreamingCsvOptions& options);

  static Result<std::unique_ptr<StreamingCsvReader>> Make(
      std::unique_ptr<std::istream> input, const Schema* schema,
      const StreamingCsvOptions& options);

  std::unique_ptr<std::istream> input_;
  Schema schema_;
  CsvScanner scanner_;
  // Per-record scratch, reused so a batch allocates nothing per row.
  std::vector<std::string_view> fields_;
  size_t rows_read_ = 0;
};

// Append-as-you-go CSV writer: the write tail of the streaming pipeline.
// Writes the header at Open, then rows batch by batch; the bytes are
// identical to WriteCsv of the concatenated batches.
class StreamingCsvWriter {
 public:
  static Result<std::unique_ptr<StreamingCsvWriter>> Open(
      const std::string& path, const Schema& schema);

  // Appends every row of `batch` (whose schema must have the same names
  // and types as the writer's), formatting on `pool` when given.
  Status WriteRows(const Dataset& batch, ThreadPool* pool = nullptr);

  // Flushes and checks the stream; further writes are invalid.
  Status Close();

  size_t rows_written() const { return rows_written_; }

 private:
  StreamingCsvWriter(std::ofstream file, const std::string& path)
      : file_(std::move(file)), path_(path) {}

  std::ofstream file_;
  std::string path_;
  CsvRowWriter rows_;
  size_t rows_written_ = 0;
};

}  // namespace tcm

#endif  // TCM_DATA_CSV_STREAM_H_
