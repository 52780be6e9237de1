#ifndef TCM_DATA_CSV_STREAM_H_
#define TCM_DATA_CSV_STREAM_H_

#include <deque>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/record_source.h"

namespace tcm {

class ThreadPool;

// Incremental CSV plumbing shared by the in-memory reader (csv.h) and
// the streaming reader below. Both paths tokenize, validate and convert
// with exactly this code, so every input — well-formed or adversarial —
// receives the same verdict whether it is parsed from a string or
// streamed from a file in fixed-size chunks.
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

// Push tokenizer: Feed() raw bytes in any chunking, call Finish() at end
// of input, pull complete records with Next(). The chunking never
// changes the token stream or the verdict (fuzzed in tests). Field bytes
// live in one buffer owned by the tokenizer, so a record costs no heap
// allocation once the buffers have grown to a chunk's worth of records.
class CsvTokenizer {
 public:
  // Feeds the next chunk. Complete records become available via Next();
  // a malformed construct poisons the tokenizer after the records that
  // precede it.
  void Feed(std::string_view chunk);

  // Marks end of input, flushing a trailing record without a newline.
  // IoError if the input ends inside a quoted field.
  void Finish();

  // Pulls the next complete record into *fields. Returns true when one
  // was produced, false when more input is needed (or, after Finish(),
  // when the input is exhausted). Records queued before a malformed
  // construct are returned first; then the error. The views point into
  // the tokenizer and stay valid until the next Feed() or Finish().
  Result<bool> Next(std::vector<std::string_view>* fields);

  // 1-based physical line on which the record returned by the last
  // successful Next() began (quoted fields may span lines).
  size_t record_line() const { return last_record_line_; }

 private:
  enum class State {
    kRecordStart,  // nothing of the current record seen yet
    kFieldStart,   // just after a comma
    kUnquoted,     // inside an unquoted field
    kQuoted,       // inside a quoted field
    kQuoteSeen,    // saw '"' inside a quoted field: escape or close
  };

  void Consume(char c);
  void EndField();
  void EndRecord();
  void Fail(const std::string& message);
  // Drops the records Next() has already returned from the buffers.
  void DropPulledRecords();

  struct ReadyRecord {
    size_t fields_end = 0;  // one past its last field in field_ends_
    size_t line = 0;
  };

  State state_ = State::kRecordStart;
  bool pending_cr_ = false;   // saw CR, waiting to see if LF follows
  bool finished_ = false;
  // Bytes of every buffered field, back to back: field i spans
  // [field_ends_[i - 1], field_ends_[i]) (from 0 for the first); the
  // in-progress field is the tail after the last end.
  std::string chars_;
  std::vector<size_t> field_ends_;
  // Complete records in input order; record r owns the fields from
  // ready_[r - 1].fields_end (0 for the first) to ready_[r].fields_end.
  std::vector<ReadyRecord> ready_;
  size_t next_ready_ = 0;  // first record Next() has not returned
  Status error_ = Status::Ok();
  size_t line_ = 1;               // current physical line
  size_t record_start_line_ = 1;  // line the in-progress record began on
  size_t last_record_line_ = 1;
};

// --- Shared record-level helpers (used by both readers) ---

// True for a blank-line record: a single field that strips to empty.
bool IsBlankCsvRecord(std::span<const std::string_view> fields);

// Validates a header record against `schema`: same column count, names
// match in order after whitespace stripping.
Status ValidateCsvHeader(std::span<const std::string_view> fields,
                         const Schema& schema);

// Builds the all-numeric, role-kOther schema ReadNumericCsv infers from
// a header record.
Schema NumericSchemaFromHeader(std::span<const std::string_view> fields);

// Converts one CSV record into a schema-validated row, overwriting
// *record (its capacity is reused). `line` is the physical line the
// record began on, used in error messages. Fields are
// whitespace-stripped before interpretation; categorical fields must be
// known labels, numeric fields must parse as finite doubles (nan and
// inf are rejected: no release can be built from them).
Status CsvFieldsToRecord(std::span<const std::string_view> fields,
                         const Schema& schema, size_t line, Record* record);

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
  // Bytes read from the input per I/O call; the reader never holds more
  // than one chunk plus the records of the batch being built.
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
  // end of file. Parse errors carry the same messages as ReadCsv.
  Result<size_t> ReadInto(Dataset* out, size_t max_rows) override;

  // Records emitted so far (header excluded).
  size_t rows_read() const { return rows_read_; }

 private:
  StreamingCsvReader(std::unique_ptr<std::istream> input, Schema schema,
                     const StreamingCsvOptions& options)
      : input_(std::move(input)),
        schema_(std::move(schema)),
        options_(options) {}

  static Result<std::unique_ptr<StreamingCsvReader>> Make(
      std::unique_ptr<std::istream> input, const Schema* schema,
      const StreamingCsvOptions& options);

  // Pulls the next record from the tokenizer, feeding chunks as needed.
  // Returns false at end of input. The views live until the next call.
  Result<bool> NextRecord(std::vector<std::string_view>* fields);

  std::unique_ptr<std::istream> input_;
  Schema schema_;
  StreamingCsvOptions options_;
  CsvTokenizer tokenizer_;
  std::vector<char> chunk_;
  // Per-record scratch, reused so a batch allocates nothing per row.
  std::vector<std::string_view> fields_;
  Record record_;
  bool input_done_ = false;
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
