#include "data/csv_stream.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <istream>
#include <utility>

#include "common/strings.h"
#include "engine/thread_pool.h"

namespace tcm {

// --- CsvScanner ---

namespace {

// The bytes an unquoted field ends at; the scan skips every other byte.
constexpr std::array<bool, 256> kEndsUnquoted = [] {
  std::array<bool, 256> table{};
  for (unsigned char c : {',', '\n', '\r', '"'}) table[c] = true;
  return table;
}();

// Returns the first index in [i, n) whose byte is in kEndsUnquoted, or n.
size_t SkipUnquoted(const char* p, size_t i, size_t n) {
  while (i < n && !kEndsUnquoted[static_cast<unsigned char>(p[i])]) ++i;
  return i;
}

}  // namespace

CsvByteSource IstreamByteSource(std::istream* input, std::string error) {
  return [input, error = std::move(error)](char* dst,
                                           size_t size) -> Result<size_t> {
    input->read(dst, static_cast<std::streamsize>(size));
    if (input->bad()) return Status::IoError(error);
    return static_cast<size_t>(input->gcount());
  };
}

CsvScanner::CsvScanner(CsvByteSource source, size_t chunk_bytes)
    : source_(std::move(source)), chunk_bytes_(chunk_bytes) {}

Result<bool> CsvScanner::Next(std::vector<std::string_view>* fields) {
  while (error_.ok()) {
    const char* const record = buffer_.data() + rec_;
    switch (Scan()) {
      case Step::kRecord:
        fields->clear();
        for (const auto& [begin, end] : spans_) {
          fields->emplace_back(record + begin, end - begin);
        }
        spans_.clear();
        return true;
      case Step::kEnd:
        return false;
      case Step::kError:
        break;
      case Step::kNeedMore:
        if (Status status = Refill(); !status.ok()) error_ = status;
        break;
    }
  }
  return error_;
}

// One pass per record: an unquoted field is skipped to the next byte of
// kEndsUnquoted, a quoted one to its next quote. Where the decision
// needs bytes not read yet (a CR's or a quote's successor), the scan
// stops before the deciding byte and resumes there after the refill.
CsvScanner::Step CsvScanner::Scan() {
  char* const rec = buffer_.data() + rec_;
  const size_t avail = end_ - rec_;
  size_t i = pos_;
  while (true) {
    if (state_ == State::kFieldStart) {
      if (i == avail) {
        if (!input_done_) break;
        if (spans_.empty()) return Step::kEnd;  // no record left
        spans_.emplace_back(i, i);  // empty last field of "x,<EOF>"
        return EndRecord(i);
      }
      if (rec[i] == '"') {
        state_ = State::kQuoted;
        field_begin_ = write_ = ++i;
        continue;
      }
      state_ = State::kUnquoted;
      field_begin_ = i;
    }
    if (state_ == State::kUnquoted) {
      i = SkipUnquoted(rec, i, avail);
      if (i == avail) {
        if (!input_done_) break;
        spans_.emplace_back(field_begin_, i);
        return EndRecord(i);
      }
      const char c = rec[i];
      if (c == '"') return Fail("quote character inside unquoted field");
      if (c == ',') {
        spans_.emplace_back(field_begin_, i);
        state_ = State::kFieldStart;
        ++i;
        continue;
      }
      // LF, or CR: the record end when LF follows, data otherwise.
      const size_t terminator = c == '\n' ? 1 : 2;
      if (c == '\r') {
        if (i + 1 == avail && !input_done_) break;
        if (i + 1 == avail || rec[i + 1] != '\n') {
          ++i;
          continue;
        }
      }
      spans_.emplace_back(field_begin_, i);
      ++line_;
      return EndRecord(i + terminator);
    }
    // kQuoted: moves the field's bytes down over each "" escape.
    const char* quote = static_cast<const char*>(
        std::memchr(rec + i, '"', avail - i));
    const size_t stop = quote == nullptr ? avail : quote - rec;
    line_ += static_cast<size_t>(std::count(rec + i, rec + stop, '\n'));
    if (write_ != i) std::memmove(rec + write_, rec + i, stop - i);
    write_ += stop - i;
    i = stop;
    if (i == avail) {
      if (!input_done_) break;
      return Fail("unterminated quoted field at end of input");
    }
    // rec[i] is a quote: a "" escape, or the closing quote, which must
    // be followed by a comma, LF, CRLF or the end of input (where a lone
    // CR still ends the record).
    const char* const after = rec + i + 1;
    const size_t left = avail - i - 1;  // bytes read past the quote
    if (left == 0 && !input_done_) break;
    if (left > 0 && after[0] == '"') {
      rec[write_++] = '"';
      i += 2;
      continue;
    }
    size_t terminator = 0;  // bytes after the quote that end the field
    if (left > 0) {
      if (after[0] == ',' || after[0] == '\n') {
        terminator = 1;
      } else if (after[0] != '\r') {
        return Fail("unexpected character after closing quote");
      } else if (left > 1) {
        if (after[1] != '\n') {
          return Fail("unexpected character after closing quote");
        }
        terminator = 2;
      } else if (!input_done_) {
        break;
      } else {
        terminator = 1;
      }
    }
    spans_.emplace_back(field_begin_, write_);
    if (terminator == 1 && after[0] == ',') {
      state_ = State::kFieldStart;
      i += 2;
      continue;
    }
    if (terminator > 0 && after[terminator - 1] == '\n') ++line_;
    return EndRecord(i + 1 + terminator);
  }
  pos_ = i;
  return Step::kNeedMore;
}

CsvScanner::Step CsvScanner::EndRecord(size_t length) {
  record_line_ = start_line_;
  start_line_ = line_;
  rec_ += length;
  pos_ = 0;
  state_ = State::kFieldStart;
  return Step::kRecord;
}

CsvScanner::Step CsvScanner::Fail(const char* message) {
  error_ = Status::IoError("line " + std::to_string(line_) + ": " + message);
  return Step::kError;
}

Status CsvScanner::Refill() {
  const size_t tail = end_ - rec_;
  if (rec_ > 0) std::memmove(buffer_.data(), buffer_.data() + rec_, tail);
  rec_ = 0;
  end_ = tail;
  if (buffer_.size() < tail + chunk_bytes_) {
    buffer_.resize(2 * (tail + chunk_bytes_));
  }
  TCM_ASSIGN_OR_RETURN(size_t got,
                       source_(buffer_.data() + end_, chunk_bytes_));
  end_ += got;
  input_done_ = got == 0;
  return Status::Ok();
}

// --- Shared record-level helpers ---

bool IsBlankCsvRecord(std::span<const std::string_view> fields) {
  return fields.size() == 1 && StripWhitespace(fields[0]).empty();
}

namespace {

// Validates a header record against `schema`: same column count, names
// match in order after whitespace stripping.
Status ValidateCsvHeader(std::span<const std::string_view> fields,
                         const Schema& schema) {
  if (fields.size() != schema.size()) {
    return Status::IoError("header has " + std::to_string(fields.size()) +
                           " columns, schema expects " +
                           std::to_string(schema.size()));
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (StripWhitespace(fields[i]) != schema.at(i).name) {
      return Status::IoError("header column " + std::to_string(i) + " is '" +
                             std::string(fields[i]) + "', expected '" +
                             schema.at(i).name + "'");
    }
  }
  return Status::Ok();
}

// The all-numeric, role-kOther schema OpenNumeric infers from a header
// record.
Schema NumericSchemaFromHeader(std::span<const std::string_view> fields) {
  std::vector<Attribute> attrs;
  attrs.reserve(fields.size());
  for (std::string_view name : fields) {
    attrs.push_back(Attribute{std::string(StripWhitespace(name)),
                              AttributeType::kNumeric, AttributeRole::kOther,
                              {}});
  }
  return Schema(std::move(attrs));
}

// Converts one CSV record into `cells`, one per attribute of `schema`.
// `line` is the physical line the record began on, used in error
// messages. Each field is stripped once; categorical fields must be
// known labels, numeric fields must parse as finite doubles (nan and
// inf are rejected: no release can be built from them).
Status CsvFieldsToCells(std::span<const std::string_view> fields,
                        const Schema& schema, size_t line,
                        std::span<Value> cells) {
  if (fields.size() != schema.size()) {
    return Status::IoError("line " + std::to_string(line) + " has " +
                           std::to_string(fields.size()) + " fields");
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string_view field = StripWhitespace(fields[i]);
    const Attribute& attr = schema.at(i);
    if (attr.is_categorical()) {
      const auto& labels = attr.categories;
      const auto it = std::find(labels.begin(), labels.end(), field);
      if (it == labels.end()) {
        return Status::IoError("line " + std::to_string(line) +
                               ": unknown category '" + std::string(field) +
                               "' for attribute '" + attr.name + "'");
      }
      cells[i] = Value::Categorical(static_cast<int32_t>(it - labels.begin()));
      continue;
    }
    double value = 0.0;
    if (!ParseStrippedDouble(field, &value)) {
      return Status::IoError("line " + std::to_string(line) +
                             ": cannot parse '" + std::string(field) +
                             "' as a number for attribute '" + attr.name +
                             "'");
    }
    if (!std::isfinite(value)) {
      return Status::IoError("line " + std::to_string(line) +
                             ": non-finite value '" + std::string(field) +
                             "' for attribute '" + attr.name + "'");
    }
    cells[i] = Value::Numeric(value);
  }
  return Status::Ok();
}

}  // namespace

// --- Shared formatting ---

namespace {

void AppendCsvField(std::string_view text, std::string* out) {
  if (text.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(text);
    return;
  }
  out->push_back('"');
  for (char c : text) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

void AppendCsvHeader(const Schema& schema, std::string* out) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendCsvField(schema.at(i).name, out);
  }
  out->push_back('\n');
}

void AppendCsvRow(const Dataset& data, size_t row, std::string* out) {
  const Schema& schema = data.schema();
  char digits[64];
  for (size_t col = 0; col < schema.size(); ++col) {
    if (col > 0) out->push_back(',');
    const Value& v = data.cell(row, col);
    if (v.is_categorical()) {
      const auto& categories = schema.at(col).categories;
      size_t code = static_cast<size_t>(v.category());
      if (code < categories.size()) {
        AppendCsvField(categories[code], out);
        continue;
      }
      out->append(digits,
                  std::to_chars(digits, digits + sizeof(digits), v.category())
                      .ptr);
    } else {
      // 17 significant digits: doubles round-trip exactly.
      out->append(digits, std::to_chars(digits, digits + sizeof(digits),
                                        v.numeric(),
                                        std::chars_format::general, 17)
                              .ptr);
    }
  }
  out->push_back('\n');
}

void CsvRowWriter::Write(const Dataset& data, std::ostream& out,
                         ThreadPool* pool) {
  const size_t rows = data.NumRecords();
  const size_t num_chunks = (rows + kRowsPerChunk - 1) / kRowsPerChunk;
  const size_t per_round = pool == nullptr ? 1 : pool->num_threads();
  if (chunks_.size() < std::min(per_round, num_chunks)) {
    chunks_.resize(std::min(per_round, num_chunks));
  }
  for (size_t first = 0; first < num_chunks; first += per_round) {
    const size_t count = std::min(per_round, num_chunks - first);
    ParallelFor(pool, count, [&](size_t i) {
      // Task-local, so tasks do not share chunks_' cache lines per byte.
      std::string buffer = std::move(chunks_[i]);
      buffer.clear();
      const size_t begin = (first + i) * kRowsPerChunk;
      const size_t end = std::min(rows, begin + kRowsPerChunk);
      for (size_t row = begin; row < end; ++row) {
        AppendCsvRow(data, row, &buffer);
      }
      chunks_[i] = std::move(buffer);
    });
    for (size_t i = 0; i < count; ++i) {
      out.write(chunks_[i].data(),
                static_cast<std::streamsize>(chunks_[i].size()));
    }
  }
}

// --- StreamingCsvReader ---

StreamingCsvReader::StreamingCsvReader(std::unique_ptr<std::istream> input,
                                       Schema schema,
                                       const StreamingCsvOptions& options)
    : input_(std::move(input)),
      schema_(std::move(schema)),
      scanner_(IstreamByteSource(input_.get(), "error reading CSV input"),
               options.buffer_bytes) {}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::Make(
    std::unique_ptr<std::istream> input, const Schema* schema,
    const StreamingCsvOptions& options) {
  if (options.buffer_bytes == 0) {
    return Status::InvalidArgument("buffer_bytes must be positive");
  }
  std::unique_ptr<StreamingCsvReader> reader(new StreamingCsvReader(
      std::move(input), schema != nullptr ? *schema : Schema(), options));
  std::vector<std::string_view> header;
  TCM_ASSIGN_OR_RETURN(bool got_header, reader->scanner_.Next(&header));
  if (!got_header) {
    return Status::IoError("empty input: missing header row");
  }
  if (schema != nullptr) {
    TCM_RETURN_IF_ERROR(ValidateCsvHeader(header, *schema));
  } else {
    reader->schema_ = NumericSchemaFromHeader(header);
  }
  return reader;
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::Open(
    const std::string& path, const Schema& schema,
    const StreamingCsvOptions& options) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return Make(std::move(file), &schema, options);
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::OpenNumeric(
    const std::string& path, const StreamingCsvOptions& options) {
  auto file = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*file) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  return Make(std::move(file), nullptr, options);
}

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::FromStream(
    std::unique_ptr<std::istream> input, const Schema& schema,
    const StreamingCsvOptions& options) {
  return Make(std::move(input), &schema, options);
}

Result<std::unique_ptr<StreamingCsvReader>>
StreamingCsvReader::FromStreamNumeric(std::unique_ptr<std::istream> input,
                                      const StreamingCsvOptions& options) {
  return Make(std::move(input), nullptr, options);
}

Status StreamingCsvReader::ReplaceSchema(Schema schema) {
  if (schema.size() != schema_.size()) {
    return Status::InvalidArgument(
        "replacement schema has " + std::to_string(schema.size()) +
        " attributes, reader has " + std::to_string(schema_.size()));
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.at(i).name != schema_.at(i).name ||
        schema.at(i).type != schema_.at(i).type ||
        schema.at(i).categories != schema_.at(i).categories) {
      return Status::InvalidArgument(
          "replacement schema changes attribute " + std::to_string(i) +
          " ('" + schema_.at(i).name + "'); only roles may change");
    }
  }
  schema_ = std::move(schema);
  return Status::Ok();
}

Result<size_t> StreamingCsvReader::ReadInto(Dataset* out, size_t max_rows) {
  TCM_RETURN_IF_ERROR(CheckCellKinds(schema_, out->schema()));
  size_t appended = 0;
  while (appended < max_rows) {
    TCM_ASSIGN_OR_RETURN(bool got, scanner_.Next(&fields_));
    if (!got) break;
    if (IsBlankCsvRecord(fields_)) continue;
    const size_t line = scanner_.record_line();
    TCM_RETURN_IF_ERROR(out->AppendInPlace([&](std::span<Value> row) {
      return CsvFieldsToCells(fields_, schema_, line, row);
    }));
    ++rows_read_;
    ++appended;
  }
  return appended;
}

// --- StreamingCsvWriter ---

Result<std::unique_ptr<StreamingCsvWriter>> StreamingCsvWriter::Open(
    const std::string& path, const Schema& schema) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  std::string header;
  AppendCsvHeader(schema, &header);
  file.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!file.good()) {
    return Status::IoError("write to '" + path + "' failed");
  }
  return std::unique_ptr<StreamingCsvWriter>(
      new StreamingCsvWriter(std::move(file), path));
}

Status StreamingCsvWriter::WriteRows(const Dataset& batch, ThreadPool* pool) {
  rows_.Write(batch, file_, pool);
  if (!file_.good()) {
    return Status::IoError("write to '" + path_ + "' failed");
  }
  rows_written_ += batch.NumRecords();
  return Status::Ok();
}

Status StreamingCsvWriter::Close() {
  file_.flush();
  if (file_.good()) file_.close();
  if (!file_.good()) {
    return Status::IoError("write to '" + path_ + "' failed");
  }
  return Status::Ok();
}

}  // namespace tcm
