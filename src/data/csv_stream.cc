#include "data/csv_stream.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <istream>
#include <utility>

#include "common/strings.h"
#include "engine/thread_pool.h"

namespace tcm {

// --- CsvTokenizer ---

namespace {

// Bytes the per-byte state machine must see; every other byte inside an
// unquoted field is plain data.
bool IsCsvSpecial(char c) {
  return c == ',' || c == '\n' || c == '\r' || c == '"';
}

}  // namespace

void CsvTokenizer::Feed(std::string_view chunk) {
  if (finished_) return;
  DropPulledRecords();
  size_t i = 0;
  while (i < chunk.size() && error_.ok()) {
    if (state_ == State::kUnquoted && !pending_cr_) {
      // Bulk-append the run of plain bytes up to the next special one;
      // the state machine below only ever appends them one by one.
      size_t run_end = i;
      while (run_end < chunk.size() && !IsCsvSpecial(chunk[run_end])) {
        ++run_end;
      }
      chars_.append(chunk.data() + i, run_end - i);
      i = run_end;
      if (i == chunk.size()) break;
    }
    Consume(chunk[i++]);
  }
}

void CsvTokenizer::Finish() {
  if (finished_) return;
  finished_ = true;
  DropPulledRecords();
  if (!error_.ok()) return;
  if (pending_cr_) {
    pending_cr_ = false;
    if (state_ == State::kQuoteSeen) {
      // "...x"\r<EOF>: accept the CR as the record terminator.
      EndRecord();
      return;
    }
    chars_.push_back('\r');
    if (state_ != State::kQuoted) state_ = State::kUnquoted;
  }
  switch (state_) {
    case State::kRecordStart:
      break;  // input ended cleanly after a newline (or was empty)
    case State::kFieldStart:
    case State::kUnquoted:
    case State::kQuoteSeen:
      EndRecord();  // final record without a trailing newline
      break;
    case State::kQuoted:
      Fail("unterminated quoted field at end of input");
      break;
  }
}

Result<bool> CsvTokenizer::Next(std::vector<std::string_view>* fields) {
  if (next_ready_ < ready_.size()) {
    const ReadyRecord& record = ready_[next_ready_];
    size_t field = next_ready_ == 0 ? 0 : ready_[next_ready_ - 1].fields_end;
    fields->clear();
    for (; field < record.fields_end; ++field) {
      const size_t begin = field == 0 ? 0 : field_ends_[field - 1];
      fields->emplace_back(chars_.data() + begin, field_ends_[field] - begin);
    }
    last_record_line_ = record.line;
    ++next_ready_;
    return true;
  }
  if (!error_.ok()) return error_;
  return false;
}

void CsvTokenizer::DropPulledRecords() {
  if (next_ready_ == 0) return;
  const size_t fields = ready_[next_ready_ - 1].fields_end;
  const size_t bytes = field_ends_[fields - 1];
  chars_.erase(0, bytes);
  field_ends_.erase(field_ends_.begin(),
                    field_ends_.begin() + static_cast<std::ptrdiff_t>(fields));
  for (size_t& end : field_ends_) end -= bytes;
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(next_ready_));
  for (ReadyRecord& record : ready_) record.fields_end -= fields;
  next_ready_ = 0;
}

void CsvTokenizer::Consume(char c) {
  if (pending_cr_) {
    pending_cr_ = false;
    if (c == '\n') {
      ++line_;
      EndRecord();
      return;
    }
    if (state_ == State::kQuoteSeen) {
      Fail("unexpected character after closing quote");
      return;
    }
    // A CR not followed by LF is field data, like any other byte.
    chars_.push_back('\r');
    if (state_ != State::kQuoted) state_ = State::kUnquoted;
  }
  switch (state_) {
    case State::kRecordStart:
    case State::kFieldStart:
      if (c == '"') {
        state_ = State::kQuoted;
      } else if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else {
        chars_.push_back(c);
        state_ = State::kUnquoted;
      }
      break;
    case State::kUnquoted:
      if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else if (c == '"') {
        Fail("quote character inside unquoted field");
      } else {
        chars_.push_back(c);
      }
      break;
    case State::kQuoted:
      if (c == '"') {
        state_ = State::kQuoteSeen;
      } else {
        if (c == '\n') ++line_;
        chars_.push_back(c);
      }
      break;
    case State::kQuoteSeen:
      if (c == '"') {
        chars_.push_back('"');  // "" escape
        state_ = State::kQuoted;
      } else if (c == ',') {
        EndField();
        state_ = State::kFieldStart;
      } else if (c == '\n') {
        ++line_;
        EndRecord();
      } else if (c == '\r') {
        pending_cr_ = true;
      } else {
        Fail("unexpected character after closing quote");
      }
      break;
  }
}

void CsvTokenizer::EndField() { field_ends_.push_back(chars_.size()); }

void CsvTokenizer::EndRecord() {
  EndField();
  ready_.push_back(ReadyRecord{field_ends_.size(), record_start_line_});
  state_ = State::kRecordStart;
  record_start_line_ = line_;
}

void CsvTokenizer::Fail(const std::string& message) {
  if (!error_.ok()) return;
  error_ = Status::IoError("line " + std::to_string(line_) + ": " + message);
}

// --- Shared record-level helpers ---

bool IsBlankCsvRecord(std::span<const std::string_view> fields) {
  return fields.size() == 1 && StripWhitespace(fields[0]).empty();
}

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

Status CsvFieldsToRecord(std::span<const std::string_view> fields,
                         const Schema& schema, size_t line, Record* record) {
  if (fields.size() != schema.size()) {
    return Status::IoError("line " + std::to_string(line) + " has " +
                           std::to_string(fields.size()) + " fields");
  }
  record->clear();
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string_view field = StripWhitespace(fields[i]);
    const Attribute& attr = schema.at(i);
    if (attr.is_categorical()) {
      int32_t code = -1;
      for (size_t c = 0; c < attr.categories.size(); ++c) {
        if (attr.categories[c] == field) {
          code = static_cast<int32_t>(c);
          break;
        }
      }
      if (code < 0) {
        return Status::IoError("line " + std::to_string(line) +
                               ": unknown category '" + std::string(field) +
                               "' for attribute '" + attr.name + "'");
      }
      record->push_back(Value::Categorical(code));
    } else {
      double value = 0.0;
      if (!ParseDouble(field, &value)) {
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
      record->push_back(Value::Numeric(value));
    }
  }
  return Status::Ok();
}

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
      std::string& buffer = chunks_[i];
      buffer.clear();
      const size_t begin = (first + i) * kRowsPerChunk;
      const size_t end = std::min(rows, begin + kRowsPerChunk);
      for (size_t row = begin; row < end; ++row) {
        AppendCsvRow(data, row, &buffer);
      }
    });
    for (size_t i = 0; i < count; ++i) {
      out.write(chunks_[i].data(),
                static_cast<std::streamsize>(chunks_[i].size()));
    }
  }
}

// --- StreamingCsvReader ---

Result<std::unique_ptr<StreamingCsvReader>> StreamingCsvReader::Make(
    std::unique_ptr<std::istream> input, const Schema* schema,
    const StreamingCsvOptions& options) {
  if (options.buffer_bytes == 0) {
    return Status::InvalidArgument("buffer_bytes must be positive");
  }
  std::unique_ptr<StreamingCsvReader> reader(new StreamingCsvReader(
      std::move(input), schema != nullptr ? *schema : Schema(), options));
  std::vector<std::string_view> header;
  TCM_ASSIGN_OR_RETURN(bool got_header, reader->NextRecord(&header));
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

Result<bool> StreamingCsvReader::NextRecord(
    std::vector<std::string_view>* fields) {
  while (true) {
    TCM_ASSIGN_OR_RETURN(bool got, tokenizer_.Next(fields));
    if (got) return true;
    if (input_done_) return false;
    chunk_.resize(options_.buffer_bytes);
    input_->read(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
    std::streamsize n = input_->gcount();
    if (n > 0) {
      tokenizer_.Feed(
          std::string_view(chunk_.data(), static_cast<size_t>(n)));
    }
    if (input_->bad()) {
      return Status::IoError("error reading CSV input");
    }
    if (input_->eof()) {
      tokenizer_.Finish();
      input_done_ = true;
    }
  }
}

Result<size_t> StreamingCsvReader::ReadInto(Dataset* out, size_t max_rows) {
  size_t appended = 0;
  while (appended < max_rows) {
    TCM_ASSIGN_OR_RETURN(bool got, NextRecord(&fields_));
    if (!got) break;
    if (IsBlankCsvRecord(fields_)) continue;
    TCM_RETURN_IF_ERROR(CsvFieldsToRecord(fields_, schema_,
                                          tokenizer_.record_line(), &record_));
    TCM_RETURN_IF_ERROR(out->Append(record_));
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
  if (!file_.good()) {
    return Status::IoError("write to '" + path_ + "' failed");
  }
  file_.close();
  return Status::Ok();
}

}  // namespace tcm
