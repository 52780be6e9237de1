#include "data/csv.h"

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "data/csv_stream.h"

// The in-memory API is a thin wrapper over the incremental plumbing in
// csv_stream.h: both this reader and StreamingCsvReader scan,
// validate and convert with the same code, so any input — including
// adversarial quoting — gets the same verdict from either path.

namespace tcm {
namespace {

constexpr size_t kAllRows = std::numeric_limits<size_t>::max();

Result<Dataset> DrainReader(
    Result<std::unique_ptr<StreamingCsvReader>> reader) {
  TCM_RETURN_IF_ERROR(reader.status());
  Dataset out((*reader)->schema());
  TCM_RETURN_IF_ERROR((*reader)->ReadInto(&out, kAllRows).status());
  return out;
}

void WriteLines(const Dataset& data, std::ostream& out) {
  std::string header;
  AppendCsvHeader(data.schema(), &header);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  CsvRowWriter().Write(data, out);
}

}  // namespace

Result<Dataset> ReadCsv(const std::string& path, const Schema& schema) {
  return DrainReader(StreamingCsvReader::Open(path, schema));
}

Status WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open '" + path + "' for writing");
  WriteLines(data, file);
  // Check after the flush: the stream buffers the tail, so only the flush
  // reports a failed last write (e.g. a full disk).
  file.flush();
  if (!file.good()) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

Result<Dataset> ParseCsvString(const std::string& text, const Schema& schema) {
  return DrainReader(StreamingCsvReader::FromStream(
      std::make_unique<std::istringstream>(text), schema));
}

std::string WriteCsvString(const Dataset& data) {
  std::ostringstream out;
  WriteLines(data, out);
  return out.str();
}

}  // namespace tcm
