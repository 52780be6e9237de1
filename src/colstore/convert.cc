#include "colstore/convert.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colstore/tcmb.h"
#include "common/strings.h"
#include "data/csv_stream.h"

namespace tcm {
namespace {

constexpr size_t kChunkBytes = 1 << 16;

using CsvFields = std::vector<std::string_view>;

// Streams `path` through the shared scanner, invoking `fn` for every
// non-blank record (header included). `fn` sees the raw fields plus the
// 1-based line the record began on.
Status ForEachCsvRecord(
    const std::string& path,
    const std::function<Status(const CsvFields&, size_t)>& fn) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    return Status::IoError("cannot open \"" + path + "\"");
  }
  CsvScanner scanner(
      IstreamByteSource(&input, "read error on \"" + path + "\""),
      kChunkBytes);
  CsvFields fields;
  while (true) {
    TCM_ASSIGN_OR_RETURN(bool have, scanner.Next(&fields));
    if (!have) return Status::Ok();
    if (IsBlankCsvRecord(fields)) continue;
    TCM_RETURN_IF_ERROR(fn(fields, scanner.record_line()));
  }
}

Status FieldCountError(const std::string& path, size_t line, size_t expected,
                       size_t got) {
  return Status::IoError("\"" + path + "\" line " + std::to_string(line) +
                         ": expected " + std::to_string(expected) +
                         " fields, got " + std::to_string(got));
}

}  // namespace

Result<ColumnTable> ConvertCsvToColumnar(const std::string& csv_path) {
  // Pass 1: header names, per-column numeric-ness, row count.
  std::vector<std::string> names;
  std::vector<bool> numeric;
  size_t rows = 0;
  Status pass1 = ForEachCsvRecord(
      csv_path,
      [&](const CsvFields& fields, size_t line) -> Status {
        if (names.empty()) {
          for (std::string_view field : fields) {
            names.emplace_back(StripWhitespace(field));
          }
          numeric.assign(names.size(), true);
          return Status::Ok();
        }
        if (fields.size() != names.size()) {
          return FieldCountError(csv_path, line, names.size(), fields.size());
        }
        for (size_t c = 0; c < fields.size(); ++c) {
          double parsed;
          if (numeric[c] &&
              !ParseStrippedDouble(StripWhitespace(fields[c]), &parsed)) {
            numeric[c] = false;
          }
        }
        ++rows;
        return Status::Ok();
      });
  TCM_RETURN_IF_ERROR(pass1);
  if (names.empty()) {
    return Status::IoError("\"" + csv_path + "\": no header record");
  }

  // Pass 2: fill columns, interning nominal labels in appearance order.
  std::vector<std::vector<double>> numeric_cols(names.size());
  std::vector<std::vector<int32_t>> code_cols(names.size());
  std::vector<std::vector<std::string>> dictionaries(names.size());
  std::vector<std::unordered_map<std::string, int32_t>> interned(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    if (numeric[c]) {
      numeric_cols[c].reserve(rows);
    } else {
      code_cols[c].reserve(rows);
    }
  }
  bool seen_header = false;
  Status pass2 = ForEachCsvRecord(
      csv_path,
      [&](const CsvFields& fields, size_t line) -> Status {
        if (!seen_header) {
          seen_header = true;
          return Status::Ok();
        }
        if (fields.size() != names.size()) {
          return FieldCountError(csv_path, line, names.size(), fields.size());
        }
        for (size_t c = 0; c < fields.size(); ++c) {
          const std::string_view stripped = StripWhitespace(fields[c]);
          if (numeric[c]) {
            double parsed = 0;
            if (!ParseStrippedDouble(stripped, &parsed)) {
              return Status::IoError(
                  "\"" + csv_path + "\" line " + std::to_string(line) +
                  ": cannot parse \"" + std::string(stripped) +
                  "\" as a number in column \"" + names[c] + "\"");
            }
            if (!std::isfinite(parsed)) {
              return Status::IoError(
                  "\"" + csv_path + "\" line " + std::to_string(line) +
                  ": non-finite value \"" + std::string(stripped) +
                  "\" in column \"" + names[c] + "\"");
            }
            numeric_cols[c].push_back(parsed);
          } else {
            std::string label(stripped);
            auto it = interned[c].find(label);
            if (it == interned[c].end()) {
              if (dictionaries[c].size() >
                  static_cast<size_t>(
                      std::numeric_limits<int32_t>::max())) {
                return Status::IoError("\"" + csv_path + "\": column \"" +
                                       names[c] +
                                       "\" has too many distinct labels");
              }
              const int32_t code =
                  static_cast<int32_t>(dictionaries[c].size());
              dictionaries[c].push_back(label);
              it = interned[c].emplace(std::move(label), code).first;
            }
            code_cols[c].push_back(it->second);
          }
        }
        return Status::Ok();
      });
  TCM_RETURN_IF_ERROR(pass2);

  std::vector<Attribute> attributes(names.size());
  std::vector<ColumnTable::ColumnData> columns(names.size());
  size_t copied = 0;
  for (size_t c = 0; c < names.size(); ++c) {
    Attribute& attr = attributes[c];
    attr.name = names[c];
    attr.role = AttributeRole::kOther;
    ColumnTable::ColumnData& col = columns[c];
    if (numeric[c]) {
      attr.type = AttributeType::kNumeric;
      col.owned_numeric = std::move(numeric_cols[c]);
      col.numeric = col.owned_numeric.data();
      copied += col.owned_numeric.size() * sizeof(double);
    } else {
      attr.type = AttributeType::kNominal;
      attr.categories = std::move(dictionaries[c]);
      col.owned_codes = std::move(code_cols[c]);
      col.codes = col.owned_codes.data();
      copied += col.owned_codes.size() * sizeof(int32_t);
    }
  }
  return ColumnTable::Make(Schema(std::move(attributes)), rows,
                           std::move(columns), nullptr, /*mapped_bytes=*/0,
                           /*copied_bytes=*/copied);
}

Status ConvertCsvToTcmb(const std::string& csv_path,
                        const std::string& tcmb_path) {
  Result<ColumnTable> table = ConvertCsvToColumnar(csv_path);
  if (!table.ok()) return table.status();
  return WriteTcmb(*table, tcmb_path);
}

}  // namespace tcm
