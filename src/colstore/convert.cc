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

// One column as the scan fills it. A column holds numbers until a field
// does not parse as one; from then on it is nominal, and its labels are
// interned in first-appearance order.
struct ColumnBuilder {
  bool numeric = true;
  // Met a label after it had stored numbers: the first scan stops
  // filling it, and a second scan interns every one of its fields.
  bool relabel = false;
  std::vector<double> values;
  std::vector<int32_t> codes;
  std::vector<std::string> dictionary;
  std::unordered_map<std::string, int32_t> interned;
  // The first non-finite number: an error only if the column ends numeric.
  size_t non_finite_row = std::numeric_limits<size_t>::max();
  Status non_finite = Status::Ok();

  Status Intern(std::string_view field, const std::string& path,
                const std::string& name) {
    std::string label(field);
    auto it = interned.find(label);
    if (it == interned.end()) {
      if (dictionary.size() >
          static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
        return Status::IoError("\"" + path + "\": column \"" + name +
                               "\" has too many distinct labels");
      }
      const int32_t code = static_cast<int32_t>(dictionary.size());
      dictionary.push_back(label);
      it = interned.emplace(std::move(label), code).first;
    }
    codes.push_back(it->second);
    return Status::Ok();
  }
};

}  // namespace

Result<ColumnTable> ConvertCsvToColumnar(const std::string& csv_path) {
  std::vector<std::string> names;
  std::vector<ColumnBuilder> builders;
  size_t rows = 0;
  bool any_relabel = false;
  Status scan = ForEachCsvRecord(
      csv_path,
      [&](const CsvFields& fields, size_t line) -> Status {
        if (names.empty()) {
          for (std::string_view field : fields) {
            names.emplace_back(StripWhitespace(field));
          }
          builders.resize(names.size());
          return Status::Ok();
        }
        if (fields.size() != names.size()) {
          return FieldCountError(csv_path, line, names.size(), fields.size());
        }
        for (size_t c = 0; c < fields.size(); ++c) {
          ColumnBuilder& col = builders[c];
          if (col.relabel) continue;
          const std::string_view stripped = StripWhitespace(fields[c]);
          if (col.numeric) {
            double parsed = 0;
            if (ParseStrippedDouble(stripped, &parsed)) {
              if (!std::isfinite(parsed) && col.non_finite.ok()) {
                col.non_finite_row = rows;
                col.non_finite = Status::IoError(
                    "\"" + csv_path + "\" line " + std::to_string(line) +
                    ": non-finite value \"" + std::string(stripped) +
                    "\" in column \"" + names[c] + "\"");
              }
              col.values.push_back(parsed);
              continue;
            }
            col.numeric = false;
            if (rows > 0) {
              col.relabel = any_relabel = true;
              col.values = {};
              continue;
            }
          }
          TCM_RETURN_IF_ERROR(col.Intern(stripped, csv_path, names[c]));
        }
        ++rows;
        return Status::Ok();
      });
  TCM_RETURN_IF_ERROR(scan);
  if (names.empty()) {
    return Status::IoError("\"" + csv_path + "\": no header record");
  }
  // The error is the first non-finite cell, in row-major order, of the
  // columns that end numeric.
  const ColumnBuilder* first_non_finite = nullptr;
  for (const ColumnBuilder& col : builders) {
    if (col.numeric &&
        (first_non_finite == nullptr ||
         col.non_finite_row < first_non_finite->non_finite_row)) {
      first_non_finite = &col;
    }
  }
  if (first_non_finite != nullptr) {
    TCM_RETURN_IF_ERROR(first_non_finite->non_finite);
  }

  if (any_relabel) {
    bool seen_header = false;
    Status rescan = ForEachCsvRecord(
        csv_path,
        [&](const CsvFields& fields, size_t line) -> Status {
          if (!seen_header) {
            seen_header = true;
            return Status::Ok();
          }
          if (fields.size() != names.size()) {
            return FieldCountError(csv_path, line, names.size(),
                                   fields.size());
          }
          for (size_t c = 0; c < fields.size(); ++c) {
            if (!builders[c].relabel) continue;
            TCM_RETURN_IF_ERROR(builders[c].Intern(
                StripWhitespace(fields[c]), csv_path, names[c]));
          }
          return Status::Ok();
        });
    TCM_RETURN_IF_ERROR(rescan);
  }

  std::vector<Attribute> attributes(names.size());
  std::vector<ColumnTable::ColumnData> columns(names.size());
  size_t copied = 0;
  for (size_t c = 0; c < names.size(); ++c) {
    Attribute& attr = attributes[c];
    attr.name = names[c];
    attr.role = AttributeRole::kOther;
    ColumnTable::ColumnData& col = columns[c];
    ColumnBuilder& built = builders[c];
    if (built.numeric) {
      attr.type = AttributeType::kNumeric;
      col.owned_numeric = std::move(built.values);
      col.numeric = col.owned_numeric.data();
      copied += col.owned_numeric.size() * sizeof(double);
    } else {
      attr.type = AttributeType::kNominal;
      attr.categories = std::move(built.dictionary);
      col.owned_codes = std::move(built.codes);
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

bool HasTcmbExtension(std::string_view path) {
  return path.ends_with(".tcmb");
}

Result<ColumnTable> ReadTable(const std::string& path) {
  if (HasTcmbExtension(path)) return ReadTcmb(path);
  return ConvertCsvToColumnar(path);
}

}  // namespace tcm
