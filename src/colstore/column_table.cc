#include "colstore/column_table.h"

#include <utility>

#include "data/value.h"

namespace tcm {

ColumnTable ColumnTable::Make(Schema schema, size_t num_rows,
                              std::vector<ColumnData> columns,
                              std::shared_ptr<const void> owner,
                              size_t mapped_bytes, size_t copied_bytes) {
  TCM_CHECK_EQ(schema.size(), columns.size())
      << "ColumnTable::Make: schema/column arity mismatch";
  for (size_t c = 0; c < columns.size(); ++c) {
    const Attribute& attr = schema.at(c);
    const ColumnData& col = columns[c];
    if (attr.is_categorical()) {
      TCM_CHECK(num_rows == 0 || col.codes != nullptr)
          << "ColumnTable::Make: categorical column " << c << " has no codes";
      TCM_CHECK(col.numeric == nullptr);
    } else {
      TCM_CHECK(num_rows == 0 || col.numeric != nullptr)
          << "ColumnTable::Make: numeric column " << c << " has no values";
      TCM_CHECK(col.codes == nullptr);
    }
  }
  ColumnTable table;
  table.schema_ = std::move(schema);
  table.num_rows_ = num_rows;
  table.columns_ = std::move(columns);
  table.owner_ = std::move(owner);
  table.mapped_bytes_ = mapped_bytes;
  table.copied_bytes_ = copied_bytes;
  return table;
}

ColumnTable ColumnTable::FromDataset(const Dataset& data) {
  const Schema& schema = data.schema();
  std::vector<ColumnData> columns(schema.size());
  size_t copied = 0;
  for (size_t c = 0; c < schema.size(); ++c) {
    ColumnData& col = columns[c];
    if (schema.at(c).is_categorical()) {
      col.owned_codes.reserve(data.NumRecords());
      for (size_t r = 0; r < data.NumRecords(); ++r) {
        col.owned_codes.push_back(data.cell(r, c).category());
      }
      col.codes = col.owned_codes.data();
      copied += col.owned_codes.size() * sizeof(int32_t);
    } else {
      col.owned_numeric.reserve(data.NumRecords());
      for (size_t r = 0; r < data.NumRecords(); ++r) {
        col.owned_numeric.push_back(data.cell(r, c).numeric());
      }
      col.numeric = col.owned_numeric.data();
      copied += col.owned_numeric.size() * sizeof(double);
    }
  }
  return Make(schema, data.NumRecords(), std::move(columns), nullptr,
              /*mapped_bytes=*/0, /*copied_bytes=*/copied);
}

Dataset ColumnTable::ToDataset() const {
  Dataset out(schema_);
  Result<size_t> appended = AppendRows(&out, 0, num_rows_);
  TCM_CHECK(appended.ok()) << appended.status().ToString();
  return out;
}

Result<size_t> ColumnTable::AppendRows(Dataset* out, size_t begin,
                                       size_t count) const {
  TCM_CHECK(out != nullptr);
  TCM_CHECK_LE(begin, num_rows_);
  TCM_CHECK_LE(count, num_rows_ - begin);
  size_t cells = 0;
  Record record(schema_.size());
  for (size_t r = begin; r < begin + count; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const ColumnData& col = columns_[c];
      record[c] = schema_.at(c).is_categorical()
                      ? Value::Categorical(col.codes[r])
                      : Value::Numeric(col.numeric[r]);
    }
    TCM_RETURN_IF_ERROR(out->Append(record));
    cells += schema_.size();
  }
  return cells;
}

std::span<const double> ColumnTable::NumericColumn(size_t col) const {
  TCM_CHECK_LT(col, columns_.size());
  TCM_CHECK(!schema_.at(col).is_categorical())
      << "NumericColumn on categorical attribute \"" << schema_.at(col).name
      << "\"";
  return {columns_[col].numeric, num_rows_};
}

std::span<const int32_t> ColumnTable::CodeColumn(size_t col) const {
  TCM_CHECK_LT(col, columns_.size());
  TCM_CHECK(schema_.at(col).is_categorical())
      << "CodeColumn on numeric attribute \"" << schema_.at(col).name << "\"";
  return {columns_[col].codes, num_rows_};
}

std::string_view ColumnTable::Label(size_t col, int32_t code) const {
  TCM_CHECK_LT(col, columns_.size());
  const Attribute& attr = schema_.at(col);
  TCM_CHECK(attr.is_categorical())
      << "Label on numeric attribute \"" << attr.name << "\"";
  TCM_CHECK(code >= 0 && static_cast<size_t>(code) < attr.categories.size())
      << "dictionary code " << code << " out of range for \"" << attr.name
      << "\" (" << attr.categories.size() << " categories)";
  return attr.categories[static_cast<size_t>(code)];
}

}  // namespace tcm
