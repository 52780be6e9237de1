#include "data/dataset.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>

namespace tcm {
namespace {

bool KindMatchesType(const Value& value, const Attribute& attribute) {
  return attribute.is_categorical() ? value.is_categorical()
                                    : value.is_numeric();
}

}  // namespace

Status CheckCellKinds(const Schema& from, const Schema& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument(
        "record arity " + std::to_string(from.size()) +
        " does not match schema arity " + std::to_string(to.size()));
  }
  for (size_t i = 0; i < from.size(); ++i) {
    if (from.at(i).is_categorical() != to.at(i).is_categorical()) {
      return Status::InvalidArgument("cell kind mismatch for attribute '" +
                                     to.at(i).name + "'");
    }
  }
  return Status::Ok();
}

Status Dataset::Append(std::span<const Value> record) {
  const size_t width = schema_.size();
  if (record.size() != width) {
    return Status::InvalidArgument(
        "record arity " + std::to_string(record.size()) +
        " does not match schema arity " + std::to_string(width));
  }
  for (size_t i = 0; i < width; ++i) {
    if (!KindMatchesType(record[i], schema_.at(i))) {
      return Status::InvalidArgument("cell kind mismatch for attribute '" +
                                     schema_.at(i).name + "'");
    }
  }
  // The row may view this dataset's own buffer, which the resize can
  // move: re-derive it from its offset.
  const Value* source = record.data();
  const bool aliased =
      !values_.empty() &&
      !std::less<const Value*>()(source, values_.data()) &&
      std::less<const Value*>()(source, values_.data() + values_.size());
  const size_t offset = aliased ? static_cast<size_t>(source - values_.data())
                                : 0;
  const size_t old_size = values_.size();
  values_.resize(old_size + width);
  if (aliased) source = values_.data() + offset;
  std::copy_n(source, width, values_.begin() + old_size);
  ++num_records_;
  return Status::Ok();
}

Status Dataset::SetCell(size_t row, size_t col, Value value) {
  if (row >= num_records_) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  if (col >= schema_.size()) {
    return Status::OutOfRange("column " + std::to_string(col) +
                              " out of range");
  }
  if (!KindMatchesType(value, schema_.at(col))) {
    return Status::InvalidArgument("cell kind mismatch for attribute '" +
                                   schema_.at(col).name + "'");
  }
  values_[row * schema_.size() + col] = value;
  return Status::Ok();
}

std::vector<double> Dataset::ColumnAsDouble(size_t col) const {
  TCM_CHECK_LT(col, schema_.size());
  std::vector<double> out;
  out.reserve(num_records_);
  for (size_t row = 0; row < num_records_; ++row) {
    out.push_back(cell(row, col).AsDouble());
  }
  return out;
}

Result<Dataset> Dataset::Select(const std::vector<size_t>& rows) const {
  for (size_t row : rows) {
    if (row >= num_records_) {
      return Status::OutOfRange("row " + std::to_string(row) +
                                " out of range");
    }
  }
  const size_t width = schema_.size();
  Dataset out{schema_};
  out.values_.resize(rows.size() * width);
  auto next = out.values_.begin();
  for (size_t row : rows) {
    next = std::copy_n(values_.begin() + static_cast<std::ptrdiff_t>(
                                             row * width),
                       width, next);
  }
  out.num_records_ = rows.size();
  return out;
}

Status Dataset::ReplaceSchema(Schema schema) {
  if (schema.size() != schema_.size()) {
    return Status::InvalidArgument("schema arity mismatch");
  }
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema.at(i).name != schema_.at(i).name ||
        schema.at(i).type != schema_.at(i).type) {
      return Status::InvalidArgument("schema name/type mismatch at index " +
                                     std::to_string(i));
    }
  }
  schema_ = std::move(schema);
  return Status::Ok();
}

bool operator==(const Dataset& a, const Dataset& b) {
  if (a.schema_.size() != b.schema_.size()) return false;
  for (size_t i = 0; i < a.schema_.size(); ++i) {
    const Attribute& lhs = a.schema_.at(i);
    const Attribute& rhs = b.schema_.at(i);
    if (lhs.name != rhs.name || lhs.type != rhs.type || lhs.role != rhs.role) {
      return false;
    }
  }
  return a.num_records_ == b.num_records_ && a.values_ == b.values_;
}

Result<Dataset> DatasetFromColumns(
    const std::vector<std::string>& names,
    const std::vector<std::vector<double>>& columns,
    const std::vector<AttributeRole>& roles) {
  if (names.size() != columns.size() || names.size() != roles.size()) {
    return Status::InvalidArgument(
        "names, columns and roles must have the same size");
  }
  if (columns.empty()) return Status::InvalidArgument("no columns given");
  const size_t n = columns[0].size();
  for (const auto& col : columns) {
    if (col.size() != n) {
      return Status::InvalidArgument("columns must have equal length");
    }
  }
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    attrs.push_back(
        Attribute{names[i], AttributeType::kNumeric, roles[i], {}});
  }
  Dataset out{Schema(std::move(attrs))};
  Record r(columns.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t c = 0; c < columns.size(); ++c) {
      r[c] = Value::Numeric(columns[c][row]);
    }
    TCM_RETURN_IF_ERROR(out.Append(r));
  }
  return out;
}

}  // namespace tcm
