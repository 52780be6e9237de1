#include "data/summary.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "data/stats.h"

namespace tcm {

Result<DatasetSummary> SummarizeDataset(const Dataset& data) {
  if (data.NumRecords() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  const Schema& schema = data.schema();
  auto nominal = [&schema](size_t col) {
    return schema.at(col).type == AttributeType::kNominal;
  };
  DatasetSummary summary;
  summary.records = data.NumRecords();
  for (size_t col = 0; col < data.NumAttributes(); ++col) {
    const Attribute& attr = schema.at(col);
    std::vector<double> values = data.ColumnAsDouble(col);
    AttributeSummary out;
    out.name = attr.name;
    out.type = AttributeTypeName(attr.type);
    out.role = AttributeRoleName(attr.role);
    if (!nominal(col)) {
      out.statistics = ValueStatistics{.min = Min(values),
                                       .max = Max(values),
                                       .mean = Mean(values),
                                       .stddev = StdDev(values),
                                       .median = Median(values)};
    }
    out.distinct_values =
        std::set<double>(values.begin(), values.end()).size();
    summary.attributes.push_back(std::move(out));
  }
  const std::vector<size_t> qis = schema.QuasiIdentifierIndices();
  const bool nominal_qi = std::any_of(qis.begin(), qis.end(), nominal);
  const std::vector<size_t> confidential = schema.ConfidentialIndices();
  for (size_t col : confidential) {
    std::optional<double>& correlation =
        summary.qi_confidential_correlation.emplace_back();
    if (!nominal_qi && !nominal(col)) correlation = QiCorrelation(data, col);
  }
  return summary;
}

Result<std::vector<size_t>> ColumnHistogram(const Dataset& data, size_t col,
                                            size_t bins) {
  if (col >= data.NumAttributes()) {
    return Status::OutOfRange("column out of range");
  }
  if (bins == 0) return Status::InvalidArgument("bins must be positive");
  if (data.NumRecords() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  std::vector<double> values = data.ColumnAsDouble(col);
  double lo = Min(values);
  double width = Range(values);
  std::vector<size_t> histogram(bins, 0);
  for (double v : values) {
    size_t bin = 0;
    if (width > 0.0) {
      bin = std::min(bins - 1,
                     static_cast<size_t>((v - lo) / width *
                                         static_cast<double>(bins)));
    }
    ++histogram[bin];
  }
  return histogram;
}

std::string FormatSummary(const DatasetSummary& summary) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "records: %zu\n", summary.records);
  out += line;
  std::snprintf(line, sizeof(line), "%-16s %-8s %-16s %12s %12s %12s %12s %9s\n",
                "attribute", "type", "role", "min", "max", "mean", "stddev",
                "distinct");
  out += line;
  for (const AttributeSummary& attr : summary.attributes) {
    if (attr.statistics) {
      const ValueStatistics& stats = *attr.statistics;
      std::snprintf(line, sizeof(line),
                    "%-16s %-8s %-16s %12.2f %12.2f %12.2f %12.2f %9zu\n",
                    attr.name.c_str(), attr.type.c_str(), attr.role.c_str(),
                    stats.min, stats.max, stats.mean, stats.stddev,
                    attr.distinct_values);
    } else {
      std::snprintf(line, sizeof(line),
                    "%-16s %-8s %-16s %12s %12s %12s %12s %9zu\n",
                    attr.name.c_str(), attr.type.c_str(), attr.role.c_str(),
                    "-", "-", "-", "-", attr.distinct_values);
    }
    out += line;
  }
  for (size_t i = 0; i < summary.qi_confidential_correlation.size(); ++i) {
    if (!summary.qi_confidential_correlation[i]) continue;
    std::snprintf(line, sizeof(line),
                  "QI<->confidential[%zu] multiple correlation R = %.3f\n", i,
                  *summary.qi_confidential_correlation[i]);
    out += line;
  }
  return out;
}

}  // namespace tcm
