#ifndef TCM_DATA_SUMMARY_H_
#define TCM_DATA_SUMMARY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace tcm {

// Dataset profiling: what a custodian inspects before choosing attribute
// roles and anonymization parameters. Backs the tcm_profile CLI and the
// examples' data descriptions.

// Moments and order statistics of a column's values.
struct ValueStatistics {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
};

struct AttributeSummary {
  std::string name;
  std::string type;   // AttributeTypeName
  std::string role;   // AttributeRoleName
  // Empty for a nominal column: its cells are labels, and statistics of
  // their dictionary codes would depend on the order the labels were
  // first seen in.
  std::optional<ValueStatistics> statistics;
  size_t distinct_values = 0;
};

struct DatasetSummary {
  size_t records = 0;
  std::vector<AttributeSummary> attributes;
  // QI block <-> confidential multiple correlation, one entry per
  // confidential attribute (none when roles are not assigned). An entry
  // is empty when that attribute or any quasi-identifier is nominal.
  std::vector<std::optional<double>> qi_confidential_correlation;
};

// InvalidArgument on an empty dataset.
Result<DatasetSummary> SummarizeDataset(const Dataset& data);

// Histogram of one column with `bins` equal-width bins over [min, max];
// every count sums to the record count. OutOfRange/InvalidArgument on bad
// arguments. Constant columns put everything in the first bin.
Result<std::vector<size_t>> ColumnHistogram(const Dataset& data, size_t col,
                                            size_t bins);

// Renders the summary as an aligned table for terminals.
std::string FormatSummary(const DatasetSummary& summary);

}  // namespace tcm

#endif  // TCM_DATA_SUMMARY_H_
