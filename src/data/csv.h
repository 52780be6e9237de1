#ifndef TCM_DATA_CSV_H_
#define TCM_DATA_CSV_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace tcm {

// Reads a comma-separated file whose first line is a header matching
// `schema` attribute names (order must match). Numeric attributes parse as
// doubles; categorical attributes map labels to codes via the schema's
// category list (unknown labels are an IoError). Returns the populated
// dataset or an error describing the first offending line.
Result<Dataset> ReadCsv(const std::string& path, const Schema& schema);

// Writes the dataset (header + rows). Categorical cells are written as
// their labels.
Status WriteCsv(const Dataset& data, const std::string& path);

// In-memory variants used by tests (no filesystem dependency).
Result<Dataset> ParseCsvString(const std::string& text, const Schema& schema);
std::string WriteCsvString(const Dataset& data);

}  // namespace tcm

#endif  // TCM_DATA_CSV_H_
