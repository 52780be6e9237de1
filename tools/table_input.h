#ifndef TCM_TOOLS_TABLE_INPUT_H_
#define TCM_TOOLS_TABLE_INPUT_H_

// The file input of `tcm_anonymize --audit` and `tcm_profile`, so both
// read a file the same way: ReadTable types it (a .tcmb is mapped, a CSV
// is typed column by column), and the command line's roles go on the
// rows with AssignRoles.

#include <string>
#include <vector>

#include "colstore/convert.h"
#include "common/result.h"
#include "data/dataset.h"
#include "engine/pipeline.h"

namespace tcm {
namespace tools {

// A role naming a column the file lacks is an InvalidSpec (exit 3): the
// roles are the command's spec.
inline Result<Dataset> ReadTableWithRoles(
    const std::string& path, const std::vector<std::string>& qi,
    const std::string& confidential) {
  TCM_ASSIGN_OR_RETURN(ColumnTable table, ReadTable(path));
  Dataset data = table.ToDataset();
  if (Status roles = AssignRoles(&data, qi, confidential); !roles.ok()) {
    return Status::InvalidSpec(roles.message());
  }
  return data;
}

}  // namespace tools
}  // namespace tcm

#endif  // TCM_TOOLS_TABLE_INPUT_H_
