#ifndef TCM_ENGINE_PIPELINE_H_
#define TCM_ENGINE_PIPELINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "privacy/verify.h"

namespace tcm {

// Stage helpers shared by the Job API's window loop (api/runner.cc) and
// the CLI: role assignment by column name. The release re-check they run
// (CheckRelease) lives in privacy/verify.h, included here for them.

// Returns a copy of `schema` with kQuasiIdentifier / kConfidential roles
// assigned to the named columns, validating every name: unknown names
// fail with a message listing the available columns. The Job API puts
// the spec's roles on the schema a job reads rows into this way, leaving
// its record source's own schema alone.
Result<Schema> SchemaWithRoles(
    const Schema& schema, const std::vector<std::string>& quasi_identifiers,
    const std::string& confidential);

// Same, applied in place to a dataset's schema.
Status AssignRoles(Dataset* data,
                   const std::vector<std::string>& quasi_identifiers,
                   const std::string& confidential);

}  // namespace tcm

#endif  // TCM_ENGINE_PIPELINE_H_
