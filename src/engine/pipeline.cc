#include "engine/pipeline.h"

#include <utility>

#include "common/strings.h"

namespace tcm {

Result<Schema> SchemaWithRoles(
    const Schema& schema, const std::vector<std::string>& quasi_identifiers,
    const std::string& confidential) {
  auto describe_columns = [&schema]() {
    std::vector<std::string> names;
    names.reserve(schema.size());
    for (const Attribute& attribute : schema.attributes()) {
      names.push_back(attribute.name);
    }
    return JoinStrings(names, ", ");
  };
  Schema updated = schema;
  for (const std::string& name : quasi_identifiers) {
    auto with_role = updated.WithRole(name, AttributeRole::kQuasiIdentifier);
    if (!with_role.ok()) {
      return Status::InvalidArgument("quasi-identifier column '" + name +
                                     "' not found in input; available "
                                     "columns: " +
                                     describe_columns());
    }
    updated = std::move(with_role).value();
  }
  if (!confidential.empty()) {
    auto with_role = updated.WithRole(confidential,
                                      AttributeRole::kConfidential);
    if (!with_role.ok()) {
      return Status::InvalidArgument("confidential column '" +
                                     confidential +
                                     "' not found in input; available "
                                     "columns: " +
                                     describe_columns());
    }
    updated = std::move(with_role).value();
  }
  return updated;
}

Status AssignRoles(Dataset* data,
                   const std::vector<std::string>& quasi_identifiers,
                   const std::string& confidential) {
  TCM_ASSIGN_OR_RETURN(
      Schema updated,
      SchemaWithRoles(data->schema(), quasi_identifiers, confidential));
  return data->ReplaceSchema(std::move(updated));
}

}  // namespace tcm
