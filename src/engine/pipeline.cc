#include "engine/pipeline.h"

#include <utility>

#include "common/strings.h"
#include "privacy/equivalence.h"
#include "privacy/kanonymity.h"
#include "privacy/tcloseness.h"

namespace tcm {

Result<ReleaseVerification> CheckRelease(const Dataset& release, size_t k,
                                         double t, ThreadPool* pool) {
  ReleaseVerification verification;
  // One grouping pass feeds both checks: the k and t evaluators need the
  // same equivalence classes.
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(release, pool));
  verification.min_class_size = EvaluateKAnonymity(classes).min_class_size;
  TCM_ASSIGN_OR_RETURN(TClosenessReport t_report,
                       EvaluateTCloseness(release, classes, 0, pool));
  verification.max_class_emd = t_report.max_emd;
  verification.k_anonymous = verification.min_class_size >= k;
  verification.t_close = verification.max_class_emd <= t + kTCloseTolerance;
  return verification;
}

Status PrivacyViolationError(const ReleaseVerification& verification,
                             const std::string& context) {
  return Status::PrivacyViolation(
      context + "release failed re-verification: " +
      (verification.k_anonymous ? "" : "k-anonymity ") +
      (verification.t_close ? "" : "t-closeness"));
}

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
