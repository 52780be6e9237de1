#include "api/job.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engine/registry.h"

namespace tcm {
namespace {

constexpr std::string_view kStreamingGenerators[] = {"uniform", "clustered"};
constexpr std::string_view kGenerators[] = {
    "uniform", "clustered", "mcd", "hcd", "adult", "patient_discharge"};

bool IsKnownGenerator(const std::string& name) {
  return std::find(std::begin(kGenerators), std::end(kGenerators), name) !=
         std::end(kGenerators);
}

bool IsStreamingGenerator(const std::string& name) {
  return std::find(std::begin(kStreamingGenerators),
                   std::end(kStreamingGenerators),
                   name) != std::end(kStreamingGenerators);
}

Status SpecError(std::string message) {
  return Status::InvalidSpec(std::move(message));
}

// Every key of `object` must be in `allowed`; the error names the first
// stray key and the accepted set, so typos surface immediately instead of
// being silently ignored.
Status CheckKeys(const JsonValue& object, const std::string& context,
                 std::initializer_list<std::string_view> allowed) {
  for (const JsonValue::Member& member : object.members()) {
    if (std::find(allowed.begin(), allowed.end(), member.first) ==
        allowed.end()) {
      std::string keys;
      for (std::string_view key : allowed) {
        if (!keys.empty()) keys += ", ";
        keys += key;
      }
      return SpecError("unknown key \"" + member.first + "\" in " + context +
                       "; allowed keys: " + keys);
    }
  }
  return Status::Ok();
}

Status RequireObject(const JsonValue& value, const std::string& context) {
  if (!value.is_object()) {
    return SpecError(context + " must be a JSON object");
  }
  return Status::Ok();
}

// Field readers: absent keys keep the default already in *out; present
// keys must have the right type, and errors carry the "section.key" path.
Status ReadString(const JsonValue& object, const std::string& context,
                  std::string_view key, std::string* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  auto text = value->GetString();
  if (!text.ok()) {
    return SpecError(context + "." + std::string(key) + ": " +
                     text.status().message());
  }
  *out = std::move(text).value();
  return Status::Ok();
}

Status ReadBool(const JsonValue& object, const std::string& context,
                std::string_view key, bool* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = value->GetBool();
  if (!parsed.ok()) {
    return SpecError(context + "." + std::string(key) + ": " +
                     parsed.status().message());
  }
  *out = parsed.value();
  return Status::Ok();
}

Status ReadSize(const JsonValue& object, const std::string& context,
                std::string_view key, size_t* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = value->GetUint();
  if (!parsed.ok()) {
    return SpecError(context + "." + std::string(key) + ": " +
                     parsed.status().message());
  }
  *out = static_cast<size_t>(parsed.value());
  return Status::Ok();
}

Status ReadUint64(const JsonValue& object, const std::string& context,
                  std::string_view key, uint64_t* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = value->GetUint();
  if (!parsed.ok()) {
    return SpecError(context + "." + std::string(key) + ": " +
                     parsed.status().message());
  }
  *out = parsed.value();
  return Status::Ok();
}

Status ReadDouble(const JsonValue& object, const std::string& context,
                  std::string_view key, double* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  auto parsed = value->GetNumber();
  if (!parsed.ok()) {
    return SpecError(context + "." + std::string(key) + ": " +
                     parsed.status().message());
  }
  *out = parsed.value();
  return Status::Ok();
}

Status ReadStringList(const JsonValue& object, const std::string& context,
                      std::string_view key, std::vector<std::string>* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->is_array()) {
    return SpecError(context + "." + std::string(key) +
                     ": expected an array of strings");
  }
  std::vector<std::string> items;
  for (const JsonValue& element : value->items()) {
    auto text = element.GetString();
    if (!text.ok()) {
      return SpecError(context + "." + std::string(key) + ": " +
                       text.status().message());
    }
    items.push_back(std::move(text).value());
  }
  *out = std::move(items);
  return Status::Ok();
}

Status ReadSizeList(const JsonValue& object, const std::string& context,
                    std::string_view key, std::vector<size_t>* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->is_array()) {
    return SpecError(context + "." + std::string(key) +
                     ": expected an array of non-negative integers");
  }
  std::vector<size_t> items;
  for (const JsonValue& element : value->items()) {
    auto parsed = element.GetUint();
    if (!parsed.ok()) {
      return SpecError(context + "." + std::string(key) + ": " +
                       parsed.status().message());
    }
    items.push_back(static_cast<size_t>(parsed.value()));
  }
  *out = std::move(items);
  return Status::Ok();
}

Status ReadDoubleList(const JsonValue& object, const std::string& context,
                      std::string_view key, std::vector<double>* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return Status::Ok();
  if (!value->is_array()) {
    return SpecError(context + "." + std::string(key) +
                     ": expected an array of numbers");
  }
  std::vector<double> items;
  for (const JsonValue& element : value->items()) {
    auto parsed = element.GetNumber();
    if (!parsed.ok()) {
      return SpecError(context + "." + std::string(key) + ": " +
                       parsed.status().message());
    }
    items.push_back(parsed.value());
  }
  *out = std::move(items);
  return Status::Ok();
}

Status ParseInput(const JsonValue& json, JobInput* input) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "input"));
  std::string kind = "csv";
  TCM_RETURN_IF_ERROR(ReadString(json, "input", "kind", &kind));
  if (kind == "csv") {
    input->kind = InputKind::kCsvPath;
    TCM_RETURN_IF_ERROR(CheckKeys(json, "input (kind \"csv\")",
                                  {"kind", "path", "format"}));
    TCM_RETURN_IF_ERROR(ReadString(json, "input", "path", &input->path));
    std::string format = InputFormatName(input->format);
    TCM_RETURN_IF_ERROR(ReadString(json, "input", "format", &format));
    if (format == "csv") {
      input->format = InputFormat::kCsv;
    } else if (format == "tcmb") {
      input->format = InputFormat::kTcmb;
    } else {
      return SpecError("input.format must be \"csv\" or \"tcmb\", got \"" +
                       format + "\"");
    }
  } else if (kind == "synthetic") {
    input->kind = InputKind::kSynthetic;
    TCM_RETURN_IF_ERROR(CheckKeys(
        json, "input (kind \"synthetic\")",
        {"kind", "generator", "rows", "quasi_identifiers", "modes", "seed"}));
    TCM_RETURN_IF_ERROR(
        ReadString(json, "input", "generator", &input->generator));
    TCM_RETURN_IF_ERROR(ReadSize(json, "input", "rows", &input->rows));
    TCM_RETURN_IF_ERROR(ReadSize(json, "input", "quasi_identifiers",
                                 &input->quasi_identifiers));
    TCM_RETURN_IF_ERROR(ReadSize(json, "input", "modes", &input->modes));
    TCM_RETURN_IF_ERROR(ReadUint64(json, "input", "seed", &input->seed));
  } else if (kind == "dataset" || kind == "record_source") {
    return SpecError("input.kind \"" + kind +
                     "\" is programmatic-only and cannot be loaded from "
                     "JSON; use \"csv\" or \"synthetic\"");
  } else {
    return SpecError("input.kind must be \"csv\" or \"synthetic\", got \"" +
                     kind + "\"");
  }
  return Status::Ok();
}

Status ParseRoles(const JsonValue& json, JobRoles* roles) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "roles"));
  TCM_RETURN_IF_ERROR(
      CheckKeys(json, "roles", {"quasi_identifiers", "confidential"}));
  TCM_RETURN_IF_ERROR(ReadStringList(json, "roles", "quasi_identifiers",
                                     &roles->quasi_identifiers));
  TCM_RETURN_IF_ERROR(
      ReadString(json, "roles", "confidential", &roles->confidential));
  return Status::Ok();
}

Status ParseAlgorithm(const JsonValue& json, JobAlgorithm* algorithm) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "algorithm"));
  TCM_RETURN_IF_ERROR(
      CheckKeys(json, "algorithm", {"name", "k", "t", "seed"}));
  TCM_RETURN_IF_ERROR(ReadString(json, "algorithm", "name", &algorithm->name));
  TCM_RETURN_IF_ERROR(ReadSize(json, "algorithm", "k", &algorithm->k));
  TCM_RETURN_IF_ERROR(ReadDouble(json, "algorithm", "t", &algorithm->t));
  TCM_RETURN_IF_ERROR(ReadUint64(json, "algorithm", "seed", &algorithm->seed));
  return Status::Ok();
}

Status ParseExecution(const JsonValue& json, JobExecution* execution) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "execution"));
  TCM_RETURN_IF_ERROR(CheckKeys(
      json, "execution",
      {"mode", "threads", "shard_size", "max_resident_rows",
       "merge_strategy", "overlap_io"}));
  std::string mode = ExecutionModeName(execution->mode);
  TCM_RETURN_IF_ERROR(ReadString(json, "execution", "mode", &mode));
  if (mode == "in_memory") {
    execution->mode = ExecutionMode::kInMemory;
  } else if (mode == "streaming") {
    execution->mode = ExecutionMode::kStreaming;
  } else {
    return SpecError(
        "execution.mode must be \"in_memory\" or \"streaming\", got \"" +
        mode + "\"");
  }
  TCM_RETURN_IF_ERROR(ReadSize(json, "execution", "threads",
                               &execution->threads));
  TCM_RETURN_IF_ERROR(ReadSize(json, "execution", "shard_size",
                               &execution->shard_size));
  TCM_RETURN_IF_ERROR(ReadSize(json, "execution", "max_resident_rows",
                               &execution->max_resident_rows));
  std::string strategy = MergeStrategyName(execution->merge_strategy);
  TCM_RETURN_IF_ERROR(
      ReadString(json, "execution", "merge_strategy", &strategy));
  auto parsed = ParseMergeStrategy(strategy);
  if (!parsed.ok()) {
    return SpecError("execution.merge_strategy: " +
                     parsed.status().message());
  }
  execution->merge_strategy = *parsed;
  TCM_RETURN_IF_ERROR(
      ReadBool(json, "execution", "overlap_io", &execution->overlap_io));
  return Status::Ok();
}

Status ParseOutput(const JsonValue& json, JobOutput* output) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "output"));
  TCM_RETURN_IF_ERROR(CheckKeys(json, "output",
                                {"release_path", "report_path", "trace_path"}));
  TCM_RETURN_IF_ERROR(
      ReadString(json, "output", "release_path", &output->release_path));
  TCM_RETURN_IF_ERROR(
      ReadString(json, "output", "report_path", &output->report_path));
  TCM_RETURN_IF_ERROR(
      ReadString(json, "output", "trace_path", &output->trace_path));
  return Status::Ok();
}

Status ParseSweep(const JsonValue& json, JobSweep* sweep) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "sweep"));
  TCM_RETURN_IF_ERROR(CheckKeys(json, "sweep", {"algorithms", "ks", "ts"}));
  TCM_RETURN_IF_ERROR(
      ReadStringList(json, "sweep", "algorithms", &sweep->algorithms));
  TCM_RETURN_IF_ERROR(ReadSizeList(json, "sweep", "ks", &sweep->ks));
  TCM_RETURN_IF_ERROR(ReadDoubleList(json, "sweep", "ts", &sweep->ts));
  return Status::Ok();
}

Status CheckAlgorithmName(const std::string& name) {
  auto found = AlgorithmRegistry::BuiltIns().Find(name);
  if (!found.ok()) {
    // Re-code the registry's NotFound (whose message already lists the
    // registered names) into the public taxonomy.
    return Status::UnknownAlgorithm(found.status().message());
  }
  return Status::Ok();
}

}  // namespace

const char* InputKindName(InputKind kind) {
  switch (kind) {
    case InputKind::kCsvPath:
      return "csv";
    case InputKind::kSynthetic:
      return "synthetic";
    case InputKind::kDataset:
      return "dataset";
    case InputKind::kRecordSource:
      return "record_source";
  }
  return "unknown";
}

const char* InputFormatName(InputFormat format) {
  switch (format) {
    case InputFormat::kCsv:
      return "csv";
    case InputFormat::kTcmb:
      return "tcmb";
  }
  return "unknown";
}

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kInMemory:
      return "in_memory";
    case ExecutionMode::kStreaming:
      return "streaming";
  }
  return "unknown";
}

Result<JobSpec> JobSpec::FromJson(const JsonValue& json) {
  TCM_RETURN_IF_ERROR(RequireObject(json, "job spec"));
  TCM_RETURN_IF_ERROR(CheckKeys(json, "job spec",
                                {"version", "input", "roles", "algorithm",
                                 "execution", "verify", "output", "sweep"}));
  JobSpec spec;
  if (const JsonValue* version = json.Find("version")) {
    auto parsed = version->GetUint();
    if (!parsed.ok()) {
      return SpecError("version: " + parsed.status().message());
    }
    spec.version = static_cast<int>(parsed.value());
  }
  if (spec.version != kVersion) {
    return SpecError("unsupported job spec version " +
                     std::to_string(spec.version) + " (this library reads "
                     "version " + std::to_string(kVersion) + ")");
  }
  if (const JsonValue* input = json.Find("input")) {
    TCM_RETURN_IF_ERROR(ParseInput(*input, &spec.input));
  }
  if (const JsonValue* roles = json.Find("roles")) {
    TCM_RETURN_IF_ERROR(ParseRoles(*roles, &spec.roles));
  }
  if (const JsonValue* algorithm = json.Find("algorithm")) {
    TCM_RETURN_IF_ERROR(ParseAlgorithm(*algorithm, &spec.algorithm));
  }
  if (const JsonValue* execution = json.Find("execution")) {
    TCM_RETURN_IF_ERROR(ParseExecution(*execution, &spec.execution));
  }
  TCM_RETURN_IF_ERROR(ReadBool(json, "job spec", "verify", &spec.verify));
  if (const JsonValue* output = json.Find("output")) {
    TCM_RETURN_IF_ERROR(ParseOutput(*output, &spec.output));
  }
  if (const JsonValue* sweep = json.Find("sweep")) {
    JobSweep parsed;
    TCM_RETURN_IF_ERROR(ParseSweep(*sweep, &parsed));
    spec.sweep = std::move(parsed);
  }
  TCM_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Result<JobSpec> JobSpec::FromJsonText(std::string_view text) {
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return SpecError("job spec is not valid JSON: " +
                     parsed.status().message());
  }
  return FromJson(parsed.value());
}

Result<JobSpec> JobSpec::FromJsonFile(const std::string& path) {
  auto parsed = ReadJsonFile(path);
  if (!parsed.ok()) {
    if (parsed.status().code() == StatusCode::kIoError) {
      return parsed.status();
    }
    return SpecError("job spec is not valid JSON: " +
                     parsed.status().message());
  }
  return FromJson(parsed.value());
}

JsonValue JobSpec::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("version", version);

  JsonValue input_json = JsonValue::MakeObject();
  input_json.Set("kind", InputKindName(input.kind));
  switch (input.kind) {
    case InputKind::kCsvPath:
      input_json.Set("path", input.path);
      // The default ("csv") is left implicit so existing specs round-trip
      // byte for byte.
      if (input.format != InputFormat::kCsv) {
        input_json.Set("format", InputFormatName(input.format));
      }
      break;
    case InputKind::kSynthetic:
      input_json.Set("generator", input.generator);
      input_json.Set("rows", input.rows);
      input_json.Set("quasi_identifiers", input.quasi_identifiers);
      input_json.Set("modes", input.modes);
      // Exact as a double: Validate bounds seeds at 2^53.
      input_json.Set("seed", static_cast<double>(input.seed));
      break;
    case InputKind::kDataset:
    case InputKind::kRecordSource:
      break;  // programmatic: the kind name alone documents the source
  }
  json.Set("input", std::move(input_json));

  if (!roles.quasi_identifiers.empty() || !roles.confidential.empty()) {
    JsonValue roles_json = JsonValue::MakeObject();
    if (!roles.quasi_identifiers.empty()) {
      JsonValue list = JsonValue::MakeArray();
      for (const std::string& name : roles.quasi_identifiers) {
        list.Append(name);
      }
      roles_json.Set("quasi_identifiers", std::move(list));
    }
    if (!roles.confidential.empty()) {
      roles_json.Set("confidential", roles.confidential);
    }
    json.Set("roles", std::move(roles_json));
  }

  JsonValue algorithm_json = JsonValue::MakeObject();
  algorithm_json.Set("name", algorithm.name);
  algorithm_json.Set("k", algorithm.k);
  algorithm_json.Set("t", algorithm.t);
  algorithm_json.Set("seed", static_cast<double>(algorithm.seed));
  json.Set("algorithm", std::move(algorithm_json));

  JsonValue execution_json = JsonValue::MakeObject();
  execution_json.Set("mode", ExecutionModeName(execution.mode));
  execution_json.Set("threads", execution.threads);
  execution_json.Set("shard_size", execution.shard_size);
  if (execution.mode == ExecutionMode::kStreaming) {
    execution_json.Set("max_resident_rows", execution.max_resident_rows);
  }
  if (execution.merge_strategy != MergeStrategy::kSequential) {
    execution_json.Set("merge_strategy",
                       MergeStrategyName(execution.merge_strategy));
  }
  if (execution.overlap_io) {
    execution_json.Set("overlap_io", execution.overlap_io);
  }
  json.Set("execution", std::move(execution_json));

  json.Set("verify", verify);

  if (!output.release_path.empty() || !output.report_path.empty() ||
      !output.trace_path.empty()) {
    JsonValue output_json = JsonValue::MakeObject();
    if (!output.release_path.empty()) {
      output_json.Set("release_path", output.release_path);
    }
    if (!output.report_path.empty()) {
      output_json.Set("report_path", output.report_path);
    }
    if (!output.trace_path.empty()) {
      output_json.Set("trace_path", output.trace_path);
    }
    json.Set("output", std::move(output_json));
  }

  if (sweep.has_value()) {
    JsonValue sweep_json = JsonValue::MakeObject();
    if (!sweep->algorithms.empty()) {
      JsonValue list = JsonValue::MakeArray();
      for (const std::string& name : sweep->algorithms) list.Append(name);
      sweep_json.Set("algorithms", std::move(list));
    }
    if (!sweep->ks.empty()) {
      JsonValue list = JsonValue::MakeArray();
      for (size_t k : sweep->ks) list.Append(k);
      sweep_json.Set("ks", std::move(list));
    }
    if (!sweep->ts.empty()) {
      JsonValue list = JsonValue::MakeArray();
      for (double t : sweep->ts) list.Append(t);
      sweep_json.Set("ts", std::move(list));
    }
    json.Set("sweep", std::move(sweep_json));
  }
  return json;
}

std::string JobSpec::ToJsonText(int indent) const {
  return ToJson().Write(indent);
}

Status JobSpec::Validate() const {
  if (version != kVersion) {
    return SpecError("unsupported job spec version " +
                     std::to_string(version));
  }

  // Input.
  switch (input.kind) {
    case InputKind::kCsvPath:
      if (input.path.empty()) {
        return SpecError("input.path must name an input file");
      }
      // A .tcmb file carries a full schema and may already carry roles;
      // CSV headers carry names only, so roles are mandatory there.
      if (input.format == InputFormat::kCsv &&
          (roles.quasi_identifiers.empty() || roles.confidential.empty())) {
        return SpecError(
            "CSV input needs roles.quasi_identifiers and "
            "roles.confidential (column names in the header)");
      }
      break;
    case InputKind::kSynthetic:
      if (!IsKnownGenerator(input.generator)) {
        return SpecError(
            "input.generator must be one of uniform, clustered, mcd, hcd, "
            "adult, patient_discharge; got \"" + input.generator + "\"");
      }
      if (input.rows < 2) {
        return SpecError("input.rows must be at least 2");
      }
      if ((input.generator == "uniform" || input.generator == "clustered") &&
          input.quasi_identifiers < 1) {
        return SpecError("input.quasi_identifiers must be at least 1");
      }
      break;
    case InputKind::kDataset:
      if (input.dataset == nullptr) {
        return SpecError("input kind \"dataset\" needs a non-null dataset");
      }
      break;
    case InputKind::kRecordSource:
      if (input.source == nullptr) {
        return SpecError(
            "input kind \"record_source\" needs a non-null source");
      }
      break;
  }
  if (input.format != InputFormat::kCsv &&
      input.kind != InputKind::kCsvPath) {
    return SpecError("input.format applies to file inputs (kind \"csv\") "
                     "only");
  }

  // Algorithm parameters. Sweep cells are checked below; the base section
  // always validates because sweeps fall back to it for empty lists.
  TCM_RETURN_IF_ERROR(CheckAlgorithmName(algorithm.name));
  if (algorithm.k < 1) {
    return SpecError("algorithm.k must be at least 1");
  }
  if (!std::isfinite(algorithm.t) || algorithm.t < 0.0) {
    return SpecError("algorithm.t must be a finite number >= 0");
  }
  // Seeds serialize as JSON numbers (doubles), which are exact only up
  // to 2^53 — larger values would not survive ToJson -> FromJson, so the
  // whole spec surface rejects them rather than round-tripping lossily.
  constexpr uint64_t kMaxJsonSeed = uint64_t{1} << 53;
  if (algorithm.seed > kMaxJsonSeed) {
    return SpecError("algorithm.seed must be <= 2^53 (seeds travel as "
                     "JSON numbers)");
  }
  if (input.kind == InputKind::kSynthetic && input.seed > kMaxJsonSeed) {
    return SpecError("input.seed must be <= 2^53 (seeds travel as JSON "
                     "numbers)");
  }

  // Execution.
  if (execution.mode == ExecutionMode::kStreaming) {
    if (input.kind == InputKind::kDataset) {
      return SpecError(
          "streaming execution reads a csv, record_source or streaming-"
          "capable synthetic input, not an in-memory dataset");
    }
    if (input.kind == InputKind::kSynthetic &&
        !IsStreamingGenerator(input.generator)) {
      return SpecError("synthetic generator \"" + input.generator +
                       "\" cannot stream; streaming-capable generators: "
                       "uniform, clustered");
    }
    // A window needs max(k, 2) rows plus the k-row read-ahead; with
    // overlap_io two windows are resident at once (the one being
    // processed and the one being prefetched).
    const size_t min_window = std::max<size_t>(algorithm.k, 2);
    const size_t floor =
        algorithm.k + (execution.overlap_io ? 2 : 1) * min_window;
    if (execution.max_resident_rows < floor) {
      return SpecError(
          "execution.max_resident_rows (" +
          std::to_string(execution.max_resident_rows) +
          ") too small: need at least k + " +
          (execution.overlap_io ? "2 * " : "") + "max(k, 2) = " +
          std::to_string(floor) + " rows for k = " +
          std::to_string(algorithm.k));
    }
    if (sweep.has_value()) {
      return SpecError("sweep requires in-memory execution");
    }
  } else if (execution.overlap_io) {
    return SpecError("execution.overlap_io applies to streaming "
                     "execution only");
  }

  // Sweep cells.
  if (sweep.has_value()) {
    if (!output.release_path.empty()) {
      return SpecError(
          "sweeps measure without keeping releases; leave "
          "output.release_path empty (run the winning cell as its own "
          "job to publish it)");
    }
    for (const std::string& name : sweep->algorithms) {
      TCM_RETURN_IF_ERROR(CheckAlgorithmName(name));
    }
    for (size_t k : sweep->ks) {
      if (k < 1) return SpecError("sweep.ks entries must be at least 1");
    }
    for (double t : sweep->ts) {
      if (!std::isfinite(t) || t < 0.0) {
        return SpecError("sweep.ts entries must be finite numbers >= 0");
      }
    }
  }
  return Status::Ok();
}

}  // namespace tcm
