#ifndef TCM_API_JOB_H_
#define TCM_API_JOB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "tclose/merge.h"

namespace tcm {

class Dataset;
class RecordSource;

// ---------------------------------------------------------------------------
// JobSpec: the one versioned description of an anonymization job, the
// public API boundary of this library. RunJob (api/runner.h) runs it
// directly: every non-sweep job, in-memory or out-of-core, through one
// window loop over ShardedAnonymize, and parameter sweeps as one
// ShardedAnonymize call per cell. A JobSpec round-trips through JSON
// (FromJson/ToJson) with strict unknown-key and type validation, so
// config-driven deployments, services and the CLI all speak the same
// schema. See README.md ("API") for the documented job.json layout.
// ---------------------------------------------------------------------------

// Where the records come from. kCsvPath and kSynthetic serialize to
// JSON; kDataset and kRecordSource are programmatic-only (in-process
// callers handing over live objects) and are rejected by FromJson.
enum class InputKind { kCsvPath, kSynthetic, kDataset, kRecordSource };

// On-disk encoding of a file input (kCsvPath): the CSV text format, or
// the .tcmb columnar binary format (colstore/tcmb.h) produced by
// `tcm_anonymize --convert`. A .tcmb input memory-maps zero-copy, carries
// its own schema (including categorical dictionaries), and yields
// byte-identical releases to the CSV it was converted from.
enum class InputFormat { kCsv, kTcmb };

// How the job executes, both on RunJob's window loop: fully in memory
// (the input loaded once and run as a single window), or window by
// window under a bounded resident-row budget.
enum class ExecutionMode { kInMemory, kStreaming };

const char* InputKindName(InputKind kind);
const char* InputFormatName(InputFormat format);
const char* ExecutionModeName(ExecutionMode mode);

struct JobInput {
  InputKind kind = InputKind::kCsvPath;

  // kCsvPath: numeric CSV with a header row, or a .tcmb columnar file
  // when format is kTcmb. Relative paths resolve against the process
  // working directory.
  std::string path;
  InputFormat format = InputFormat::kCsv;

  // kSynthetic: one of the library's generators —
  //   "uniform", "clustered"           (streaming-capable)
  //   "mcd", "hcd", "adult", "patient_discharge"  (in-memory only)
  // rows/quasi_identifiers/modes/seed parameterize them; generators that
  // fix a parameter (e.g. mcd's schema) ignore the inapplicable fields.
  std::string generator = "uniform";
  size_t rows = 1000;
  size_t quasi_identifiers = 2;
  size_t modes = 4;  // clustered only
  uint64_t seed = 1;

  // kDataset / kRecordSource: non-owning; the object must outlive RunJob.
  const Dataset* dataset = nullptr;
  RecordSource* source = nullptr;
};

// Column roles, assigned by name against the input's schema. They apply
// the same way to every input kind in either mode, on top of any roles
// the input carries. May stay empty for inputs whose schema already has
// both role kinds (a .tcmb file written with roles, datasets, record
// sources, every synthetic generator); required for CSV inputs.
struct JobRoles {
  std::vector<std::string> quasi_identifiers;
  std::string confidential;
};

// The anonymization algorithm and its privacy parameters.
struct JobAlgorithm {
  std::string name = "tclose_first";  // any AlgorithmRegistry name
  size_t k = 5;
  double t = 0.1;
  uint64_t seed = 1;
};

// Execution shape: mode, parallelism and memory budget.
struct JobExecution {
  ExecutionMode mode = ExecutionMode::kInMemory;
  // Width of the pool RunJob builds for this job, 0 = one per hardware
  // thread. Unused when the caller brings its own pool: a job served by
  // tcm_serve runs on the daemon's --threads workers instead.
  size_t threads = 1;
  size_t shard_size = 4096;  // rows per shard; 0 = one shard
  // Streaming only: resident input rows (window + k-row read-ahead);
  // at least k + max(k, 2), or k + 2 * max(k, 2) with overlap_io.
  size_t max_resident_rows = 200000;
  // Engine for the global t-closeness repair pass: "sequential" is the
  // byte-stable legacy loop, "hierarchical" repairs deterministic
  // subtrees in parallel with EMD-bound pruning (reproducible at any
  // thread count, but legitimately different release bytes). See
  // ShardedAnonymizeOptions::merge_strategy.
  MergeStrategy merge_strategy = MergeStrategy::kSequential;
  // Streaming only: while a window anonymizes, read/parse the next one
  // and verify and write the previous one on the pool. Halves the window
  // target to stay inside max_resident_rows, so the window boundaries
  // (and release bytes) differ from the non-overlapped run,
  // deterministically.
  bool overlap_io = false;
};

// Optional parameter-sweep fan-out: the cross product of algorithms x ks
// x ts runs as one batch (in-memory only) and the report carries one
// outcome per cell. Empty lists default to the spec's own algorithm
// section, so a sweep over just ks is `{"ks": [2, 5, 10]}`. Sweeps
// MEASURE without keeping or verifying releases (`verify` does not
// apply, and RunReport.verify_requested stays false): publish the
// winning cell as its own non-sweep job to get a verified release.
struct JobSweep {
  std::vector<std::string> algorithms;
  std::vector<size_t> ks;
  std::vector<double> ts;
};

// Output sinks. Empty paths skip the corresponding write.
struct JobOutput {
  std::string release_path;  // anonymized CSV
  std::string report_path;   // machine-readable RunReport JSON
  // Chrome trace-event JSON of the run (obs/trace.h). Naming a path
  // enables tracing for the duration of the job; open the file in
  // chrome://tracing or https://ui.perfetto.dev.
  std::string trace_path;
};

struct JobSpec {
  // The schema version this library reads and writes. FromJson rejects
  // documents with any other "version".
  static constexpr int kVersion = 1;

  int version = kVersion;
  JobInput input;
  JobRoles roles;
  JobAlgorithm algorithm;
  JobExecution execution;
  // Re-check the release (every window, when streaming) with the
  // independent privacy evaluators; a failure is kPrivacyViolation.
  // Sweeps ignore this: they measure cells without producing releases.
  bool verify = true;
  JobOutput output;
  std::optional<JobSweep> sweep;

  // Strict deserialization: unknown keys anywhere, wrong JSON types,
  // out-of-range parameters (k = 0, t < 0, ...) and unsupported version
  // all fail with StatusCode::kInvalidSpec and a message naming the
  // offending key. An unregistered algorithm name fails with
  // kUnknownAlgorithm (listing the registered names).
  static Result<JobSpec> FromJson(const JsonValue& json);
  static Result<JobSpec> FromJsonText(std::string_view text);
  static Result<JobSpec> FromJsonFile(const std::string& path);

  // Serialization. Programmatic input kinds serialize with their kind
  // name ("dataset"/"record_source") so reports can echo the spec, but
  // such documents are rejected on the way back in.
  JsonValue ToJson() const;
  std::string ToJsonText(int indent = 2) const;

  // Semantic validation shared by FromJson and RunJob: parameter ranges,
  // kind/mode compatibility (e.g. only uniform/clustered generators can
  // stream), sweep contents, registered algorithm names. kInvalidSpec or
  // kUnknownAlgorithm on failure.
  Status Validate() const;
};

}  // namespace tcm

#endif  // TCM_API_JOB_H_
