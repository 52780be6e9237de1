#include "api/runner.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "colstore/column_table.h"
#include "colstore/columnar_source.h"
#include "colstore/tcmb.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "engine/batch.h"
#include "engine/pipeline.h"
#include "engine/streaming.h"
#include "obs/trace.h"

namespace tcm {
namespace {

Dataset MakeSyntheticDataset(const JobInput& input) {
  if (input.generator == "uniform") {
    return MakeUniformDataset(input.rows, input.quasi_identifiers,
                              input.seed);
  }
  if (input.generator == "clustered") {
    return MakeClusteredDataset(input.rows, input.quasi_identifiers,
                                input.modes, input.seed);
  }
  if (input.generator == "mcd") {
    return MakeMcdDataset({.num_records = input.rows, .seed = input.seed});
  }
  if (input.generator == "hcd") {
    return MakeHcdDataset({.num_records = input.rows, .seed = input.seed});
  }
  if (input.generator == "adult") {
    return MakeAdultLike({.num_records = input.rows, .seed = input.seed});
  }
  // Validate() restricted the name, so this is the only one left.
  return MakePatientDischargeLike(
      {.num_records = input.rows, .seed = input.seed});
}

Result<Dataset> DrainSource(RecordSource* source) {
  constexpr size_t kBatch = 65536;
  Dataset out(source->schema());
  while (true) {
    TCM_ASSIGN_OR_RETURN(size_t got, source->ReadInto(&out, kBatch));
    if (got < kBatch) break;
  }
  return out;
}

// Zero-copy accounting carried up into RunReport's "input" object.
struct InputBytes {
  size_t mapped = 0;
  size_t copied = 0;
};

// Logical payload bytes of one materialized row (8 per numeric cell, 4
// per dictionary code): the copy cost of turning columns into Records.
size_t RowPayloadBytes(const Schema& schema) {
  size_t width = 0;
  for (const Attribute& attr : schema.attributes()) {
    width += attr.is_categorical() ? sizeof(int32_t) : sizeof(double);
  }
  return width;
}

// Size of a CSV input, the bytes its load copies (0 when unreadable).
size_t CsvFileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

// A .tcmb file may carry roles of its own; when neither it nor the spec
// provides both role kinds the job cannot anonymize anything — fail as an
// invalid spec (exit 3 at the CLI) rather than deep inside the engine.
Status CheckTcmbRoles(const Schema& schema) {
  if (schema.QuasiIdentifierIndices().empty() ||
      schema.ConfidentialIndices().empty()) {
    return Status::InvalidSpec(
        ".tcmb input carries no quasi-identifier/confidential roles; set "
        "roles.quasi_identifiers and roles.confidential in the spec");
  }
  return Status::Ok();
}

// Materializes the job's input as an in-memory dataset with the spec's
// roles applied. To avoid copying a caller-provided dataset whose roles
// are already set (the common programmatic path), the result is a
// pointer: either into the spec or into *storage. `bytes` receives the
// input's map/copy accounting.
Result<const Dataset*> MaterializeDataset(const JobSpec& spec,
                                          Dataset* storage,
                                          InputBytes* bytes) {
  switch (spec.input.kind) {
    case InputKind::kCsvPath: {
      if (spec.input.format == InputFormat::kTcmb) {
        TCM_ASSIGN_OR_RETURN(ColumnTable table, ReadTcmb(spec.input.path));
        bytes->mapped = table.mapped_bytes();
        bytes->copied = table.copied_bytes() +
                        table.num_rows() * RowPayloadBytes(table.schema());
        *storage = table.ToDataset();
      } else {
        TCM_ASSIGN_OR_RETURN(*storage, ReadNumericCsv(spec.input.path));
        bytes->copied = CsvFileBytes(spec.input.path);
      }
      break;
    }
    case InputKind::kSynthetic:
      *storage = MakeSyntheticDataset(spec.input);
      break;
    case InputKind::kDataset:
      if (spec.roles.quasi_identifiers.empty() &&
          spec.roles.confidential.empty()) {
        return spec.input.dataset;  // roles kept: no copy needed
      }
      *storage = *spec.input.dataset;
      break;
    case InputKind::kRecordSource: {
      TCM_ASSIGN_OR_RETURN(*storage, DrainSource(spec.input.source));
      break;
    }
  }
  if (!spec.roles.quasi_identifiers.empty() ||
      !spec.roles.confidential.empty()) {
    TCM_RETURN_IF_ERROR(AssignRoles(storage, spec.roles.quasi_identifiers,
                                    spec.roles.confidential));
  }
  if (spec.input.kind == InputKind::kCsvPath &&
      spec.input.format == InputFormat::kTcmb) {
    TCM_RETURN_IF_ERROR(CheckTcmbRoles(storage->schema()));
  }
  return storage;
}

// The record stream a non-sweep job runs over, plus whatever owns it.
struct JobSource {
  RecordSource* source = nullptr;
  std::unique_ptr<StreamingCsvReader> reader;
  std::unique_ptr<ColumnarSource> columnar;
  std::unique_ptr<SyntheticSource> synthetic;
  // In-memory jobs: the materialized input and its adapter.
  Dataset storage;
  std::optional<DatasetSource> dataset;
  size_t dataset_rows = 0;
};

// In-memory input: the whole dataset, loaded once, as one stream.
Status OpenInMemorySource(const JobSpec& spec, JobSource* input,
                          RunReport* report) {
  TraceSpan span("load");
  InputBytes bytes;
  TCM_ASSIGN_OR_RETURN(const Dataset* data,
                       MaterializeDataset(spec, &input->storage, &bytes));
  report->input_mapped_bytes = bytes.mapped;
  report->input_copied_bytes = bytes.copied;
  input->dataset.emplace(data);
  input->source = &*input->dataset;
  input->dataset_rows = data->NumRecords();
  return Status::Ok();
}

// Streaming input: a reader over the file, a generator or the caller's
// source, never materialized.
Status OpenStreamingSource(const JobSpec& spec, JobSource* input) {
  switch (spec.input.kind) {
    case InputKind::kCsvPath: {
      if (spec.input.format == InputFormat::kTcmb) {
        TCM_ASSIGN_OR_RETURN(input->columnar,
                             ColumnarSource::Open(spec.input.path));
        if (!spec.roles.quasi_identifiers.empty() ||
            !spec.roles.confidential.empty()) {
          TCM_ASSIGN_OR_RETURN(
              Schema schema,
              SchemaWithRoles(input->columnar->schema(),
                              spec.roles.quasi_identifiers,
                              spec.roles.confidential));
          TCM_RETURN_IF_ERROR(
              input->columnar->ReplaceSchema(std::move(schema)));
        }
        TCM_RETURN_IF_ERROR(CheckTcmbRoles(input->columnar->schema()));
        input->source = input->columnar.get();
        break;
      }
      TCM_ASSIGN_OR_RETURN(input->reader,
                           StreamingCsvReader::OpenNumeric(spec.input.path));
      TCM_ASSIGN_OR_RETURN(
          Schema schema,
          SchemaWithRoles(input->reader->schema(),
                          spec.roles.quasi_identifiers,
                          spec.roles.confidential));
      TCM_RETURN_IF_ERROR(input->reader->ReplaceSchema(std::move(schema)));
      input->source = input->reader.get();
      break;
    }
    case InputKind::kSynthetic:
      if (spec.input.generator == "uniform") {
        input->synthetic = MakeUniformSource(
            spec.input.rows, spec.input.quasi_identifiers, spec.input.seed);
      } else {
        input->synthetic = MakeClusteredSource(
            spec.input.rows, spec.input.quasi_identifiers, spec.input.modes,
            spec.input.seed);
      }
      input->source = input->synthetic.get();
      break;
    case InputKind::kRecordSource:
      input->source = spec.input.source;
      break;
    case InputKind::kDataset:
      return Status::InvalidSpec(
          "streaming execution cannot read an in-memory dataset");
  }
  return Status::Ok();
}

// Copies the runner's account of a job into the report's shared core,
// the same for both execution modes.
void FillReport(const StreamingReport& run, RunReport* report) {
  report->rows = run.total_rows;
  report->clusters = 0;
  for (const StreamingWindowSummary& window : run.windows) {
    report->clusters += window.clusters;
  }
  report->min_cluster_size = run.min_cluster_size;
  report->max_cluster_size = run.max_cluster_size;
  report->max_cluster_emd = run.max_cluster_emd;
  report->normalized_sse = run.normalized_sse;
  report->threads = run.threads;
  report->num_shards = run.stats.num_shards;
  report->final_merges = run.stats.final_merges;
  report->k_verified = run.k_verified;
  report->t_verified = run.t_verified;
  report->load_seconds += run.read_seconds;
  report->anonymize_seconds = run.anonymize_seconds;
  report->verify_seconds = run.verify_seconds;
  report->write_seconds = run.write_seconds;
  report->stage_seconds = {
      {"shard_seconds", run.stats.shard_seconds},
      {"shard_anonymize_seconds", run.stats.anonymize_seconds},
      {"merge_seconds", run.stats.merge_seconds},
      {"metrics_seconds", run.stats.measure_seconds},
  };
  report->merge_subtrees = run.stats.merge_subtrees;
  report->subtree_merges = run.stats.subtree_merges;
  report->tail_merges = run.stats.tail_merges;
  report->candidate_checks = run.stats.candidate_checks;
  report->pruned_checks = run.stats.pruned_checks;
  report->exact_checks = run.stats.exact_checks;
}

// Both execution modes run on StreamingPipelineRunner. An in-memory job
// is one window: the budget covers every row plus the k-row read-ahead,
// so window 0 holds the whole input and runs with the spec's own seed,
// and a sink keeps that window's release for the caller.
Status RunPipelineJob(const JobSpec& spec, RunReport* report) {
  const bool in_memory = spec.execution.mode == ExecutionMode::kInMemory;
  StreamingSpec engine;
  engine.algorithm = spec.algorithm.name;
  engine.k = spec.algorithm.k;
  engine.t = spec.algorithm.t;
  engine.seed = spec.algorithm.seed;
  engine.shard_size = spec.execution.shard_size;
  engine.max_resident_rows = spec.execution.max_resident_rows;
  engine.merge_strategy = spec.execution.merge_strategy;
  engine.overlap_io = spec.execution.overlap_io;
  engine.verify = spec.verify;
  engine.output_path = spec.output.release_path;

  JobSource input;
  StreamingPipelineRunner::WindowSink keep_release;
  if (in_memory) {
    WallTimer load_timer;
    TCM_RETURN_IF_ERROR(OpenInMemorySource(spec, &input, report));
    report->load_seconds = load_timer.ElapsedSeconds();
    // Never below the runner's floor of k + max(k, 2), so undersized
    // inputs still reach the engine's own validation. (Validate() has
    // already refused overlap_io, which would halve the window.)
    engine.max_resident_rows =
        std::max<size_t>(input.dataset_rows, std::max<size_t>(engine.k, 2)) +
        engine.k;
    keep_release = [report](Dataset release, const StreamingWindowSummary&) {
      report->release = std::move(release);
      return Status::Ok();
    };
  } else {
    TCM_RETURN_IF_ERROR(OpenStreamingSource(spec, &input));
  }

  StreamingPipelineRunner runner(spec.execution.threads);
  TCM_ASSIGN_OR_RETURN(StreamingReport run,
                       runner.Run(input.source, engine, keep_release));
  FillReport(run, report);
  if (in_memory) {
    report->average_cluster_size = static_cast<double>(report->rows) /
                                   static_cast<double>(report->clusters);
    return Status::Ok();
  }
  report->num_windows = run.num_windows;
  report->peak_resident_rows = run.peak_resident_rows;
  report->overlapped_reads = run.overlapped_reads;
  report->windows = std::move(run.windows);
  if (input.columnar != nullptr) {
    report->input_mapped_bytes = input.columnar->mapped_bytes();
    report->input_copied_bytes = input.columnar->copied_bytes();
  } else if (input.reader != nullptr) {
    report->input_copied_bytes = CsvFileBytes(spec.input.path);
  }
  return Status::Ok();
}

Status RunSweepJob(const JobSpec& spec, RunReport* report) {
  WallTimer timer;
  Dataset storage;
  InputBytes bytes;
  TCM_ASSIGN_OR_RETURN(const Dataset* data,
                       MaterializeDataset(spec, &storage, &bytes));
  report->input_mapped_bytes = bytes.mapped;
  report->input_copied_bytes = bytes.copied;
  report->load_seconds = timer.ElapsedSeconds();
  report->rows = data->NumRecords();

  const JobSweep& sweep = *spec.sweep;
  const std::vector<std::string> algorithms =
      sweep.algorithms.empty() ? std::vector<std::string>{spec.algorithm.name}
                               : sweep.algorithms;
  const std::vector<size_t> ks =
      sweep.ks.empty() ? std::vector<size_t>{spec.algorithm.k} : sweep.ks;
  const std::vector<double> ts =
      sweep.ts.empty() ? std::vector<double>{spec.algorithm.t} : sweep.ts;

  // One enumeration of the cross product: the coordinates drive both the
  // batch jobs and the outcome rows, so they can never fall out of step.
  struct SweepCell {
    std::string algorithm;
    size_t k;
    double t;
  };
  std::vector<SweepCell> cells;
  cells.reserve(algorithms.size() * ks.size() * ts.size());
  for (const std::string& algorithm : algorithms) {
    for (size_t k : ks) {
      for (double t : ts) cells.push_back({algorithm, k, t});
    }
  }

  std::vector<BatchJob> jobs;
  jobs.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    BatchJob job;
    job.label = cell.algorithm + "/k=" + std::to_string(cell.k) +
                "/t=" + FormatDouble(cell.t);
    job.data = data;
    job.algorithm = cell.algorithm;
    job.params.k = cell.k;
    job.params.t = cell.t;
    job.params.seed = spec.algorithm.seed;
    jobs.push_back(std::move(job));
  }

  ThreadPool pool(spec.execution.threads);
  report->threads = pool.num_threads();
  timer.Restart();
  std::vector<BatchOutcome> outcomes = RunBatch(jobs, &pool);
  // Wall clock of the fan-out; each cell's own time is in its outcome
  // (their sum exceeds this when cells run concurrently).
  report->anonymize_seconds = timer.ElapsedSeconds();

  report->sweep.reserve(outcomes.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const BatchOutcome& outcome = outcomes[i];
    SweepOutcome out;
    out.label = outcome.label;
    out.algorithm = cells[i].algorithm;
    out.k = cells[i].k;
    out.t = cells[i].t;
    if (!outcome.status.ok()) {
      out.error_code = StatusCodeName(outcome.status.code());
      out.error = outcome.status.message();
    } else {
      out.clusters = outcome.clusters;
      out.min_cluster_size = outcome.min_cluster_size;
      out.max_cluster_size = outcome.max_cluster_size;
      out.max_cluster_emd = outcome.max_cluster_emd;
      out.normalized_sse = outcome.normalized_sse;
      out.elapsed_seconds = outcome.elapsed_seconds;
    }
    report->sweep.push_back(std::move(out));
  }
  return Status::Ok();
}

}  // namespace

Result<RunReport> RunJob(const JobSpec& spec) {
  TCM_RETURN_IF_ERROR(spec.Validate());

  // Trace sink: collect spans for the duration of this job and export
  // them as Chrome trace-event JSON. The recorder is process-global, so
  // concurrent jobs (the serve daemon) share one trace when any of them
  // asks for it.
  std::optional<TraceSink> trace_sink;
  if (!spec.output.trace_path.empty()) {
    trace_sink.emplace(spec.output.trace_path);
  }

  WallTimer total;
  RunReport report;
  report.mode = spec.execution.mode;
  report.swept = spec.sweep.has_value();
  report.algorithm = spec.algorithm.name;
  report.k = spec.algorithm.k;
  report.t = spec.algorithm.t;
  report.seed = spec.algorithm.seed;
  report.merge_strategy = spec.execution.merge_strategy;
  report.overlap_io = spec.execution.overlap_io;
  report.input_format = spec.input.kind == InputKind::kCsvPath
                            ? InputFormatName(spec.input.format)
                            : InputKindName(spec.input.kind);
  report.verify_requested = spec.verify && !report.swept;
  if (!report.swept) report.release_path = spec.output.release_path;

  {
    TraceSpan job_span("job");
    if (report.swept) {
      TCM_RETURN_IF_ERROR(RunSweepJob(spec, &report));
    } else {
      TCM_RETURN_IF_ERROR(RunPipelineJob(spec, &report));
    }
  }
  report.total_seconds = total.ElapsedSeconds();

  if (!spec.output.report_path.empty()) {
    TCM_RETURN_IF_ERROR(
        WriteJsonFile(report.ToJson(), spec.output.report_path));
  }
  if (trace_sink.has_value()) {
    TCM_RETURN_IF_ERROR(trace_sink->Finish());
  }
  return report;
}

Result<RunReport> RunJob(const Dataset& data, JobSpec spec) {
  spec.input = JobInput{};
  spec.input.kind = InputKind::kDataset;
  spec.input.dataset = &data;
  return RunJob(spec);
}

Result<RunReport> RunJob(RecordSource* source, JobSpec spec) {
  spec.input = JobInput{};
  spec.input.kind = InputKind::kRecordSource;
  spec.input.source = source;
  return RunJob(spec);
}

Status VerifyRelease(const Dataset& release, size_t k, double t) {
  TCM_ASSIGN_OR_RETURN(ReleaseVerification verification,
                       CheckRelease(release, k, t));
  if (!verification.ok()) return PrivacyViolationError(verification);
  return Status::Ok();
}

}  // namespace tcm
