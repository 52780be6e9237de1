#include "api/runner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "colstore/columnar_source.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/csv_stream.h"
#include "data/generator.h"
#include "data/record_source.h"
#include "engine/pipeline.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "obs/trace.h"
#include "privacy/verify.h"

namespace tcm {
namespace {

// The generators that cannot stream build their whole dataset at once.
Dataset MakeSyntheticDataset(const JobInput& input) {
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

// Size of a CSV input, the bytes its load copies (0 when unreadable).
size_t CsvFileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

// A .tcmb file or a caller's dataset or record source may carry roles of
// its own; when neither it nor the spec provides both role kinds the job
// cannot anonymize anything — fail as an invalid spec (exit 3 at the
// CLI) up front rather than deep inside the engine.
Status CheckRoles(const Schema& schema) {
  if (schema.QuasiIdentifierIndices().empty() ||
      schema.ConfidentialIndices().empty()) {
    return Status::InvalidSpec(
        "input carries no quasi-identifier/confidential roles; set "
        "roles.quasi_identifiers and roles.confidential in the spec");
  }
  return Status::Ok();
}

// A job's input: the record stream it reads, whatever owns that stream,
// and the schema its rows are read into — the stream's own schema with
// the spec's roles applied. Roles live only on that schema: a source's
// ReadInto checks cell kinds, never roles, so no source is rewritten.
struct JobSource {
  RecordSource* source = nullptr;
  std::unique_ptr<RecordSource> owned;
  ColumnarSource* columnar = nullptr;  // .tcmb input, for byte accounting
  Dataset generated;  // the rows of a generator that cannot stream
  Schema schema;
};

// Opens any input kind as one record stream and applies the spec's roles:
// the one place either happens, for both modes and for sweeps.
Status OpenSource(const JobSpec& spec, JobSource* input) {
  switch (spec.input.kind) {
    case InputKind::kCsvPath:
      if (spec.input.format == InputFormat::kTcmb) {
        TCM_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarSource> columnar,
                             ColumnarSource::Open(spec.input.path));
        input->columnar = columnar.get();
        input->owned = std::move(columnar);
      } else {
        TCM_ASSIGN_OR_RETURN(input->owned,
                             StreamingCsvReader::OpenNumeric(spec.input.path));
      }
      break;
    case InputKind::kSynthetic:
      if (spec.input.generator == "uniform") {
        input->owned = MakeUniformSource(
            spec.input.rows, spec.input.quasi_identifiers, spec.input.seed);
      } else if (spec.input.generator == "clustered") {
        input->owned = MakeClusteredSource(
            spec.input.rows, spec.input.quasi_identifiers, spec.input.modes,
            spec.input.seed);
      } else {
        input->generated = MakeSyntheticDataset(spec.input);
        input->owned = std::make_unique<DatasetSource>(&input->generated);
      }
      break;
    case InputKind::kDataset:
      input->owned = std::make_unique<DatasetSource>(spec.input.dataset);
      break;
    case InputKind::kRecordSource:
      input->source = spec.input.source;
      break;
  }
  if (input->owned != nullptr) input->source = input->owned.get();
  TCM_ASSIGN_OR_RETURN(input->schema,
                       SchemaWithRoles(input->source->schema(),
                                       spec.roles.quasi_identifiers,
                                       spec.roles.confidential));
  return CheckRoles(input->schema);
}

// Seed stride between windows; deliberately different from the per-shard
// stride inside ShardedAnonymize. Window 0 adds nothing, so a job whose
// stream fits in one window uses the spec's seed exactly — which keeps a
// single-window release equal to one ShardedAnonymize call.
constexpr uint64_t kWindowSeedStride = 0xC2B2AE3D27D4EB4FULL;

// Runs one window step's stages, joins them all, and returns the first
// failure in index order. A stage does not start once a lower-index
// stage has failed, so a serial step stops at its first failure. With a
// null pool the stages run inline in index order. With a pool they run
// concurrently, and the calling thread runs `caller_stage` itself
// (ParallelFor's caller runs its index 0, so the indices are rotated to
// put that stage there). The window loop passes its anonymize stage:
// its window-sized allocations then always come from the caller's
// malloc arena, where spread over the workers' arenas they raised a
// streamed job's peak RSS by about half.
Status RunStages(ThreadPool* pool, size_t caller_stage,
                 const std::vector<std::function<Status()>>& stages) {
  const size_t n = stages.size();
  const size_t rotation = pool == nullptr ? 0 : caller_stage;
  std::vector<Status> statuses(n);
  std::atomic<size_t> first_failed{n};
  ParallelFor(pool, n, [&](size_t i) {
    const size_t stage = (i + rotation) % n;
    if (first_failed.load() < stage) return;
    statuses[stage] = stages[stage]();
    if (!statuses[stage].ok()) {
      size_t seen = first_failed.load();
      while (stage < seen &&
             !first_failed.compare_exchange_weak(seen, stage)) {
      }
    }
  });
  for (const Status& status : statuses) TCM_RETURN_IF_ERROR(status);
  return Status::Ok();
}

// The window loop behind every non-sweep job: consume the input's stream
// window by window, run each window through ShardedAnonymize on `pool`,
// verify and write it, and fold it into `report`. An in-memory job is one
// unbounded window, read straight from the stream, whose release stays in
// report->release.
//
// Memory model (streaming). The budget governs input rows:
//   - a window is filled to max_resident_rows - k input rows;
//   - k more rows are read ahead to decide whether the stream continues;
//     if the stream ends inside the read-ahead, its rows (fewer than k,
//     too few to anonymize alone) join the current window.
// Without overlap_io one window plus the read-ahead is resident, so
// resident input rows never exceed max_resident_rows, whose floor
// JobSpec::Validate checks.
//
// Lock-step loop. Step w runs up to three stages, in this order: verify
// window w-1's release and then write it (a window that fails
// verification is never written), anonymize window w, and read window
// w+1. The step joins all of them before window w is folded into the
// report, so no stage outlives its step, and the stages of one step
// share no mutable state: the writer and the verdicts, the anonymize
// result, and the reader state with the buffer being filled each belong
// to one stage. Without overlap_io the stages run inline in order, so
// the read refills the buffer window w was anonymized from. With
// overlap_io they run concurrently on the job's pool and the read fills
// the other of two buffers, reserved once and reused. Two input windows
// are then resident at once, so the window target is halved to fit both
// plus the read-ahead in the budget.
//
// Releases are outside the budget, which counts input rows only: the
// anonymized copy of the window in flight, and under overlap_io also
// window w-1's release while it is verified and written. Under
// overlap_io the verify and write seconds overlap anonymize, so the
// stage sums can exceed total_seconds.
//
// Errors. A failed read of window w+1 is held and surfaces as window
// w+1's failure in step w+1, after window w is verified and written.
// Stages are in window order and a step returns its first failure, so
// when several windows fail, the earliest one's error is returned.
//
// Each released window is k-anonymous and t-close on its own, so their
// concatenation is k-anonymous, and t-close per window.
//
// Determinism. Window w runs with seed + kWindowSeedStride * w, and
// ShardedAnonymize is byte-identical for any thread count, so releases
// are too. A stream that fits in one window releases the in-memory
// job's bytes; the tests pin it.
Status RunWindows(const JobSpec& spec, const JobSource& input,
                  ThreadPool* pool, RunReport* report) {
  RecordSource* const source = input.source;
  const Schema& schema = input.schema;
  const bool streaming = spec.execution.mode == ExecutionMode::kStreaming;
  const bool overlap_io = spec.execution.overlap_io;
  const size_t read_ahead = spec.algorithm.k;
  const size_t window_target =
      streaming ? (spec.execution.max_resident_rows - read_ahead) /
                      (overlap_io ? 2 : 1)
                : std::numeric_limits<size_t>::max();
  ThreadPool* const step_pool = overlap_io ? pool : nullptr;

  ShardedAnonymizeOptions options;
  options.algorithm = spec.algorithm.name;
  options.params.k = spec.algorithm.k;
  options.params.t = spec.algorithm.t;
  options.shard_size = spec.execution.shard_size;
  options.merge_strategy = spec.execution.merge_strategy;

  // Reader state, touched only by the one read stage of a step.
  Dataset carry(schema);
  bool exhausted = false;
  // The window buffers: overlap_io alternates between them, without it
  // only the first is used.
  Dataset buffers[2] = {Dataset(schema), Dataset()};

  // Refills `window` with the next window: carried read-ahead rows
  // first, then fill from the stream, then read k rows ahead to learn
  // whether this is the final window.
  struct WindowRead {
    Status status = Status::Ok();
    Dataset* window = nullptr;
    bool final_window = false;
    size_t resident = 0;  // window + carry + still-processing rows
  };
  auto read_window = [&carry, &exhausted, source, window_target, read_ahead,
                      report](Dataset* window, size_t processing_rows) {
    ScopedStage stage("read", &report->load_seconds);
    WindowRead read;
    read.window = window;
    window->Clear();
    auto fill = [&]() -> Status {
      for (size_t row = 0; row < carry.NumRecords(); ++row) {
        TCM_RETURN_IF_ERROR(window->Append(carry.record(row)));
      }
      carry.Clear();
      if (window->NumRecords() < window_target) {
        TCM_RETURN_IF_ERROR(
            source->ReadInto(window, window_target - window->NumRecords())
                .status());
      }
      TCM_ASSIGN_OR_RETURN(size_t ahead,
                           source->ReadInto(&carry, read_ahead));
      if (ahead < read_ahead) {
        // Stream exhausted inside the read-ahead: its rows are too few
        // to anonymize alone, so they join this (final) window.
        for (size_t row = 0; row < carry.NumRecords(); ++row) {
          TCM_RETURN_IF_ERROR(window->Append(carry.record(row)));
        }
        carry.Clear();
        exhausted = true;
      }
      return Status::Ok();
    };
    read.status = fill();
    read.final_window = exhausted;
    read.resident =
        processing_rows + window->NumRecords() + carry.NumRecords();
    return read;
  };

  // Verify, then write: header once, then each window's release rows.
  std::unique_ptr<StreamingCsvWriter> writer;
  report->k_verified = spec.verify;  // stays true until a window fails
  report->t_verified = spec.verify;
  auto verify_and_write = [&spec, &schema, &writer, pool, report](
                              const Dataset& release, size_t w) -> Status {
    if (spec.verify) {
      ScopedStage stage("verify", &report->verify_seconds);
      TCM_ASSIGN_OR_RETURN(ReleaseVerification verification,
                           CheckRelease(release, spec.algorithm.k,
                                        spec.algorithm.t, pool));
      report->k_verified = report->k_verified && verification.k_anonymous;
      report->t_verified = report->t_verified && verification.t_close;
      if (!verification.ok()) {
        return PrivacyViolationError(verification,
                                     "window " + std::to_string(w) + ": ");
      }
    }
    if (!spec.output.release_path.empty()) {
      ScopedStage stage("write", &report->write_seconds);
      if (writer == nullptr) {
        TCM_ASSIGN_OR_RETURN(writer, StreamingCsvWriter::Open(
                                         spec.output.release_path, schema));
      }
      TCM_RETURN_IF_ERROR(writer->WriteRows(release, pool));
    }
    return Status::Ok();
  };

  double weighted_sse = 0.0;
  // Window w's input, and window w-1's release awaiting verify and write.
  std::optional<WindowRead> current = read_window(&buffers[0], 0);
  std::optional<Dataset> release;
  for (size_t w = 0; current || release; ++w) {
    TraceSpan step_span("window");
    std::vector<std::function<Status()>> stages;
    if (release) {
      stages.push_back([&]() {
        Status status = verify_and_write(*release, w - 1);
        if (!streaming) report->release = std::move(*release);
        release.reset();
        return status;
      });
    }

    // Anonymize: the window's shards fan out on the pool. Only the first
    // window can be empty (a non-final window leaves k read-ahead rows
    // for the next); ShardedAnonymize rejects it.
    const size_t rows = current ? current->window->NumRecords() : 0;
    std::optional<AnonymizationResult> result;
    ShardedAnonymizeStats stats;
    double anonymize_seconds = 0.0;
    const size_t anonymize_stage = current ? stages.size() : 0;
    if (current) {
      stages.push_back([&]() -> Status {
        TCM_RETURN_IF_ERROR(current->status);
        options.params.seed = spec.algorithm.seed + kWindowSeedStride * w;
        WallTimer anonymize_timer;
        auto anonymized =
            ShardedAnonymize(*current->window, options, pool, &stats);
        if (!anonymized.ok()) {
          return Status(anonymized.status().code(),
                        "window " + std::to_string(w) + ": " +
                            anonymized.status().message());
        }
        anonymize_seconds = anonymize_timer.ElapsedSeconds();
        result = std::move(anonymized).value();
        return Status::Ok();
      });
    }

    std::optional<WindowRead> next;
    if (current && current->status.ok() && !current->final_window) {
      Dataset* buffer = current->window;
      if (overlap_io) {
        if (w == 0) {
          // The stream outlasts the first window: set up the second
          // buffer and size both once.
          buffers[1] = Dataset(schema);
          for (Dataset& each : buffers) {
            each.Reserve(window_target + read_ahead);
          }
        }
        buffer = buffer == &buffers[0] ? &buffers[1] : &buffers[0];
        ++report->overlapped_reads;
      }
      // Window w's input rows stay resident during the read unless the
      // read refills their buffer.
      const size_t processing_rows = buffer == current->window ? 0 : rows;
      stages.push_back([&, buffer, processing_rows]() {
        next = read_window(buffer, processing_rows);
        return Status::Ok();
      });
    }

    TCM_RETURN_IF_ERROR(RunStages(step_pool, anonymize_stage, stages));

    // Fold window w in; normalized SSE is a row-weighted mean, and a
    // single window's is its own value, taken as is (scaling by the row
    // count and back can move the last bit).
    if (result) {
      report->anonymize_seconds += anonymize_seconds;
      report->stats += stats;
      const size_t clusters = result->partition.NumClusters();
      report->rows += rows;
      report->clusters += clusters;
      report->min_cluster_size =
          w == 0 ? result->min_cluster_size
                 : std::min(report->min_cluster_size,
                            result->min_cluster_size);
      report->max_cluster_size =
          std::max(report->max_cluster_size, result->max_cluster_size);
      report->max_cluster_emd =
          std::max(report->max_cluster_emd, result->max_cluster_emd);
      weighted_sse += result->normalized_sse * static_cast<double>(rows);
      report->normalized_sse =
          w == 0 ? result->normalized_sse
                 : weighted_sse / static_cast<double>(report->rows);
      if (streaming) {
        report->peak_resident_rows =
            std::max(report->peak_resident_rows, current->resident);
        StreamingWindowSummary& summary = report->windows.emplace_back();
        summary.rows = rows;
        summary.clusters = clusters;
        summary.num_shards = stats.num_shards;
        summary.shard_size = spec.execution.shard_size;
        summary.threads = pool->num_threads();
        summary.final_merges = stats.final_merges;
        summary.min_cluster_size = result->min_cluster_size;
        summary.max_cluster_size = result->max_cluster_size;
        summary.max_cluster_emd = result->max_cluster_emd;
        summary.normalized_sse = result->normalized_sse;
        summary.anonymize_seconds = anonymize_seconds;
        report->num_windows = w + 1;
      } else {
        report->average_cluster_size =
            static_cast<double>(rows) / static_cast<double>(clusters);
      }
      release = std::move(result->anonymized);
    }
    current = std::move(next);
  }

  if (writer != nullptr) {
    ScopedStage stage("write", &report->write_seconds);
    TCM_RETURN_IF_ERROR(writer->Close());
  }
  return Status::Ok();
}

// A sweep reads the whole stream into one dataset, except a caller's
// dataset whose roles the spec leaves alone: that one is swept uncopied.
Status RunSweepJob(const JobSpec& spec, const JobSource& input,
                   ThreadPool* pool, RunReport* report) {
  const Dataset* data = spec.input.dataset;
  Dataset storage;
  if (spec.input.kind != InputKind::kDataset ||
      !spec.roles.quasi_identifiers.empty() ||
      !spec.roles.confidential.empty()) {
    ScopedStage stage("read", &report->load_seconds);
    storage = Dataset(input.schema);
    TCM_RETURN_IF_ERROR(
        input.source->ReadInto(&storage, std::numeric_limits<size_t>::max())
            .status());
    data = &storage;
  }
  report->rows = data->NumRecords();

  const JobSweep& sweep = *spec.sweep;
  const std::vector<std::string> algorithms =
      sweep.algorithms.empty() ? std::vector<std::string>{spec.algorithm.name}
                               : sweep.algorithms;
  const std::vector<size_t> ks =
      sweep.ks.empty() ? std::vector<size_t>{spec.algorithm.k} : sweep.ks;
  const std::vector<double> ts =
      sweep.ts.empty() ? std::vector<double>{spec.algorithm.t} : sweep.ts;

  // One enumeration of the cross product, in report order; each cell's
  // task then fills only its own outcome.
  for (const std::string& algorithm : algorithms) {
    for (size_t k : ks) {
      for (double t : ts) {
        SweepOutcome& cell = report->sweep.emplace_back();
        cell.label = algorithm + "/k=" + std::to_string(k) +
                     "/t=" + FormatDouble(t);
        cell.algorithm = algorithm;
        cell.k = k;
        cell.t = t;
      }
    }
  }

  // Wall clock of the fan-out; each cell's own time is in its outcome
  // (their sum exceeds this when cells run concurrently). A cell runs the
  // in-memory job's path, ShardedAnonymize with the spec's execution
  // settings, its shards nested on the same pool, so it reports what that
  // job reports. A failed cell records its error without affecting the
  // others.
  ScopedStage stage("anonymize", &report->anonymize_seconds);
  ParallelFor(pool, report->sweep.size(), [&](size_t i) {
    SweepOutcome& cell = report->sweep[i];
    ShardedAnonymizeOptions options;
    options.algorithm = cell.algorithm;
    options.params.k = cell.k;
    options.params.t = cell.t;
    options.params.seed = spec.algorithm.seed;
    options.shard_size = spec.execution.shard_size;
    options.merge_strategy = spec.execution.merge_strategy;
    auto result = ShardedAnonymize(*data, options, pool);
    if (!result.ok()) {
      cell.error_code = StatusCodeName(result.status().code());
      cell.error = result.status().message();
      return;
    }
    cell.clusters = result->partition.NumClusters();
    cell.min_cluster_size = result->min_cluster_size;
    cell.max_cluster_size = result->max_cluster_size;
    cell.max_cluster_emd = result->max_cluster_emd;
    cell.normalized_sse = result->normalized_sse;
    cell.elapsed_seconds = result->elapsed_seconds;
  });
  return Status::Ok();
}

// RunJob after validation, on a caller's or RunJob's own pool.
Result<RunReport> RunValidJob(const JobSpec& spec, ThreadPool* pool) {
  // Trace sink: collect spans for the duration of this job and export
  // them as Chrome trace-event JSON. The recorder is process-global, so
  // concurrent jobs (the serve daemon) share one trace when any of them
  // asks for it.
  std::optional<TraceSink> trace_sink;
  if (!spec.output.trace_path.empty()) {
    trace_sink.emplace(spec.output.trace_path);
  }

  RunReport report;
  report.mode = spec.execution.mode;
  report.swept = spec.sweep.has_value();
  report.algorithm = spec.algorithm.name;
  report.k = spec.algorithm.k;
  report.t = spec.algorithm.t;
  report.seed = spec.algorithm.seed;
  report.merge_strategy = spec.execution.merge_strategy;
  report.overlap_io = spec.execution.overlap_io;
  report.threads = pool->num_threads();
  report.input_format = spec.input.kind == InputKind::kCsvPath
                            ? InputFormatName(spec.input.format)
                            : InputKindName(spec.input.kind);
  report.verify_requested = spec.verify && !report.swept;
  if (!report.swept) report.release_path = spec.output.release_path;

  {
    ScopedStage job_stage("job", &report.total_seconds);
    JobSource input;
    {
      ScopedStage stage("load", &report.load_seconds);
      TCM_RETURN_IF_ERROR(OpenSource(spec, &input));
    }
    if (report.swept) {
      TCM_RETURN_IF_ERROR(RunSweepJob(spec, input, pool, &report));
    } else {
      TCM_RETURN_IF_ERROR(RunWindows(spec, input, pool, &report));
    }
    // Zero-copy accounting, read once the job has consumed its input: a
    // .tcmb source counts the bytes its mapping served and the row bytes
    // it materialized; a CSV input copies its whole file.
    if (input.columnar != nullptr) {
      report.input_mapped_bytes = input.columnar->mapped_bytes();
      report.input_copied_bytes = input.columnar->copied_bytes();
    } else if (spec.input.kind == InputKind::kCsvPath) {
      report.input_copied_bytes = CsvFileBytes(spec.input.path);
    }
  }

  if (!spec.output.report_path.empty()) {
    TCM_RETURN_IF_ERROR(
        WriteJsonFile(report.ToJson(), spec.output.report_path));
  }
  if (trace_sink.has_value()) {
    TCM_RETURN_IF_ERROR(trace_sink->Finish());
  }
  return report;
}

}  // namespace

Result<RunReport> RunJob(const JobSpec& spec, ThreadPool* pool) {
  TCM_RETURN_IF_ERROR(spec.Validate());
  if (pool != nullptr) return RunValidJob(spec, pool);
  // A caller without a pool gets one of execution.threads workers, for
  // this job alone.
  ThreadPool own_pool(spec.execution.threads);
  return RunValidJob(spec, &own_pool);
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
