#include "engine/streaming.h"

#include <algorithm>
#include <future>
#include <memory>
#include <utility>

#include "common/timer.h"
#include "data/csv_stream.h"
#include "engine/pipeline.h"
#include "engine/registry.h"
#include "engine/sharded.h"
#include "obs/trace.h"

namespace tcm {
namespace {

// Seed stride between windows; deliberately different from the per-shard
// stride inside ShardedAnonymize. Window 0 adds nothing, so a run whose
// stream fits in one window uses spec.seed exactly — which keeps an
// in-memory job's release equal to one ShardedAnonymize call.
constexpr uint64_t kWindowSeedStride = 0xC2B2AE3D27D4EB4FULL;

}  // namespace

Result<StreamingReport> StreamingPipelineRunner::Run(
    RecordSource* source, const StreamingSpec& spec, const WindowSink& sink) {
  if (source == nullptr) {
    return Status::InvalidArgument("source must not be null");
  }
  // Fail on a bad algorithm name before consuming the (single-pass)
  // stream.
  if (!AlgorithmRegistry::BuiltIns().Contains(spec.algorithm)) {
    return AlgorithmRegistry::BuiltIns().Find(spec.algorithm).status();
  }
  const size_t read_ahead = spec.k;
  const size_t min_window = std::max<size_t>(spec.k, 2);
  // With overlap_io two windows are resident at once (the one being
  // processed and the one being prefetched), so each gets half the
  // budget left after the read-ahead.
  const size_t budget_floor =
      read_ahead + (spec.overlap_io ? 2 * min_window : min_window);
  if (spec.max_resident_rows < budget_floor) {
    return Status::InvalidArgument(
        "max_resident_rows (" + std::to_string(spec.max_resident_rows) +
        ") too small: need at least k + " +
        (spec.overlap_io ? std::string("2 * ") : std::string("")) +
        "max(k, 2) = " + std::to_string(budget_floor) + " rows for k = " +
        std::to_string(spec.k));
  }
  const Schema& schema = source->schema();
  if (schema.QuasiIdentifierIndices().empty()) {
    return Status::InvalidArgument("source schema has no quasi-identifiers");
  }
  if (schema.ConfidentialIndices().empty()) {
    return Status::InvalidArgument(
        "source schema has no confidential attribute");
  }

  const size_t window_target =
      spec.overlap_io ? (spec.max_resident_rows - read_ahead) / 2
                      : spec.max_resident_rows - read_ahead;
  StreamingReport report;
  report.threads = pool_.num_threads();
  report.k_verified = spec.verify;  // stays true until a window fails
  report.t_verified = spec.verify;

  ShardedAnonymizeOptions options;
  options.algorithm = spec.algorithm;
  options.params.k = spec.k;
  options.params.t = spec.t;
  options.shard_size = spec.shard_size;
  options.merge_strategy = spec.merge_strategy;

  std::unique_ptr<StreamingCsvWriter> writer;
  // Reader state. Exactly one read_window call runs at a time — inline
  // in the sequential executor, or as the single outstanding prefetch
  // task in the overlapped one — so carry/exhausted need no lock: the
  // future's get() orders each prefetch before the next use.
  Dataset carry(schema);
  bool exhausted = false;

  // Assembles the next window: carried read-ahead rows first, then fill
  // from the stream, then read k rows ahead to learn whether this is the
  // final window.
  struct WindowRead {
    Status status = Status::Ok();
    Dataset window;
    bool final_window = false;
    size_t resident = 0;  // window + carry + still-processing rows
    double seconds = 0.0;
  };
  auto read_window = [&schema, &carry, &exhausted, source, window_target,
                      read_ahead](size_t processing_rows) {
    TraceSpan span("read");
    WallTimer read_timer;
    WindowRead read;
    read.window = Dataset(schema);
    auto fill = [&]() -> Status {
      for (size_t row = 0; row < carry.NumRecords(); ++row) {
        TCM_RETURN_IF_ERROR(read.window.Append(carry.record(row)));
      }
      carry = Dataset(schema);
      if (read.window.NumRecords() < window_target) {
        TCM_RETURN_IF_ERROR(
            source
                ->ReadInto(&read.window,
                           window_target - read.window.NumRecords())
                .status());
      }
      TCM_ASSIGN_OR_RETURN(size_t ahead,
                           source->ReadInto(&carry, read_ahead));
      if (ahead < read_ahead) {
        // Stream exhausted inside the read-ahead: its rows are too few
        // to anonymize alone, so they join this (final) window.
        for (size_t row = 0; row < carry.NumRecords(); ++row) {
          TCM_RETURN_IF_ERROR(read.window.Append(carry.record(row)));
        }
        carry = Dataset(schema);
        exhausted = true;
      }
      return Status::Ok();
    };
    read.status = fill();
    read.final_window = exhausted;
    read.resident = processing_rows + read.window.NumRecords() +
                    carry.NumRecords();
    read.seconds = read_timer.ElapsedSeconds();
    return read;
  };

  // The prefetch task runs read_window, which references this frame's
  // reader state, so it must finish before Run returns — on the error
  // returns inside the loop too, not only when its future is collected.
  std::future<WindowRead> prefetch;
  class PrefetchWait {
   public:
    explicit PrefetchWait(std::future<WindowRead>* future) : future_(future) {}
    PrefetchWait(const PrefetchWait&) = delete;
    PrefetchWait& operator=(const PrefetchWait&) = delete;
    ~PrefetchWait() {
      if (future_->valid()) future_->wait();
    }

   private:
    std::future<WindowRead>* future_;
  } prefetch_wait(&prefetch);

  WallTimer total;
  WallTimer timer;
  WindowRead current = read_window(0);
  double weighted_sse = 0.0;
  for (;;) {
    TCM_RETURN_IF_ERROR(current.status);
    report.read_seconds += current.seconds;
    report.peak_resident_rows =
        std::max(report.peak_resident_rows, current.resident);
    if (current.window.empty()) break;
    TraceSpan window_span("window");
    Dataset window = std::move(current.window);

    // Overlap: kick off the next window's read/parse before this
    // window's anonymize/verify/write. The prefetch task exclusively
    // owns the reader state until its future is collected below.
    const bool overlapped = spec.overlap_io && !current.final_window;
    const bool was_final = current.final_window;
    if (overlapped) {
      const size_t processing_rows = window.NumRecords();
      prefetch = pool_.Submit([&read_window, processing_rows]() {
        return read_window(processing_rows);
      });
      ++report.overlapped_reads;
    }

    // Anonymize: the window's shards fan out on the pool.
    const size_t w = report.num_windows;
    ShardedAnonymizeOptions window_options = options;
    window_options.params.seed = spec.seed + kWindowSeedStride * w;
    ShardedAnonymizeStats stats;
    timer.Restart();
    auto result = ShardedAnonymize(window, window_options, &pool_, &stats);
    if (!result.ok()) {
      return Status(result.status().code(),
                    "window " + std::to_string(w) + ": " +
                        result.status().message());
    }
    double anonymize_seconds = timer.ElapsedSeconds();
    report.anonymize_seconds += anonymize_seconds;
    report.stats += stats;

    StreamingWindowSummary summary;
    summary.rows = window.NumRecords();
    summary.clusters = result->partition.NumClusters();
    summary.num_shards = stats.num_shards;
    summary.shard_size = spec.shard_size;
    summary.threads = pool_.num_threads();
    summary.final_merges = stats.final_merges;
    summary.min_cluster_size = result->min_cluster_size;
    summary.max_cluster_size = result->max_cluster_size;
    summary.max_cluster_emd = result->max_cluster_emd;
    summary.normalized_sse = result->normalized_sse;
    summary.anonymize_seconds = anonymize_seconds;

    // Verify: independent re-check of both guarantees per window.
    if (spec.verify) {
      TraceSpan span("verify");
      timer.Restart();
      TCM_ASSIGN_OR_RETURN(
          ReleaseVerification verification,
          CheckRelease(result->anonymized, spec.k, spec.t, &pool_));
      report.verify_seconds += timer.ElapsedSeconds();
      report.k_verified = report.k_verified && verification.k_anonymous;
      report.t_verified = report.t_verified && verification.t_close;
      if (!verification.ok()) {
        return PrivacyViolationError(verification,
                                     "window " + std::to_string(w) + ": ");
      }
    }

    // Write: header once, then each window's release rows.
    if (!spec.output_path.empty()) {
      TraceSpan span("write");
      timer.Restart();
      if (writer == nullptr) {
        TCM_ASSIGN_OR_RETURN(
            writer, StreamingCsvWriter::Open(spec.output_path, schema));
      }
      TCM_RETURN_IF_ERROR(writer->WriteRows(result->anonymized, &pool_));
      report.write_seconds += timer.ElapsedSeconds();
    }
    if (sink) {
      TCM_RETURN_IF_ERROR(sink(std::move(result->anonymized), summary));
    }

    // Aggregate metrics (normalized SSE as a row-weighted mean).
    report.total_rows += summary.rows;
    report.min_cluster_size =
        report.num_windows == 0
            ? summary.min_cluster_size
            : std::min(report.min_cluster_size, summary.min_cluster_size);
    report.max_cluster_size =
        std::max(report.max_cluster_size, summary.max_cluster_size);
    report.max_cluster_emd =
        std::max(report.max_cluster_emd, summary.max_cluster_emd);
    weighted_sse += summary.normalized_sse * static_cast<double>(summary.rows);
    report.windows.push_back(summary);
    ++report.num_windows;

    if (overlapped) {
      current = prefetch.get();
    } else if (!was_final) {
      current = read_window(0);
    } else {
      break;
    }
  }

  if (report.num_windows == 0) {
    return Status::InvalidArgument("stream produced no records");
  }
  // A single window's mean is its own value, taken as is: scaling by the
  // row count and back can move the last bit.
  report.normalized_sse =
      report.num_windows == 1
          ? report.windows.front().normalized_sse
          : weighted_sse / static_cast<double>(report.total_rows);
  if (writer != nullptr) {
    timer.Restart();
    TCM_RETURN_IF_ERROR(writer->Close());
    report.write_seconds += timer.ElapsedSeconds();
  }
  report.total_seconds = total.ElapsedSeconds();
  return report;
}

}  // namespace tcm
