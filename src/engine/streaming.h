#ifndef TCM_ENGINE_STREAMING_H_
#define TCM_ENGINE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/record_source.h"
#include "engine/sharded.h"
#include "engine/thread_pool.h"
#include "tclose/merge.h"

namespace tcm {

// The anonymization pipeline, the one runner behind every non-sweep job:
// consume a RecordSource window by window under a max_resident_rows
// budget, run every window through the shard/thread-pool machinery
// (ShardedAnonymize), then verify -> metrics -> write. Datasets that never
// fit in memory stream through in bounded space; each released window
// independently satisfies k-anonymity and t-closeness (so their
// concatenation is k-anonymous, and t-close per window against the
// window distribution). An in-memory job is the special case of one
// window over a DatasetSource (see api/runner.cc).
//
// Memory model. The runner holds at most one window plus a k-row
// read-ahead at a time:
//   - a window is filled to max_resident_rows - k input rows;
//   - k more rows are read ahead to decide whether the stream continues;
//     if the stream ends inside the read-ahead, its rows (fewer than k,
//     too few to anonymize alone) join the current window.
// Resident input rows therefore never exceed max_resident_rows. (The
// anonymized copy of the current window roughly doubles the footprint
// while a window is in flight; the bound governs input rows.)
//
// Determinism. Window w derives its seed from spec.seed and w (window 0
// uses spec.seed itself), and ShardedAnonymize is byte-identical for any
// thread count — so streamed releases are too. When the whole stream
// fits in one window (max_resident_rows >= rows + k), the release bytes
// equal a single ShardedAnonymize call over the whole input with
// spec.seed, which is what an in-memory job releases; the tests pin it.
struct StreamingSpec {
  // Anonymize stage.
  std::string algorithm = "tclose_first";  // registry name
  size_t k = 5;
  double t = 0.1;
  uint64_t seed = 1;

  // Rows per shard within a window; 0 disables sharding.
  size_t shard_size = 4096;

  // Resident input-row budget; must be at least k + max(k, 2)
  // (doubled when overlap_io halves the window).
  size_t max_resident_rows = 100000;

  // Engine for each window's global repair pass (see
  // ShardedAnonymizeOptions::merge_strategy).
  MergeStrategy merge_strategy = MergeStrategy::kSequential;

  // Overlap window N+1's read/parse with window N's
  // anonymize/verify/write: while the current window runs on this
  // thread, one prefetch task fills the next window on the pool. The
  // window target is halved so current window + prefetch + read-ahead
  // still fit the max_resident_rows budget — so releases differ from the
  // non-overlapped run of the same spec (different window boundaries),
  // but stay deterministic for any thread count.
  bool overlap_io = false;

  // Re-check k-anonymity and t-closeness of every released window with
  // the independent privacy evaluators; a failure is an error.
  bool verify = true;

  // Release CSV path (header once, then every window's rows); empty
  // skips the write stage.
  std::string output_path;
};

// Per-window measurements, in window order.
struct StreamingWindowSummary {
  size_t rows = 0;
  size_t clusters = 0;
  size_t num_shards = 1;
  // The shard plan the window actually ran with (report-only — recorded
  // so operators can see the fan-out per window; no adaptivity yet).
  size_t shard_size = 0;
  size_t threads = 1;
  size_t final_merges = 0;
  size_t min_cluster_size = 0;
  size_t max_cluster_size = 0;
  double max_cluster_emd = 0.0;
  double normalized_sse = 0.0;
  double anonymize_seconds = 0.0;
};

struct StreamingReport {
  size_t total_rows = 0;
  size_t num_windows = 0;
  // Largest number of input rows resident at once (window + read-ahead).
  size_t peak_resident_rows = 0;
  size_t threads = 1;
  bool k_verified = false;   // all windows; stays false when verify is off
  bool t_verified = false;
  size_t min_cluster_size = 0;
  size_t max_cluster_size = 0;
  double max_cluster_emd = 0.0;  // max over windows
  // Row-weighted mean over windows (a single window's own value).
  double normalized_sse = 0.0;
  double read_seconds = 0.0;
  double anonymize_seconds = 0.0;  // every ShardedAnonymize call's wall
  double verify_seconds = 0.0;
  double write_seconds = 0.0;
  // Wall-clock of the whole Run call (stage gaps included).
  double total_seconds = 0.0;
  // Every window's ShardedAnonymizeStats folded with operator+=: shard
  // and final-merge totals, the anonymize-stage breakdown and the merge
  // ledger, summed across windows.
  ShardedAnonymizeStats stats{.num_shards = 0};
  // Window reads that ran overlapped with the previous window's
  // processing (overlap_io only).
  size_t overlapped_reads = 0;
  std::vector<StreamingWindowSummary> windows;
};

// Executes streaming specs on an owned thread pool (0 = one thread per
// hardware thread).
class StreamingPipelineRunner {
 public:
  // Called with every released window (after verification and the CSV
  // write) in stream order: a custom sink for tests, programmatic
  // callers or non-CSV destinations. The sink owns the release it is
  // handed, so it can keep it without a copy.
  using WindowSink = std::function<Status(
      Dataset release, const StreamingWindowSummary& summary)>;

  explicit StreamingPipelineRunner(size_t threads = 1) : pool_(threads) {}

  size_t threads() const { return pool_.num_threads(); }
  ThreadPool* pool() { return &pool_; }

  // Drains `source` and anonymizes it window by window. The source's
  // schema must already carry quasi-identifier/confidential roles.
  Result<StreamingReport> Run(RecordSource* source, const StreamingSpec& spec,
                              const WindowSink& sink = nullptr);

 private:
  ThreadPool pool_;
};

}  // namespace tcm

#endif  // TCM_ENGINE_STREAMING_H_
