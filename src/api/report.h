#ifndef TCM_API_REPORT_H_
#define TCM_API_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/job.h"
#include "common/json.h"
#include "common/status.h"
#include "data/dataset.h"
#include "engine/sharded.h"
#include "tclose/merge.h"

namespace tcm {

// Outcome of one sweep cell. error_code/error are empty on success; on
// failure error_code is the StatusCodeName of the cell's status and the
// measurement fields stay zero.
struct SweepOutcome {
  std::string label;      // "algorithm/k=K/t=T"
  std::string algorithm;
  size_t k = 0;
  double t = 0.0;
  std::string error_code;
  std::string error;
  size_t clusters = 0;
  size_t min_cluster_size = 0;
  size_t max_cluster_size = 0;
  double max_cluster_emd = 0.0;
  double normalized_sse = 0.0;
  double elapsed_seconds = 0.0;
};

// Per-window measurements of a streamed job, in window order.
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

// RunReport: the one machine-readable account of a job. Every execution
// mode fills the shared core (rows, cluster stats, verification,
// timings); streaming runs add per-window summaries, sweeps add per-cell
// outcomes.
// ToJson() serializes everything except the in-memory release dataset;
// all wall-clock fields end in "_seconds" so tooling (and the golden
// report pin) can normalize timings with one pattern.
struct RunReport {
  static constexpr int kVersion = 1;

  int version = kVersion;
  ExecutionMode mode = ExecutionMode::kInMemory;
  bool swept = false;  // true when the job ran a sweep fan-out

  // The algorithm section the job ran with (sweeps: the base section).
  std::string algorithm;
  size_t k = 0;
  double t = 0.0;
  uint64_t seed = 0;

  // Input provenance: "csv" / "tcmb" for file inputs, the input kind
  // name otherwise, plus the zero-copy accounting — bytes served straight
  // from the memory mapping vs bytes copied into row storage while
  // loading. CSV inputs map nothing and copy the whole file.
  std::string input_format;
  size_t input_mapped_bytes = 0;
  size_t input_copied_bytes = 0;

  // Shared measurements.
  size_t rows = 0;
  size_t clusters = 0;  // streaming: summed over windows; sweeps: 0
  size_t min_cluster_size = 0;
  size_t max_cluster_size = 0;
  double average_cluster_size = 0.0;  // in-memory runs only
  double max_cluster_emd = 0.0;
  double normalized_sse = 0.0;

  // Execution shape. `threads` is the width of the pool the job ran on:
  // tcm_serve's, for a served job, not the spec's execution.threads.
  size_t threads = 1;
  size_t num_windows = 0;        // streaming only
  size_t peak_resident_rows = 0; // streaming only
  MergeStrategy merge_strategy = MergeStrategy::kSequential;
  bool overlap_io = false;        // streaming only
  size_t overlapped_reads = 0;    // streaming only
  // The engine's ledger, every window's ShardedAnonymizeStats folded
  // with operator+=: shard and final-merge totals, the global repair
  // pass's subtree fan-out and bound-pruning counters (candidate_checks
  // == pruned_checks + exact_checks), and the anonymize stage's shard /
  // shard_anonymize / merge / metrics seconds (serialized as the
  // "stage_seconds" object). Sweeps leave it zero.
  ShardedAnonymizeStats stats{.num_shards = 0};

  // Verification verdicts (stay false when verify was off).
  bool verify_requested = false;
  bool k_verified = false;
  bool t_verified = false;

  // Per-stage wall clock. load_seconds covers opening the input (a .tcmb
  // open checksums the file) and every read of its record stream, in
  // either mode and for sweeps. With overlap_io, reads, verifies and
  // writes run while windows anonymize, so the stage sums can exceed
  // total_seconds.
  double load_seconds = 0.0;
  double anonymize_seconds = 0.0;
  double verify_seconds = 0.0;
  double write_seconds = 0.0;
  double total_seconds = 0.0;

  std::string release_path;  // empty when no release CSV was written

  std::vector<StreamingWindowSummary> windows;  // streaming only
  std::vector<SweepOutcome> sweep;              // sweeps only

  // In-memory (non-sweep) runs keep the release here so programmatic
  // callers can audit or post-process it; never serialized.
  std::optional<Dataset> release;

  JsonValue ToJson() const;
  std::string ToJsonText(int indent = 2) const;
};

}  // namespace tcm

#endif  // TCM_API_REPORT_H_
