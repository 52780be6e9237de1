#include "api/report.h"

#include <utility>

namespace tcm {

JsonValue RunReport::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("version", version);
  json.Set("mode", swept ? "sweep" : ExecutionModeName(mode));

  JsonValue algorithm_json = JsonValue::MakeObject();
  algorithm_json.Set("name", algorithm);
  algorithm_json.Set("k", k);
  algorithm_json.Set("t", t);
  algorithm_json.Set("seed", static_cast<double>(seed));
  json.Set("algorithm", std::move(algorithm_json));

  if (!input_format.empty()) {
    JsonValue input_json = JsonValue::MakeObject();
    input_json.Set("format", input_format);
    input_json.Set("mapped_bytes", input_mapped_bytes);
    input_json.Set("copied_bytes", input_copied_bytes);
    json.Set("input", std::move(input_json));
  }

  json.Set("rows", rows);
  if (!swept) {
    json.Set("clusters", clusters);
    JsonValue sizes = JsonValue::MakeObject();
    sizes.Set("min", min_cluster_size);
    sizes.Set("max", max_cluster_size);
    if (mode == ExecutionMode::kInMemory) {
      sizes.Set("average", average_cluster_size);
    }
    json.Set("cluster_size", std::move(sizes));
    json.Set("max_cluster_emd", max_cluster_emd);
    json.Set("normalized_sse", normalized_sse);
  }

  JsonValue execution_json = JsonValue::MakeObject();
  execution_json.Set("threads", threads);
  execution_json.Set("shards", stats.num_shards);
  execution_json.Set("final_merges", stats.final_merges);
  if (!swept) {
    execution_json.Set("merge_strategy", MergeStrategyName(merge_strategy));
    JsonValue merge_json = JsonValue::MakeObject();
    merge_json.Set("subtrees", stats.merge_subtrees);
    merge_json.Set("subtree_merges", stats.subtree_merges);
    merge_json.Set("tail_merges", stats.tail_merges);
    merge_json.Set("candidate_checks", stats.candidate_checks);
    merge_json.Set("pruned_checks", stats.pruned_checks);
    merge_json.Set("exact_checks", stats.exact_checks);
    execution_json.Set("merge", std::move(merge_json));
  }
  if (mode == ExecutionMode::kStreaming) {
    execution_json.Set("windows", num_windows);
    execution_json.Set("peak_resident_rows", peak_resident_rows);
    execution_json.Set("overlap_io", overlap_io);
    execution_json.Set("overlapped_reads", overlapped_reads);
  }
  json.Set("execution", std::move(execution_json));

  JsonValue verification = JsonValue::MakeObject();
  verification.Set("requested", verify_requested);
  verification.Set("k_anonymous", k_verified);
  verification.Set("t_close", t_verified);
  json.Set("verification", std::move(verification));

  JsonValue timings = JsonValue::MakeObject();
  timings.Set("load_seconds", load_seconds);
  timings.Set("anonymize_seconds", anonymize_seconds);
  timings.Set("verify_seconds", verify_seconds);
  timings.Set("write_seconds", write_seconds);
  timings.Set("total_seconds", total_seconds);
  json.Set("timings", std::move(timings));

  if (!swept) {
    JsonValue stages = JsonValue::MakeObject();
    stages.Set("shard_seconds", stats.shard_seconds);
    stages.Set("shard_anonymize_seconds", stats.anonymize_seconds);
    stages.Set("merge_seconds", stats.merge_seconds);
    stages.Set("metrics_seconds", stats.measure_seconds);
    json.Set("stage_seconds", std::move(stages));
  }

  if (!release_path.empty()) {
    JsonValue output_json = JsonValue::MakeObject();
    output_json.Set("release_path", release_path);
    json.Set("output", std::move(output_json));
  }

  if (mode == ExecutionMode::kStreaming) {
    JsonValue windows_json = JsonValue::MakeArray();
    for (const StreamingWindowSummary& window : windows) {
      JsonValue w = JsonValue::MakeObject();
      w.Set("rows", window.rows);
      w.Set("clusters", window.clusters);
      w.Set("shards", window.num_shards);
      w.Set("shard_size", window.shard_size);
      w.Set("threads", window.threads);
      w.Set("final_merges", window.final_merges);
      w.Set("min_cluster_size", window.min_cluster_size);
      w.Set("max_cluster_size", window.max_cluster_size);
      w.Set("max_cluster_emd", window.max_cluster_emd);
      w.Set("normalized_sse", window.normalized_sse);
      w.Set("anonymize_seconds", window.anonymize_seconds);
      windows_json.Append(std::move(w));
    }
    json.Set("windows", std::move(windows_json));
  }

  if (swept) {
    JsonValue sweep_json = JsonValue::MakeArray();
    for (const SweepOutcome& outcome : sweep) {
      JsonValue cell = JsonValue::MakeObject();
      cell.Set("label", outcome.label);
      cell.Set("algorithm", outcome.algorithm);
      cell.Set("k", outcome.k);
      cell.Set("t", outcome.t);
      if (!outcome.error_code.empty()) {
        cell.Set("error_code", outcome.error_code);
        cell.Set("error", outcome.error);
      } else {
        cell.Set("clusters", outcome.clusters);
        cell.Set("min_cluster_size", outcome.min_cluster_size);
        cell.Set("max_cluster_size", outcome.max_cluster_size);
        cell.Set("max_cluster_emd", outcome.max_cluster_emd);
        cell.Set("normalized_sse", outcome.normalized_sse);
        cell.Set("elapsed_seconds", outcome.elapsed_seconds);
      }
      sweep_json.Append(std::move(cell));
    }
    json.Set("sweep", std::move(sweep_json));
  }
  return json;
}

std::string RunReport::ToJsonText(int indent) const {
  return ToJson().Write(indent);
}

}  // namespace tcm
