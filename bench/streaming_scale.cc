// Out-of-core streaming throughput: drive a generated million-row
// record stream through a streamed RunJob and measure rows/sec,
// window count and the peak resident rows against the
// --max-resident-rows budget. Seeds the BENCH_streaming.json perf
// trajectory: one JSON object per run, printed as a line on stdout and
// collected into a JSON array file.
//
// Rows come in three roles. The BASELINE row runs the measured algorithm
// (merge_projection) the serialized way: sequential repair, serial reads,
// one thread. The MEASURED rows run the same algorithm pipelined —
// hierarchical repair with EMD-bound pruning, overlapped reads — at
// 1/2/4/8 threads, so their "speedup" (baseline_seconds / row_seconds)
// prices the pipeline alone, not an algorithm swap. The REFERENCE row is
// merge_chunked run like the baseline: a slower, finer-grained algorithm
// kept for context, with its SSE ratio to the baseline next to it.
// Every row carries "sse_ratio" = row SSE / baseline SSE.
//
// After the synthetic rows, the identical stream is materialized once
// (untimed), written as CSV, converted to .tcmb, and both files are
// streamed back through the measured configuration: the "csv" and
// "tcmb" input rows isolate input-format cost (text parsing and row
// copies versus zero-copy mapped columns). File rows do not move the
// TCM_REQUIRE_SPEEDUP gate, which pins the synthetic trajectory, but
// they are measured rows for the SSE gate.
//
// Exit status is nonzero when any run fails, breaches the resident
// budget or fails verification, when a measured row's SSE exceeds the
// baseline's (a speedup bought with a worse release is not one), or
// when TCM_REQUIRE_SPEEDUP is set and missed.
//
// Environment knobs (see bench_util.h):
//   TCM_N         — streamed record count      (default 1000000)
//   TCM_RESIDENT  — resident-row budget        (default 100000)
//   TCM_SHARD     — rows per shard             (default 4096)
//   TCM_ALGO      — baseline + measured algorithm (default merge_projection)
//   TCM_REF_ALGO  — reference algorithm        (default merge_chunked)
//   TCM_BENCH_OUT — output JSON path           (default BENCH_streaming.json)
//   TCM_TRACE_OUT — Chrome trace-event JSON of the runs' spans (default off)
//   TCM_FAST      — nonzero: 60k rows / 20k budget for smoke runs
//   TCM_REQUIRE_SPEEDUP — fail (exit 1) unless the highest-thread
//                   measured synthetic row reaches this speedup over the
//                   same-algorithm baseline

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "api/runner.h"
#include "bench/bench_util.h"
#include "colstore/convert.h"
#include "common/timer.h"
#include "data/csv.h"
#include "data/record_source.h"
#include "obs/trace.h"
#include "tclose/merge.h"

namespace {

enum class Role { kBaseline, kReference, kMeasured };

const char* RoleName(Role role) {
  switch (role) {
    case Role::kBaseline:
      return "baseline";
    case Role::kReference:
      return "reference";
    case Role::kMeasured:
      return "measured";
  }
  return "?";
}

struct RunConfig {
  std::string algorithm;
  tcm::MergeStrategy merge_strategy = tcm::MergeStrategy::kSequential;
  bool overlap_io = false;
  size_t threads = 1;
  Role role = Role::kMeasured;
};

// The streamed job every row runs; the caller sets its input.
tcm::JobSpec StreamSpec(const RunConfig& config, size_t resident,
                        size_t shard_size) {
  tcm::JobSpec spec;
  spec.algorithm.name = config.algorithm;
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.2;
  spec.algorithm.seed = 2016;
  spec.execution.mode = tcm::ExecutionMode::kStreaming;
  spec.execution.threads = config.threads;
  spec.execution.shard_size = shard_size;
  spec.execution.max_resident_rows = resident;
  spec.execution.merge_strategy = config.merge_strategy;
  spec.execution.overlap_io = config.overlap_io;
  spec.verify = true;
  return spec;
}

// One BENCH_streaming.json row. `input` names the record source
// (synthetic | csv | tcmb); mapped/copied bytes are the report's input
// accounting (zero for synthetic rows). "stages" holds the report's
// per-stage seconds; with overlap_io, verify and write overlap the next
// window's anonymize, so they can sum past "seconds".
std::string FormatRow(const RunConfig& config, const char* input, size_t n,
                      size_t resident, size_t shard_size,
                      const tcm::RunReport& report, double seconds,
                      double speedup, double sse_ratio) {
  const bool bounded = report.peak_resident_rows <= resident;
  const bool verified = report.k_verified && report.t_verified;
  char line[1024];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"streaming_scale\",\"input\":\"%s\",\"algorithm\":\"%s\","
      "\"merge_strategy\":\"%s\",\"overlap_io\":%s,\"role\":\"%s\","
      "\"n\":%zu,\"max_resident_rows\":%zu,\"peak_resident_rows\":%zu,"
      "\"bounded\":%s,\"windows\":%zu,\"shard_size\":%zu,\"threads\":%zu,"
      "\"seconds\":%.3f,\"rows_per_sec\":%.0f,\"speedup\":%.2f,"
      "\"verified\":%s,\"final_merges\":%zu,\"pruned_checks\":%zu,"
      "\"input_mapped_bytes\":%zu,\"input_copied_bytes\":%zu,"
      "\"sse\":%.6f,\"sse_ratio\":%.3f,\"max_emd\":%.4f,"
      "\"stages\":{\"load\":%.3f,\"anonymize\":%.3f,\"verify\":%.3f,"
      "\"write\":%.3f}}",
      input, config.algorithm.c_str(),
      tcm::MergeStrategyName(config.merge_strategy),
      config.overlap_io ? "true" : "false", RoleName(config.role), n,
      resident, report.peak_resident_rows, bounded ? "true" : "false",
      report.num_windows, shard_size, config.threads, seconds,
      static_cast<double>(n) / seconds, speedup,
      verified ? "true" : "false", report.stats.final_merges,
      report.stats.pruned_checks, report.input_mapped_bytes,
      report.input_copied_bytes,
      report.normalized_sse, sse_ratio, report.max_cluster_emd,
      report.load_seconds, report.anonymize_seconds,
      report.verify_seconds, report.write_seconds);
  return line;
}

}  // namespace

int main() {
  const bool fast = tcm_bench::FastMode();
  const size_t n = tcm_bench::EnvSize("TCM_N", fast ? 60000 : 1000000);
  const size_t resident =
      tcm_bench::EnvSize("TCM_RESIDENT", fast ? 20000 : 100000);
  const size_t shard_size = tcm_bench::EnvSize("TCM_SHARD", 4096);
  const char* algo_env = std::getenv("TCM_ALGO");
  const std::string algorithm = (algo_env != nullptr && *algo_env != '\0')
                                    ? algo_env
                                    : "merge_projection";
  const char* ref_env = std::getenv("TCM_REF_ALGO");
  const std::string reference_algorithm =
      (ref_env != nullptr && *ref_env != '\0') ? ref_env : "merge_chunked";
  const char* out_env = std::getenv("TCM_BENCH_OUT");
  const std::string out_path =
      (out_env != nullptr && *out_env != '\0') ? out_env
                                               : "BENCH_streaming.json";
  const char* require_env = std::getenv("TCM_REQUIRE_SPEEDUP");
  const double required_speedup =
      (require_env != nullptr && *require_env != '\0')
          ? std::strtod(require_env, nullptr)
          : 0.0;

  tcm_bench::PrintHeader(
      "streaming_scale: out-of-core " + algorithm +
      " (hierarchical+overlap) vs itself sequential; reference " +
      reference_algorithm + ", n=" + std::to_string(n) +
      ", resident budget=" + std::to_string(resident));

  // With TCM_TRACE_OUT, every run's stage and window spans land in one
  // Chrome trace file (the CI bench-smoke job uploads it as an artifact).
  std::optional<tcm::TraceSink> trace_sink;
  const char* trace_env = std::getenv("TCM_TRACE_OUT");
  if (trace_env != nullptr && *trace_env != '\0') {
    trace_sink.emplace(trace_env);
  }

  // The baseline runs first: every later row is priced against it.
  std::vector<RunConfig> configs;
  configs.push_back({algorithm, tcm::MergeStrategy::kSequential,
                     /*overlap_io=*/false, /*threads=*/1, Role::kBaseline});
  configs.push_back({reference_algorithm, tcm::MergeStrategy::kSequential,
                     /*overlap_io=*/false, /*threads=*/1, Role::kReference});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    configs.push_back({algorithm, tcm::MergeStrategy::kHierarchical,
                       /*overlap_io=*/true, threads, Role::kMeasured});
  }

  std::vector<std::string> json_lines;
  double baseline_seconds = 0.0;
  double baseline_sse = 0.0;
  double last_speedup = 0.0;
  size_t last_threads = 0;
  // Measured rows whose release is worse than the baseline's.
  std::vector<std::string> sse_regressions;
  auto check_sse = [&](const RunConfig& config, const char* input,
                       double sse) {
    if (config.role == Role::kMeasured && sse > baseline_sse) {
      sse_regressions.push_back(std::string(input) + " at " +
                                std::to_string(config.threads) + " threads");
    }
  };
  for (const RunConfig& config : configs) {
    // A source is single-pass: regenerate the identical stream per run.
    auto source = tcm::MakeUniformSource(n, 3, 2016);
    tcm::WallTimer timer;
    auto report =
        tcm::RunJob(source.get(), StreamSpec(config, resident, shard_size));
    double seconds = timer.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "%s threads=%zu failed: %s\n",
                   config.algorithm.c_str(), config.threads,
                   report.status().ToString().c_str());
      return 1;
    }
    if (config.role == Role::kBaseline) {
      baseline_seconds = seconds;
      baseline_sse = report->normalized_sse;
    }
    bool bounded = report->peak_resident_rows <= resident;
    bool verified = report->k_verified && report->t_verified;
    double speedup = baseline_seconds / seconds;
    if (config.role == Role::kMeasured) {
      last_speedup = speedup;
      last_threads = config.threads;
    }
    check_sse(config, "synthetic", report->normalized_sse);

    const std::string line = FormatRow(
        config, "synthetic", n, resident, shard_size, *report, seconds,
        speedup, report->normalized_sse / baseline_sse);
    std::printf("%s\n", line.c_str());
    json_lines.push_back(line);
    if (!bounded || !verified) return 1;
  }

  // ------------------------------------------------- file-backed inputs
  // Materialize the identical stream once (untimed), persist it in both
  // formats, and stream each file through the measured pipeline. The
  // timer covers open + run, so the rows price the whole input path:
  // text parsing for CSV, mmap + column materialization for .tcmb. These
  // rows report speedup over the same baseline but are excluded from the
  // TCM_REQUIRE_SPEEDUP gate (they measure input format, not the merge
  // pipeline); the SSE gate covers them.
  {
    auto generator = tcm::MakeUniformSource(n, 3, 2016);
    tcm::Dataset materialized(generator->schema());
    auto appended = generator->ReadInto(&materialized, n);
    if (!appended.ok() || *appended != n) {
      std::fprintf(stderr, "failed to materialize the %zu-row stream\n", n);
      return 1;
    }
    const std::string csv_path = out_path + ".input.csv";
    const std::string tcmb_path = out_path + ".input.tcmb";
    tcm::Status wrote = tcm::WriteCsv(materialized, csv_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    tcm::Status converted = tcm::ConvertCsvToTcmb(csv_path, tcmb_path);
    if (!converted.ok()) {
      std::fprintf(stderr, "%s\n", converted.ToString().c_str());
      return 1;
    }

    for (const std::string input : {"csv", "tcmb"}) {
      RunConfig config{algorithm, tcm::MergeStrategy::kHierarchical,
                       /*overlap_io=*/true, /*threads=*/4, Role::kMeasured};
      tcm::JobSpec spec = StreamSpec(config, resident, shard_size);
      spec.input.path = input == "csv" ? csv_path : tcmb_path;
      spec.input.format =
          input == "csv" ? tcm::InputFormat::kCsv : tcm::InputFormat::kTcmb;
      spec.roles.quasi_identifiers = {"QI0", "QI1", "QI2"};
      spec.roles.confidential = "CONF";

      tcm::WallTimer timer;
      auto report = tcm::RunJob(spec);
      double seconds = timer.ElapsedSeconds();
      if (!report.ok()) {
        std::fprintf(stderr, "%s input failed: %s\n", input.c_str(),
                     report.status().ToString().c_str());
        return 1;
      }

      check_sse(config, input.c_str(), report->normalized_sse);
      const std::string line = FormatRow(
          config, input.c_str(), n, resident, shard_size, *report, seconds,
          baseline_seconds / seconds, report->normalized_sse / baseline_sse);
      std::printf("%s\n", line.c_str());
      json_lines.push_back(line);
      if (report->peak_resident_rows > resident ||
          !(report->k_verified && report->t_verified)) {
        return 1;
      }
    }
    std::remove(csv_path.c_str());
    std::remove(tcmb_path.c_str());
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < json_lines.size(); ++i) {
    std::fprintf(out, "  %s%s\n", json_lines[i].c_str(),
                 i + 1 < json_lines.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("# wrote %s\n", out_path.c_str());

  if (trace_sink.has_value()) {
    tcm::Status finished = trace_sink->Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   finished.ToString().c_str());
      return 1;
    }
    std::printf("# wrote %s\n", trace_env);
  }

  int status = 0;
  for (const std::string& row : sse_regressions) {
    std::fprintf(stderr,
                 "%s: SSE exceeds the same-algorithm baseline's %.6f\n",
                 row.c_str(), baseline_sse);
    status = 1;
  }
  if (required_speedup > 0.0 && last_speedup < required_speedup) {
    std::fprintf(stderr,
                 "speedup %.2fx at %zu threads is below the required "
                 "%.2fx over the same-algorithm sequential baseline\n",
                 last_speedup, last_threads, required_speedup);
    status = 1;
  }
  return status;
}
