// tcm_perfbench: one run of one workload of the repository benchmark.
//
//   tcm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scale full|tiny] [--inject-verify-failure]
//
// Prints a host calibration line, one line per metric, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones and a
// Chrome trace under .bench_work/trace/. Exits 1 when any operation failed its
// correctness gate, 2 on a usage error or a non-Release build.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "util.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

void Outcome::Fail(const std::string& message) {
  ++failed;
  // The first few messages say what went wrong; the count says how often.
  if (errors.size() < 8) errors.push_back(message);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_s", "s"},
    {"release_sse", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"jobs_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
};

// Must match BENCHMARK.json's per_layer list.
constexpr MetricDef kPerLayer[] = {
    {"data.read_s", "s"},
    {"data.read_mb_per_s", "MB/s"},
    {"data.write_s", "s"},
    {"engine.shard_s", "s"},
    {"engine.fanout_s", "s"},
    {"engine.shard_busy_s", "s"},
    {"engine.max_shard_s", "s"},
    {"engine.fanout_efficiency", "ratio"},
    {"engine.windows", "count"},
    {"engine.peak_resident_rows", "count"},
    {"engine.measure_s", "s"},
    {"engine.pool_spawn_us", "us"},
    {"tclose.partition_s", "s"},
    {"tclose.merge_s", "s"},
    {"tclose.merges", "count"},
    {"tclose.merge_candidate_checks", "count"},
    {"tclose.merge_exact_checks", "count"},
    {"tclose.merge_pruned_checks", "count"},
    {"tclose.merge_prune_ratio", "ratio"},
    {"privacy.verify_s", "s"},
    {"api.run_job_us", "us"},
    {"api.spec_parse_us", "us"},
    {"api.report_serialize_us", "us"},
    {"serve.queue_roundtrip_us", "us"},
    {"serve.accepted_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.server_job_p50_ms", "ms"},
    {"serve.backpressure_retries", "count"},
    {"serve.reconnects", "count"},
    {"bench.traced_job_s", "s"},
};

template <size_t N>
bool Defines(const MetricDef (&table)[N], const std::string& name) {
  for (const MetricDef& def : table) {
    if (name == def.name) return true;
  }
  return false;
}

template <size_t N>
std::string MetricsJson(const MetricDef (&table)[N], const Outcome& out) {
  std::string json = "{";
  char value[64];
  for (size_t i = 0; i < N; ++i) {
    const auto found = out.metrics.find(table[i].name);
    std::snprintf(value, sizeof(value), "%.17g",
                  found == out.metrics.end() ? 0.0 : found->second);
    json += std::string(i == 0 ? "" : ", ") + "\"" + table[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + table[i].unit +
            "\"}";
  }
  return json + "}";
}

template <size_t N>
void PrintMetrics(const MetricDef (&table)[N], const Outcome& out) {
  for (const MetricDef& def : table) {
    const auto found = out.metrics.find(def.name);
    std::printf("# %-32s %14.6g %s\n", def.name,
                found == out.metrics.end() ? 0.0 : found->second, def.unit);
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string usage_error;
  if (!ParseArgs(argc, argv, &args, &usage_error)) {
    std::fprintf(stderr, "%s\n", usage_error.c_str());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    // Timings of an unoptimized build say nothing about the code.
    std::fprintf(stderr,
                 "refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  Outcome out;
  const HostCalibration host = CalibrateHost();
  if (args.workload == "stream_csv_1m") {
    out = RunStreamCsv(args);
  } else if (args.workload == "paper_alg3_discharge") {
    out = RunPaperAlg3(args);
  } else if (args.workload == "serve_ndjson_c4") {
    out = RunServe(args, Protocol::kNdjson);
  } else if (args.workload == "serve_http_c4") {
    out = RunServe(args, Protocol::kHttp);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // A metric outside the tables, or a value JSON cannot carry, is a bug in
  // the benchmark itself: report it as a failed run, never as a number.
  for (const auto& [name, value] : out.metrics) {
    const bool known = args.trace ? Defines(kPerLayer, name)
                                  : Defines(kEndToEnd, name);
    if (!known || !std::isfinite(value)) {
      out.Fail("benchmark produced metric '" + name + "' = " +
               std::to_string(value));
    }
  }
  if (out.attempted == 0) {
    out.attempted = 1;
    out.Fail("no operation was attempted");
  }

  std::printf("# workload %s seed %llu trace %d scale %s build %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.scale == Scale::kTiny ? "tiny" : "full",
              build_type.c_str());
  std::printf("# host nproc %u, spin capacity", host.nproc);
  for (size_t i = 0; i < host.threads.size(); ++i) {
    std::printf(" %dt=%.2f", host.threads[i], host.capacity[i]);
  }
  std::printf("\n");
  if (args.trace) {
    PrintMetrics(kPerLayer, out);
    const std::string dir = std::string(kWorkDir) + "/trace";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (Tracer::Get().WriteChromeTrace(path)) {
      std::printf("# trace %s (%zu spans dropped past the cap)\n",
                  path.c_str(), Tracer::Get().dropped());
    } else {
      out.Fail("cannot write trace " + path);
    }
  } else {
    PrintMetrics(kEndToEnd, out);
  }
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "FAILED: %s\n", error.c_str());
  }

  const bool correct = out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", out.attempted, out.failed,
      args.trace ? MetricsJson(kPerLayer, out).c_str()
                 : MetricsJson(kEndToEnd, out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
