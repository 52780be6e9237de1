// End-to-end CSV workflow on the Job API: a data custodian picking an
// algorithm by sweep, then publishing through the same facade.
//  1. Export an original microdata set to CSV.
//  2. Run a sweep JobSpec — every algorithm in the registry over the
//     same (k, t) — in one RunJob call and compare the outcomes.
//  3. Publish the winner with a second JobSpec that reads the CSV back,
//     assigns roles by column name, re-verifies the release and writes
//     both the release CSV and a machine-readable JSON report.
//
//   ./build/examples/example_csv_pipeline [output_dir]
//
// output_dir (default /tmp) is created when missing.

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "data/csv.h"
#include "data/generator.h"
#include "engine/registry.h"
#include "tcm/api.h"

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "/tmp";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string original_path = dir + "/census_original.csv";
  const std::string release_path = dir + "/census_release.csv";
  const std::string report_path = dir + "/census_report.json";

  // 1. Export the original data.
  tcm::Dataset data = tcm::MakeMcdDataset();
  if (auto status = tcm::WriteCsv(data, original_path); !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("exported %zu records x %zu attributes to %s\n",
              data.NumRecords(), data.NumAttributes(),
              original_path.c_str());

  // 2. One sweep cell per registered algorithm (paper algorithms AND
  //    baselines — the registry makes them interchangeable), fanned
  //    across a 4-worker pool by a single JobSpec.
  constexpr size_t kK = 4;
  constexpr double kT = 0.12;
  tcm::JobSpec sweep_spec;
  sweep_spec.algorithm.k = kK;
  sweep_spec.algorithm.t = kT;
  sweep_spec.execution.threads = 4;
  sweep_spec.sweep.emplace();
  for (const std::string& name :
       tcm::AlgorithmRegistry::BuiltIns().Names()) {
    if (name == "kanon" || name == "tclose") continue;  // CLI aliases
    sweep_spec.sweep->algorithms.push_back(name);
  }
  auto swept = tcm::RunJob(data, sweep_spec);
  if (!swept.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 swept.status().ToString().c_str());
    return 1;
  }

  std::string best_algorithm;
  double best_sse = 2.0;
  for (const tcm::SweepOutcome& outcome : swept->sweep) {
    if (!outcome.error_code.empty()) {
      std::printf("  %-28s failed (%s): %s\n", outcome.label.c_str(),
                  outcome.error_code.c_str(), outcome.error.c_str());
      continue;
    }
    std::printf("  %-28s SSE=%.4f maxEMD=%.4f clusters=%zu (%.3fs)\n",
                outcome.label.c_str(), outcome.normalized_sse,
                outcome.max_cluster_emd, outcome.clusters,
                outcome.elapsed_seconds);
    if (outcome.normalized_sse < best_sse) {
      best_sse = outcome.normalized_sse;
      best_algorithm = outcome.algorithm;
    }
  }
  if (best_algorithm.empty()) {
    std::fprintf(stderr, "every algorithm failed\n");
    return 1;
  }
  std::printf("winner: %s\n", best_algorithm.c_str());

  // 3. Publish the winner through the full pipeline. Roles are assigned
  //    by column name from the CSV header, the release is re-verified
  //    (k-anonymity + t-closeness) before the write stage runs, and the
  //    JSON report lands next to the release for the audit trail.
  tcm::JobSpec publish;
  publish.input.kind = tcm::InputKind::kCsvPath;
  publish.input.path = original_path;
  publish.roles.quasi_identifiers = {"TAXINC", "POTHVAL"};
  publish.roles.confidential = "FEDTAX";
  publish.algorithm.name = best_algorithm;
  publish.algorithm.k = kK;
  publish.algorithm.t = kT;
  publish.execution.threads = 2;
  publish.execution.shard_size = 0;  // 1080 records: no need to shard
  publish.output.release_path = release_path;
  publish.output.report_path = report_path;
  auto published = tcm::RunJob(publish);
  if (!published.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 published.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "released %s (normalized SSE %.4f, verified %.2f-close, "
      "%zu shard(s) on %zu thread(s)); report at %s\n",
      release_path.c_str(), published->normalized_sse, kT,
      published->stats.num_shards, published->threads, report_path.c_str());
  return 0;
}
