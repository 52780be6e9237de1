// tcm_anonymize: command-line anonymizer over CSV files, a thin shell
// around the public Job API (tcm/api.h).
//
//   tcm_anonymize --job job.json [overrides...]
//   tcm_anonymize --input data.csv --output release.csv
//       --qi age,zipcode --confidential salary
//       --k 5 --t 0.1 [--algorithm NAME] [--threads N] [--shard-size N]
//       [--seed N] [--merge-strategy sequential|hierarchical]
//       [--stream] [--max-resident-rows N] [--overlap-io] [--report]
//       [--report-json FILE] [--trace-out FILE] [--list-algorithms]
//
// --job loads a versioned JobSpec from JSON (schema documented in
// README.md); every other flag is sugar that overrides the corresponding
// JobSpec field, so the two forms compose — a config-driven deployment
// can pin a job.json and override, say, --output per run. Without
// --job, the input must be a numeric CSV with a header row; --qi names
// become quasi-identifiers and --confidential drives t-closeness.
// --algorithm takes any registry name (see --list-algorithms), --stream
// switches to the bounded-memory out-of-core engine,
// --merge-strategy hierarchical runs the parallel subtree repair pass
// with EMD-bound pruning (deterministic at any thread count, different
// release bytes than the sequential default), --overlap-io reads the
// next window and verifies and writes the previous one while the current
// window anonymizes (streaming only), and --report-json writes the
// machine-readable RunReport.
// --trace-out records one
// Chrome trace-event JSON file of the run's stage spans (load, shard,
// per-shard anonymize, each MergeUntilTClose round, verify, write) —
// open it in chrome://tracing or https://ui.perfetto.dev. The release is byte-identical
// for any thread count. Exit code 0 only when the release was produced
// AND re-verified (sweep specs are the exception: they measure cells
// without producing or verifying a release); failures print a
// structured "Code: message" line to stderr and exit with the contract
// of tools/exit_codes.h (3 InvalidSpec, 4 UnknownAlgorithm, 5 IoError,
// 6 PrivacyViolation), pinned end to end by tools/exit_codes.cmake.
//
// Audit mode re-checks an existing release the way an external auditor
// would, without running any anonymizer:
//
//   tcm_anonymize --audit release.csv --qi age,zipcode
//       --confidential salary --k 5 --t 0.1
//
// The file is a CSV or a .tcmb, read by the same typed loader as
// tcm_profile (tools/table_input.h), so a release and its converted
// .tcmb get the same verdict. Exit 0 when the file is k-anonymous and
// t-close under those roles, 6 (PrivacyViolation) naming the violated
// guarantee otherwise, 3 when a role names a column the file lacks.
//
// Convert mode translates a CSV into the zero-copy binary dataset
// format (.tcmb, layout documented in README.md "Binary dataset
// format") and nothing else:
//
//   tcm_anonymize --convert data.csv --output data.tcmb
//
// The converted file is accepted anywhere a CSV path is: --input
// auto-detects the .tcmb extension (equivalent to input.format "tcmb"
// in a job file), and the release bytes are identical either way.
// Unreadable or truncated .tcmb inputs exit 5 (IoError); malformed
// headers or a format-version mismatch exit 3 (InvalidSpec).

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "arg_parser.h"
#include "engine/registry.h"
#include "exit_codes.h"
#include "table_input.h"
#include "tcm/api.h"

namespace {

constexpr char kUsage[] =
    "usage: tcm_anonymize [--job FILE] [--input FILE] [--output FILE]\n"
    "                     [--qi A,B,...] [--confidential C]\n"
    "                     [--k N] [--t X] [--algorithm NAME]\n"
    "                     [--threads N] [--shard-size N] [--seed N]\n"
    "                     [--merge-strategy sequential|hierarchical]\n"
    "                     [--stream] [--max-resident-rows N] [--overlap-io]\n"
    "                     [--report] [--report-json FILE]\n"
    "                     [--trace-out FILE] [--list-algorithms]\n"
    "       tcm_anonymize --audit FILE --qi A,B,... --confidential C\n"
    "                     --k N --t X\n"
    "       tcm_anonymize --convert IN.csv --output OUT.tcmb\n";

// Re-verifies an existing release file against k/t: the VerifyRelease
// facade on the command line. The only CLI path that can legitimately
// end in exit code 6 — the anonymizers themselves repair violations
// before writing.
int RunAudit(const std::string& path, const std::vector<std::string>& qi,
             const std::string& confidential, size_t k, double t) {
  // The same range the job path enforces (JobSpec::Validate): a nan t
  // would read as a privacy violation and an infinite one would pass
  // any release.
  if (!std::isfinite(t) || t < 0.0) {
    const tcm::Status invalid =
        tcm::Status::InvalidSpec("--t must be a finite number >= 0");
    std::fprintf(stderr, "%s\n", invalid.ToString().c_str());
    return tcm::tools::ExitCodeForStatus(invalid);
  }
  auto data = tcm::tools::ReadTableWithRoles(path, qi, confidential);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return tcm::tools::ExitCodeForStatus(data.status());
  }
  tcm::Status verdict = tcm::VerifyRelease(*data, k, t);
  if (!verdict.ok()) {
    std::fprintf(stderr, "%s\n", verdict.ToString().c_str());
    return tcm::tools::ExitCodeForStatus(verdict);
  }
  std::printf("audit OK: %s is %zu-anonymous and %.4f-close (%zu records)\n",
              path.c_str(), k, t, data->NumRecords());
  return tcm::tools::kExitOk;
}

// CSV -> .tcmb translation, the only mode that never touches the
// anonymizers. Prints the converted shape so scripted pipelines can log
// what was written.
int RunConvert(const std::string& csv_path, const std::string& tcmb_path) {
  tcm::Status status = tcm::ConvertCsvToTcmb(csv_path, tcmb_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return tcm::tools::ExitCodeForStatus(status);
  }
  auto table = tcm::ReadTcmb(tcmb_path);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return tcm::tools::ExitCodeForStatus(table.status());
  }
  std::printf("converted %s -> %s (%zu rows, %zu columns)\n",
              csv_path.c_str(), tcmb_path.c_str(), table->num_rows(),
              table->schema().size());
  return tcm::tools::kExitOk;
}

void PrintAlgorithms() {
  const tcm::AlgorithmRegistry& registry =
      tcm::AlgorithmRegistry::BuiltIns();
  std::printf("registered algorithms:\n");
  for (const std::string& name : registry.Names()) {
    std::printf("  %-18s %s\n", name.c_str(),
                registry.Description(name).c_str());
  }
}

void PrintReport(const tcm::JobSpec& spec, const tcm::RunReport& report) {
  const bool streamed = report.mode == tcm::ExecutionMode::kStreaming;
  std::printf("records            : %zu\n", report.rows);
  std::printf("algorithm          : %s%s\n", report.algorithm.c_str(),
              streamed ? " (streamed)" : "");
  std::printf("threads            : %zu\n", report.threads);
  if (streamed) {
    std::printf("windows            : %zu (budget %zu rows, peak resident "
                "%zu)\n",
                report.num_windows, spec.execution.max_resident_rows,
                report.peak_resident_rows);
  }
  std::printf("shards             : %zu (merges to restore t: %zu)\n",
              report.stats.num_shards, report.stats.final_merges);
  std::printf("merge strategy     : %s (subtrees %zu, pruned %zu/%zu "
              "checks)\n",
              tcm::MergeStrategyName(report.merge_strategy),
              report.stats.merge_subtrees, report.stats.pruned_checks,
              report.stats.candidate_checks);
  if (!streamed) {
    std::printf("clusters           : %zu\n", report.clusters);
    std::printf("cluster size       : min=%zu avg=%.2f max=%zu\n",
                report.min_cluster_size, report.average_cluster_size,
                report.max_cluster_size);
    std::printf("max cluster EMD    : %.4f (t=%.4f)\n",
                report.max_cluster_emd, report.t);
    std::printf("normalized SSE     : %.6f\n", report.normalized_sse);
    std::printf("verified           : k-anonymity=%s t-closeness=%s\n",
                report.k_verified ? "yes" : "no",
                report.t_verified ? "yes" : "no");
    std::printf(
        "elapsed            : %.3f s (load %.3f, anonymize %.3f, "
        "verify %.3f, write %.3f)\n",
        report.total_seconds, report.load_seconds, report.anonymize_seconds,
        report.verify_seconds, report.write_seconds);
  } else {
    std::printf("cluster size       : min=%zu max=%zu\n",
                report.min_cluster_size, report.max_cluster_size);
    std::printf("max cluster EMD    : %.4f (t=%.4f, per window)\n",
                report.max_cluster_emd, report.t);
    std::printf("normalized SSE     : %.6f (row-weighted over windows)\n",
                report.normalized_sse);
    std::printf("verified           : k-anonymity=%s t-closeness=%s "
                "(every window)\n",
                report.k_verified ? "yes" : "no",
                report.t_verified ? "yes" : "no");
    std::printf(
        "elapsed            : %.3f s (read %.3f, anonymize %.3f, "
        "verify %.3f, write %.3f)\n",
        report.total_seconds, report.load_seconds, report.anonymize_seconds,
        report.verify_seconds, report.write_seconds);
  }
}

void PrintSweep(const tcm::RunReport& report) {
  std::printf("sweep              : %zu cells over %zu records\n",
              report.sweep.size(), report.rows);
  for (const tcm::SweepOutcome& cell : report.sweep) {
    if (!cell.error_code.empty()) {
      std::printf("  %-28s %s: %s\n", cell.label.c_str(),
                  cell.error_code.c_str(), cell.error.c_str());
    } else {
      std::printf("  %-28s SSE=%.4f maxEMD=%.4f clusters=%zu (%.3fs)\n",
                  cell.label.c_str(), cell.normalized_sse,
                  cell.max_cluster_emd, cell.clusters,
                  cell.elapsed_seconds);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string job_path, input, output, confidential, algorithm, report_json;
  std::string trace_out;
  std::string audit_path;
  std::string convert_path;
  std::vector<std::string> qi;
  std::string merge_strategy;
  size_t k = 0, threads = 0, shard_size = 0, max_resident_rows = 0;
  uint64_t seed = 0;
  double t = 0.0;
  bool stream = false, overlap_io = false;
  bool report_flag = false, list_algorithms = false;

  tcm::tools::ArgParser parser(kUsage);
  parser.AddString("--job", &job_path);
  parser.AddString("--audit", &audit_path);
  parser.AddString("--convert", &convert_path);
  parser.AddString("--input", &input);
  parser.AddString("--output", &output);
  parser.AddStringList("--qi", &qi);
  parser.AddString("--confidential", &confidential);
  parser.AddSize("--k", &k);
  parser.AddNonNegativeDouble("--t", &t);
  parser.AddString("--algorithm", &algorithm);
  parser.AddSize("--threads", &threads);
  parser.AddSize("--shard-size", &shard_size);
  parser.AddUint64("--seed", &seed);
  parser.AddString("--merge-strategy", &merge_strategy);
  parser.AddFlag("--stream", &stream);
  parser.AddSize("--max-resident-rows", &max_resident_rows);
  parser.AddFlag("--overlap-io", &overlap_io);
  parser.AddFlag("--report", &report_flag);
  parser.AddString("--report-json", &report_json);
  parser.AddString("--trace-out", &trace_out);
  parser.AddFlag("--list-algorithms", &list_algorithms);
  if (!parser.Parse(argc, argv)) return tcm::tools::kExitUsage;

  if (list_algorithms) {
    PrintAlgorithms();
    return tcm::tools::kExitOk;
  }

  if (!convert_path.empty()) {
    // Convert mode stands alone like --audit: it only translates bytes,
    // so every anonymization/audit flag is refused rather than silently
    // ignored.
    for (const char* flag :
         {"--job", "--audit", "--input", "--qi", "--confidential", "--k",
          "--t", "--algorithm", "--threads", "--shard-size", "--seed",
          "--merge-strategy", "--stream", "--max-resident-rows",
          "--overlap-io", "--report", "--report-json", "--trace-out"}) {
      if (parser.Seen(flag)) {
        std::fprintf(stderr, "%s does not apply to --convert mode\n%s", flag,
                     kUsage);
        return tcm::tools::kExitUsage;
      }
    }
    if (output.empty()) {
      std::fprintf(stderr, "--convert requires --output\n%s", kUsage);
      return tcm::tools::kExitUsage;
    }
    return RunConvert(convert_path, output);
  }

  if (!audit_path.empty()) {
    // Audit mode stands alone: the roles and thresholds must be explicit
    // so the verdict is unambiguous, and anonymization flags are refused
    // rather than silently ignored (the ArgParser's no-silent-skip
    // philosophy applies across modes too).
    for (const char* flag :
         {"--job", "--input", "--output", "--algorithm", "--threads",
          "--shard-size", "--seed", "--merge-strategy", "--stream",
          "--max-resident-rows", "--overlap-io", "--report",
          "--report-json", "--trace-out"}) {
      if (parser.Seen(flag)) {
        std::fprintf(stderr, "%s does not apply to --audit mode\n%s", flag,
                     kUsage);
        return tcm::tools::kExitUsage;
      }
    }
    if (qi.empty() || confidential.empty() || !parser.Seen("--k") ||
        !parser.Seen("--t")) {
      std::fprintf(stderr,
                   "--audit requires --qi, --confidential, --k and --t\n%s",
                   kUsage);
      return tcm::tools::kExitUsage;
    }
    return RunAudit(audit_path, qi, confidential, k, t);
  }

  // The spec: a --job file when given, defaults otherwise; explicit flags
  // override either.
  tcm::JobSpec spec;
  if (!job_path.empty()) {
    auto loaded = tcm::JobSpec::FromJsonFile(job_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return tcm::tools::ExitCodeForStatus(loaded.status());
    }
    spec = std::move(loaded).value();
  }
  if (parser.Seen("--input")) {
    spec.input = tcm::JobInput{};
    spec.input.kind = tcm::InputKind::kCsvPath;
    spec.input.path = input;
    if (tcm::HasTcmbExtension(input)) {
      spec.input.format = tcm::InputFormat::kTcmb;
    }
  }
  if (parser.Seen("--output")) spec.output.release_path = output;
  if (parser.Seen("--report-json")) spec.output.report_path = report_json;
  if (parser.Seen("--trace-out")) spec.output.trace_path = trace_out;
  if (parser.Seen("--qi")) spec.roles.quasi_identifiers = qi;
  if (parser.Seen("--confidential")) spec.roles.confidential = confidential;
  if (parser.Seen("--algorithm")) spec.algorithm.name = algorithm;
  if (parser.Seen("--k")) spec.algorithm.k = k;
  if (parser.Seen("--t")) spec.algorithm.t = t;
  if (parser.Seen("--seed")) spec.algorithm.seed = seed;
  if (parser.Seen("--threads")) spec.execution.threads = threads;
  if (parser.Seen("--shard-size")) spec.execution.shard_size = shard_size;
  if (parser.Seen("--merge-strategy")) {
    auto parsed = tcm::ParseMergeStrategy(merge_strategy);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--merge-strategy: %s\n%s",
                   parsed.status().message().c_str(), kUsage);
      return tcm::tools::kExitUsage;
    }
    spec.execution.merge_strategy = *parsed;
  }
  if (parser.Seen("--stream")) {
    spec.execution.mode = tcm::ExecutionMode::kStreaming;
  }
  if (parser.Seen("--max-resident-rows")) {
    spec.execution.max_resident_rows = max_resident_rows;
  }
  if (parser.Seen("--overlap-io")) spec.execution.overlap_io = true;

  // Without a job file the classic required flags still apply, so the
  // historical CLI contract is unchanged.
  if (job_path.empty() &&
      (spec.input.path.empty() || spec.output.release_path.empty() ||
       spec.roles.quasi_identifiers.empty() ||
       spec.roles.confidential.empty())) {
    std::fprintf(stderr, "%s", kUsage);
    return tcm::tools::kExitUsage;
  }

  auto report = tcm::RunJob(spec);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return tcm::tools::ExitCodeForStatus(report.status());
  }
  if (report_flag) {
    if (report->swept) {
      PrintSweep(*report);
    } else {
      PrintReport(spec, *report);
    }
  }
  return tcm::tools::kExitOk;
}
