// Tests for the public Job API (tcm/api.h): JobSpec JSON round-trips and
// the strict rejection corpus, the structured error taxonomy, RunJob
// lowering onto every execution mode, and — the redesign's anchor — the
// golden-release byte pins re-expressed as JobSpecs (in-memory at 1 and
// 4 threads, streamed single- and multi-window) matching the committed
// bytes under tests/golden/ exactly.

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/generator.h"
#include "engine/registry.h"
#include "tcm/api.h"

#ifndef TCM_GOLDEN_DIR
#error "TCM_GOLDEN_DIR must point at tests/golden"
#endif

namespace tcm {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string GoldenBytes(const std::string& name) {
  return ReadFileBytes(std::string(TCM_GOLDEN_DIR) + "/" + name);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- JobSpec JSON round-trip -------------------------------------------

TEST(JobSpecJsonTest, FullSpecRoundTrips) {
  JobSpec spec;
  spec.input.kind = InputKind::kCsvPath;
  spec.input.path = "data.csv";
  spec.roles.quasi_identifiers = {"age", "zipcode"};
  spec.roles.confidential = "salary";
  spec.algorithm.name = "merge";
  spec.algorithm.k = 7;
  spec.algorithm.t = 0.25;
  spec.algorithm.seed = 123;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.threads = 4;
  spec.execution.shard_size = 512;
  spec.execution.max_resident_rows = 5000;
  spec.execution.merge_strategy = MergeStrategy::kHierarchical;
  spec.execution.overlap_io = true;
  spec.verify = false;
  spec.output.release_path = "out.csv";
  spec.output.report_path = "report.json";

  auto parsed = JobSpec::FromJsonText(spec.ToJsonText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJsonText(), spec.ToJsonText());
  EXPECT_EQ(parsed->input.kind, InputKind::kCsvPath);
  EXPECT_EQ(parsed->input.path, "data.csv");
  EXPECT_EQ(parsed->roles.quasi_identifiers, spec.roles.quasi_identifiers);
  EXPECT_EQ(parsed->roles.confidential, "salary");
  EXPECT_EQ(parsed->algorithm.name, "merge");
  EXPECT_EQ(parsed->algorithm.k, 7u);
  EXPECT_DOUBLE_EQ(parsed->algorithm.t, 0.25);
  EXPECT_EQ(parsed->algorithm.seed, 123u);
  EXPECT_EQ(parsed->execution.mode, ExecutionMode::kStreaming);
  EXPECT_EQ(parsed->execution.threads, 4u);
  EXPECT_EQ(parsed->execution.shard_size, 512u);
  EXPECT_EQ(parsed->execution.max_resident_rows, 5000u);
  EXPECT_EQ(parsed->execution.merge_strategy, MergeStrategy::kHierarchical);
  EXPECT_TRUE(parsed->execution.overlap_io);
  EXPECT_FALSE(parsed->verify);
  EXPECT_EQ(parsed->output.release_path, "out.csv");
  EXPECT_EQ(parsed->output.report_path, "report.json");
}

TEST(JobSpecJsonTest, SyntheticAndSweepRoundTrip) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "clustered";
  spec.input.rows = 400;
  spec.input.quasi_identifiers = 3;
  spec.input.modes = 5;
  spec.input.seed = 31;
  spec.sweep.emplace();
  spec.sweep->algorithms = {"merge", "tclose_first"};
  spec.sweep->ks = {3, 5};
  spec.sweep->ts = {0.1, 0.2};

  auto parsed = JobSpec::FromJsonText(spec.ToJsonText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJsonText(), spec.ToJsonText());
  ASSERT_TRUE(parsed->sweep.has_value());
  EXPECT_EQ(parsed->sweep->algorithms, spec.sweep->algorithms);
  EXPECT_EQ(parsed->sweep->ks, spec.sweep->ks);
  EXPECT_EQ(parsed->sweep->ts, spec.sweep->ts);
  EXPECT_EQ(parsed->input.generator, "clustered");
  EXPECT_EQ(parsed->input.rows, 400u);
  EXPECT_EQ(parsed->input.modes, 5u);
}

TEST(JobSpecJsonTest, MinimalDocumentGetsDefaults) {
  auto parsed = JobSpec::FromJsonText(
      R"({"input": {"kind": "synthetic"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, JobSpec::kVersion);
  EXPECT_EQ(parsed->algorithm.name, "tclose_first");
  EXPECT_EQ(parsed->algorithm.k, 5u);
  EXPECT_DOUBLE_EQ(parsed->algorithm.t, 0.1);
  EXPECT_EQ(parsed->execution.mode, ExecutionMode::kInMemory);
  EXPECT_TRUE(parsed->verify);
}

// --- rejection corpus ---------------------------------------------------

struct Rejection {
  const char* text;
  const char* needle;  // must appear in the error message
};

TEST(JobSpecJsonTest, RejectionCorpus) {
  const Rejection corpus[] = {
      // Unknown keys at every level.
      {R"({"inptu": {}})", "unknown key \"inptu\""},
      {R"({"input": {"kind": "synthetic", "pathh": "x"}})",
       "unknown key \"pathh\""},
      {R"({"input": {"kind": "csv", "generator": "uniform", "path": "x"}})",
       "unknown key \"generator\""},
      {R"({"algorithm": {"name": "merge", "kk": 3}})", "unknown key \"kk\""},
      {R"({"execution": {"modes": "in_memory"}})", "unknown key \"modes\""},
      {R"({"roles": {"qi": ["a"]}})", "unknown key \"qi\""},
      {R"({"output": {"path": "x"}})", "unknown key \"path\""},
      {R"({"sweep": {"k": [3]}})", "unknown key \"k\""},
      // Wrong types.
      {R"({"algorithm": {"k": "five"}})", "algorithm.k"},
      {R"({"algorithm": {"k": 2.5}})", "algorithm.k"},
      {R"({"algorithm": {"k": -3}})", "algorithm.k"},
      {R"({"algorithm": {"t": "wide"}})", "algorithm.t"},
      {R"({"algorithm": {"name": 7}})", "algorithm.name"},
      {R"({"verify": "yes"})", "verify"},
      {R"({"roles": {"quasi_identifiers": "a,b"}})",
       "array of strings"},
      {R"({"roles": {"quasi_identifiers": [1, 2]}})", "expected a string"},
      {R"({"input": "data.csv"})", "must be a JSON object"},
      {R"({"execution": {"threads": [2]}})", "execution.threads"},
      {R"({"sweep": {"ks": [0.5]}})", "sweep.ks"},
      {R"({"sweep": {"ts": ["x"]}})", "sweep.ts"},
      // Out-of-range / semantic.
      {R"({"input": {"kind": "synthetic"}, "algorithm": {"k": 0}})",
       "algorithm.k must be at least 1"},
      {R"({"input": {"kind": "synthetic"}, "sweep": {"ks": [0]}})",
       "sweep.ks entries"},
      {R"({"version": 2})", "unsupported job spec version 2"},
      {R"({"version": "one"})", "version"},
      {R"({"input": {"kind": "laser"}})", "input.kind"},
      {R"({"input": {"kind": "dataset"}})", "programmatic-only"},
      {R"({"input": {"kind": "synthetic", "generator": "weird"}})",
       "input.generator"},
      {R"({"input": {"kind": "synthetic", "rows": 1}})",
       "input.rows must be at least 2"},
      {R"({"input": {"kind": "csv", "path": "x.csv"}})",
       "needs roles"},
      {R"({"execution": {"mode": "turbo"}})", "execution.mode"},
      {R"({"input": {"kind": "synthetic"},
           "execution": {"mode": "streaming", "max_resident_rows": 5}})",
       "max_resident_rows"},
      // overlap_io keeps two windows resident: 12 rows cover k + max(k, 2)
      // = 10 for k = 5, but not the overlapped floor of 15.
      {R"({"input": {"kind": "synthetic"}, "algorithm": {"k": 5},
           "execution": {"mode": "streaming", "max_resident_rows": 12,
                         "overlap_io": true}})",
       "need at least k + 2 * max(k, 2) = 15"},
      {R"({"input": {"kind": "synthetic", "generator": "mcd"},
           "execution": {"mode": "streaming"}})",
       "cannot stream"},
      {R"({"input": {"kind": "synthetic"},
           "sweep": {},
           "output": {"release_path": "out.csv"}})",
       "release_path"},
      {R"({"input": {"kind": "synthetic"},
           "execution": {"mode": "streaming"},
           "sweep": {"ks": [3]}})",
       "in-memory"},
      {R"({"execution": {"merge_strategy": "turbo"}})",
       "execution.merge_strategy"},
      {R"({"execution": {"merge_strategy": 3}})",
       "execution.merge_strategy"},
      {R"({"input": {"kind": "synthetic"},
           "execution": {"mode": "in_memory", "overlap_io": true}})",
       "overlap_io"},
      // Not JSON at all.
      {"not json", "not valid JSON"},
      {R"({"version": 1,})", "not valid JSON"},
  };
  for (const Rejection& rejection : corpus) {
    auto parsed = JobSpec::FromJsonText(rejection.text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << rejection.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidSpec)
        << rejection.text << " -> " << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find(rejection.needle),
              std::string::npos)
        << rejection.text << " -> " << parsed.status().ToString();
  }
}

// --- structured error taxonomy -----------------------------------------

TEST(ErrorTaxonomyTest, UnknownAlgorithm) {
  auto parsed = JobSpec::FromJsonText(
      R"({"input": {"kind": "synthetic"},
          "algorithm": {"name": "bogus"}})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kUnknownAlgorithm);
  // The message lists the registered names for discoverability.
  EXPECT_NE(parsed.status().message().find("known algorithms"),
            std::string::npos);

  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.algorithm.name = "also_bogus";
  auto report = RunJob(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnknownAlgorithm);
}

TEST(JobSpecJsonTest, StreamedSyntheticAndRecordSourceJobsApplyRoles) {
  // Roles apply the same way to every input kind in either mode: they
  // live on the schema the job reads rows into, never on the source.
  auto parsed = JobSpec::FromJsonText(R"({
    "input": {"kind": "synthetic", "generator": "uniform", "rows": 120,
              "quasi_identifiers": 2, "seed": 3},
    "roles": {"quasi_identifiers": ["QI1", "CONF"], "confidential": "QI0"},
    "algorithm": {"name": "merge", "k": 4, "t": 0.3},
    "execution": {"mode": "streaming"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto release = [](JobSpec spec, const std::string& name) {
    spec.output.release_path = TempPath(name);
    auto report = RunJob(spec);
    EXPECT_TRUE(report.ok()) << name << ": " << report.status().ToString();
    return ReadFileBytes(spec.output.release_path);
  };

  // One window: the streamed release is the in-memory one, byte for byte.
  const std::string streamed = release(*parsed, "roles_streamed.csv");
  JobSpec in_memory = *parsed;
  in_memory.execution.mode = ExecutionMode::kInMemory;
  EXPECT_EQ(streamed, release(in_memory, "roles_in_memory.csv"));
  JobSpec roleless = *parsed;
  roleless.roles = JobRoles{};
  EXPECT_NE(streamed, release(roleless, "roles_none.csv"));

  // The generator's rows through a caller's record source re-role alike.
  auto source = MakeUniformSource(120, 2, 3);
  JobSpec from_source = *parsed;
  from_source.input = JobInput{};
  from_source.input.kind = InputKind::kRecordSource;
  from_source.input.source = source.get();
  EXPECT_EQ(streamed, release(from_source, "roles_source.csv"));

  // A role naming a missing column fails the same way in both modes.
  std::vector<StatusCode> codes;
  for (ExecutionMode mode :
       {ExecutionMode::kInMemory, ExecutionMode::kStreaming}) {
    auto rows = MakeUniformSource(120, 2, 3);
    JobSpec missing = from_source;
    missing.input.source = rows.get();
    missing.execution.mode = mode;
    missing.roles.confidential = "missing";
    codes.push_back(RunJob(missing).status().code());
  }
  EXPECT_EQ(codes[0], StatusCode::kInvalidArgument);
  EXPECT_EQ(codes[1], codes[0]);
}

TEST(JobSpecJsonTest, NonFiniteTIsRejected) {
  // JSON cannot spell inf or NaN, so these reach Validate() only through
  // the programmatic surface and the CLI's --t flag. Every t >= 1 already
  // disables the constraint (EMD <= 1); a non-finite t is never needed.
  for (double t : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    JobSpec spec;
    spec.input.kind = InputKind::kSynthetic;
    spec.algorithm.t = t;
    Status status = spec.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << "t=" << t;
    EXPECT_NE(status.message().find("algorithm.t must be a finite number"),
              std::string::npos)
        << status.ToString();

    spec.algorithm.t = 0.25;
    spec.sweep.emplace();
    spec.sweep->ts = {0.1, t};
    status = spec.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << "t=" << t;
    EXPECT_NE(status.message().find("sweep.ts entries must be finite"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(JobSpecJsonTest, SeedsAboveTwoToTheFiftyThreeAreRejected) {
  // Seeds travel as JSON numbers; values above 2^53 would round-trip
  // lossily, so the whole spec surface rejects them.
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.algorithm.seed = (uint64_t{1} << 53) + 2;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidSpec);
  spec.algorithm.seed = uint64_t{1} << 53;
  EXPECT_TRUE(spec.Validate().ok());
  spec.input.seed = (uint64_t{1} << 60);
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidSpec);
}

TEST(ErrorTaxonomyTest, SweepWithUnknownAlgorithm) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.sweep.emplace();
  spec.sweep->algorithms = {"merge", "bogus"};
  EXPECT_EQ(spec.Validate().code(), StatusCode::kUnknownAlgorithm);
}

TEST(ErrorTaxonomyTest, MissingInputIsIoError) {
  JobSpec spec;
  spec.input.kind = InputKind::kCsvPath;
  spec.input.path = "/nonexistent/input.csv";
  spec.roles.quasi_identifiers = {"a"};
  spec.roles.confidential = "b";
  auto report = RunJob(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);

  EXPECT_EQ(JobSpec::FromJsonFile("/nonexistent/job.json").status().code(),
            StatusCode::kIoError);
}

TEST(ErrorTaxonomyTest, InvalidSpecFromRunJob) {
  JobSpec spec;  // csv kind with empty path
  auto report = RunJob(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidSpec);
}

// A registry algorithm that ignores params.k and emits clusters of two:
// the released data violates k-anonymity for k > 2, which the verify
// stage must convert into kPrivacyViolation.
void RegisterUndersizedAlgorithm() {
  static const bool registered = [] {
    Status status = AlgorithmRegistry::BuiltIns().Register(
        "test_undersized", "test-only: pairs regardless of k",
        [](const Dataset& data, const AlgorithmParams&) -> Result<Partition> {
          Partition partition;
          for (size_t row = 0; row < data.NumRecords(); row += 2) {
            Cluster cluster;
            cluster.push_back(row);
            if (row + 1 < data.NumRecords()) cluster.push_back(row + 1);
            partition.clusters.push_back(std::move(cluster));
          }
          return partition;
        });
    return status.ok();
  }();
  ASSERT_TRUE(registered);
}

TEST(ErrorTaxonomyTest, VerifyFailureIsPrivacyViolation) {
  RegisterUndersizedAlgorithm();
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.rows = 64;
  spec.input.seed = 5;
  spec.algorithm.name = "test_undersized";
  spec.algorithm.k = 5;
  spec.algorithm.t = 10.0;  // never triggers the t repair pass
  spec.execution.shard_size = 0;
  spec.verify = true;
  auto report = RunJob(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kPrivacyViolation);
  EXPECT_NE(report.status().message().find("k-anonymity"),
            std::string::npos);

  // With verification off the same job goes through — callers opting out
  // of the re-check get the release they asked for.
  spec.verify = false;
  auto unchecked = RunJob(spec);
  ASSERT_TRUE(unchecked.ok()) << unchecked.status().ToString();
  EXPECT_FALSE(unchecked->k_verified);
}

TEST(ErrorTaxonomyTest, VerifyReleaseBranchesOnCode) {
  Dataset data = MakeUniformDataset(40, 2, 11);
  EXPECT_EQ(VerifyRelease(data, 2, 0.5).code(),
            StatusCode::kPrivacyViolation);

  JobSpec spec;
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.3;
  auto report = RunJob(data, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(VerifyRelease(*report->release, 4, 0.3).ok());
}

// --- golden-release byte pins, re-expressed as JobSpecs ----------------

Dataset GoldenInput() { return MakeMcdDataset({.num_records = 120, .seed = 7}); }

// The exact flag matrix golden_release_test pins, run through the facade
// at 1 and 4 threads: the JobSpec lowering must not change a byte.
TEST(JobGoldenTest, InMemoryMatrixMatchesPinnedBytesAtOneAndFourThreads) {
  struct Case {
    const char* algorithm;
    size_t k;
    double t;
  };
  const Case cases[] = {
      {"merge", 3, 0.2},        {"merge_chunked", 5, 0.2},
      {"kanon_first", 3, 0.25}, {"tclose_first", 5, 0.3},
      {"mondrian", 4, 0.3},     {"sabre", 4, 0.3},
  };
  Dataset data = GoldenInput();
  for (size_t threads : {1u, 4u}) {
    for (const Case& c : cases) {
      JobSpec spec;
      spec.algorithm.name = c.algorithm;
      spec.algorithm.k = c.k;
      spec.algorithm.t = c.t;
      spec.algorithm.seed = 9;
      spec.execution.threads = threads;
      spec.execution.shard_size = 64;
      auto report = RunJob(data, spec);
      ASSERT_TRUE(report.ok()) << c.algorithm << ": "
                               << report.status().ToString();
      char name[128];
      std::snprintf(name, sizeof(name), "release_%s_k%zu_t%02d.csv",
                    c.algorithm, c.k, static_cast<int>(c.t * 100));
      EXPECT_EQ(WriteCsvString(*report->release), GoldenBytes(name))
          << name << " at " << threads << " thread(s)";
    }
  }
}

// Streamed single-window job (synthetic mcd source is in-memory only, so
// the stream reads the golden input CSV) — byte-identical to the
// in-memory golden, through the facade's own CSV writer.
TEST(JobGoldenTest, StreamedCsvJobMatchesPinnedBytes) {
  const std::string input_path = TempPath("api_golden_input.csv");
  {
    std::ofstream out(input_path, std::ios::binary);
    const std::string bytes = WriteCsvString(GoldenInput());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  for (size_t threads : {1u, 4u}) {
    const std::string release_path =
        TempPath("api_golden_stream_" + std::to_string(threads) + ".csv");
    JobSpec spec;
    spec.input.kind = InputKind::kCsvPath;
    spec.input.path = input_path;
    spec.roles.quasi_identifiers = {"TAXINC", "POTHVAL"};
    spec.roles.confidential = "FEDTAX";
    spec.algorithm.name = "tclose_first";
    spec.algorithm.k = 5;
    spec.algorithm.t = 0.3;
    spec.algorithm.seed = 9;
    spec.execution.mode = ExecutionMode::kStreaming;
    spec.execution.threads = threads;
    spec.execution.shard_size = 64;
    spec.execution.max_resident_rows = 4096;  // single window
    spec.output.release_path = release_path;
    auto report = RunJob(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->num_windows, 1u);
    EXPECT_EQ(ReadFileBytes(release_path),
              GoldenBytes("release_tclose_first_k5_t30.csv"))
        << "at " << threads << " thread(s)";
  }
}

// Multi-window streamed release from a synthetic source, as a JobSpec:
// matches the pinned golden_release_test bytes.
TEST(JobGoldenTest, StreamedMultiWindowSyntheticJobMatchesPinnedBytes) {
  for (size_t threads : {1u, 4u}) {
    const std::string release_path =
        TempPath("api_golden_windows_" + std::to_string(threads) + ".csv");
    JobSpec spec;
    spec.input.kind = InputKind::kSynthetic;
    spec.input.generator = "uniform";
    spec.input.rows = 400;
    spec.input.quasi_identifiers = 2;
    spec.input.seed = 31;
    spec.algorithm.name = "merge_chunked";
    spec.algorithm.k = 4;
    spec.algorithm.t = 0.25;
    spec.algorithm.seed = 13;
    spec.execution.mode = ExecutionMode::kStreaming;
    spec.execution.threads = threads;
    spec.execution.shard_size = 64;
    spec.execution.max_resident_rows = 150;
    spec.output.release_path = release_path;
    auto report = RunJob(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(report->num_windows, 2u);
    EXPECT_EQ(ReadFileBytes(release_path),
              GoldenBytes("release_streamed_uniform400.csv"))
        << "at " << threads << " thread(s)";
  }
}

TEST(JobGoldenTest, CategoricalReleaseMatchesPinnedBytes) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "adult";
  spec.input.rows = 90;
  spec.input.seed = 3;
  spec.algorithm.name = "merge";
  spec.algorithm.k = 3;
  spec.algorithm.t = 0.3;
  spec.algorithm.seed = 9;
  spec.execution.shard_size = 0;
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(WriteCsvString(*report->release),
            GoldenBytes("release_adult_merge_k3_t30.csv"));
}

// --- RunJob behaviour ---------------------------------------------------

TEST(RunJobTest, ReportJsonIsWrittenAndWellFormed) {
  const std::string report_path = TempPath("api_report.json");
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.rows = 120;
  spec.input.quasi_identifiers = 2;
  spec.input.seed = 3;
  spec.output.report_path = report_path;
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto json = ReadJsonFile(report_path);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("version")->number_value(), RunReport::kVersion);
  EXPECT_EQ(json->Find("mode")->string_value(), "in_memory");
  EXPECT_EQ(json->Find("rows")->number_value(), 120.0);
  EXPECT_EQ(json->Find("algorithm")->Find("name")->string_value(),
            "tclose_first");
  EXPECT_TRUE(
      json->Find("verification")->Find("k_anonymous")->bool_value());
  EXPECT_NE(json->Find("timings")->Find("total_seconds"), nullptr);
  // The in-process report serializes to the same document.
  EXPECT_EQ(ReadFileBytes(report_path), report->ToJsonText() + "\n");
}

TEST(RunJobTest, TimingsAreCoherent) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.rows = 300;
  spec.input.seed = 8;
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->total_seconds, 0.0);
  EXPECT_GE(report->total_seconds, report->anonymize_seconds);
  EXPECT_GT(report->anonymize_seconds, 0.0);
}

TEST(RunJobTest, RecordSourceInputDrainsInMemory) {
  auto source = MakeUniformSource(200, 2, 17);
  JobSpec spec;
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.2;
  auto report = RunJob(source.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows, 200u);
  EXPECT_TRUE(report->k_verified);
  EXPECT_TRUE(report->t_verified);
  ASSERT_TRUE(report->release.has_value());

  // Identical to the same job over the materialized dataset.
  Dataset data = MakeUniformDataset(200, 2, 17);
  auto direct = RunJob(data, spec);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(WriteCsvString(*report->release),
            WriteCsvString(*direct->release));
}

TEST(RunJobTest, SweepFansOutTheCrossProduct) {
  Dataset data = MakeMcdDataset({.num_records = 120, .seed = 7});
  JobSpec spec;
  spec.algorithm.seed = 9;
  spec.execution.threads = 2;
  spec.sweep.emplace();
  spec.sweep->algorithms = {"merge", "tclose_first"};
  spec.sweep->ks = {3, 5};
  spec.sweep->ts = {0.3};
  auto report = RunJob(data, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->swept);
  ASSERT_EQ(report->sweep.size(), 4u);
  EXPECT_EQ(report->sweep[0].label, "merge/k=3/t=0.3");
  EXPECT_EQ(report->sweep[3].label, "tclose_first/k=5/t=0.3");
  for (const SweepOutcome& outcome : report->sweep) {
    EXPECT_TRUE(outcome.error_code.empty()) << outcome.error;
    EXPECT_GE(outcome.min_cluster_size, outcome.k);
    EXPECT_LE(outcome.max_cluster_emd, 0.3 + 1e-12);
    EXPECT_GT(outcome.clusters, 0u);
  }
  // The sweep section serializes per cell.
  JsonValue json = report->ToJson();
  EXPECT_EQ(json.Find("mode")->string_value(), "sweep");
  EXPECT_EQ(json.Find("sweep")->size(), 4u);
  // A sweep runs no window loop: no engine ledger, no stage breakdown.
  EXPECT_EQ(json.Find("stage_seconds"), nullptr);
  EXPECT_EQ(json.Find("execution")->Find("shards")->number_value(), 0.0);
}

// Sweep cells run independently: a cell that fails records its error
// in its own outcome, and the others still succeed, in cell order.
TEST(RunJobTest, SweepOutcomesStayInCellOrderAndIsolateFailures) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "uniform";
  spec.input.rows = 60;
  spec.input.quasi_identifiers = 2;
  spec.input.seed = 89;
  spec.execution.threads = 3;
  spec.sweep.emplace();
  spec.sweep->algorithms = {"tclose_first", "merge"};
  spec.sweep->ks = {3, 1000};  // k = 1000 > 60 rows: must fail
  spec.sweep->ts = {0.3};
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->sweep.size(), 4u);
  const char* labels[] = {"tclose_first/k=3/t=0.3",
                          "tclose_first/k=1000/t=0.3", "merge/k=3/t=0.3",
                          "merge/k=1000/t=0.3"};
  for (size_t i = 0; i < report->sweep.size(); ++i) {
    const SweepOutcome& outcome = report->sweep[i];
    EXPECT_EQ(outcome.label, labels[i]);
    if (outcome.k == 1000) {
      EXPECT_EQ(outcome.error_code, "InvalidArgument") << outcome.label;
      EXPECT_FALSE(outcome.error.empty()) << outcome.label;
      EXPECT_EQ(outcome.clusters, 0u) << outcome.label;
    } else {
      EXPECT_TRUE(outcome.error_code.empty()) << outcome.error;
      EXPECT_GE(outcome.min_cluster_size, 3u) << outcome.label;
      EXPECT_LE(outcome.max_cluster_emd, 0.3 + 1e-9) << outcome.label;
    }
  }
}

// Algorithm 3's own construction is not always t-close: on this input its
// raw partition has a cluster over t. A one-shard job ends with the same
// repair pass as a many-shard one, so it still releases a t-close file,
// and its ledger counts the repair merges.
TEST(RunJobTest, OneShardJobRepairsAnAlgorithm3Violation) {
  constexpr double kT = 0.05;
  Dataset data = MakeUniformDataset(997, 2, 4);
  auto raw = RunAlgorithm(data, "tclose_first", {.k = 5, .t = kT});
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_GT(raw->max_cluster_emd, kT) << "the input no longer shows a raw "
                                         "Algorithm 3 violation";

  JobSpec spec;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 5;
  spec.algorithm.t = kT;
  spec.execution.threads = 2;
  spec.execution.shard_size = 0;
  auto report = RunJob(data, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stats.num_shards, 1u);
  EXPECT_GE(report->stats.final_merges, 1u);
  EXPECT_GT(report->stats.candidate_checks, 0u);
  EXPECT_LE(report->max_cluster_emd, kT);
  EXPECT_TRUE(report->t_verified);
}

// A sweep cell runs the in-memory job's path: under the spec's shard
// plan and merge strategy, every cell reports what RunJob reports for
// that (algorithm, k, t, seed), whether or not the repair pass merges.
TEST(RunJobTest, SweepCellsMatchTheInMemoryJob) {
  Dataset data = MakeUniformDataset(997, 2, 4);
  for (size_t shard_size : {size_t{0}, size_t{250}}) {
    JobSpec spec;
    spec.algorithm.seed = 3;
    spec.execution.threads = 3;
    spec.execution.shard_size = shard_size;
    spec.execution.merge_strategy = shard_size == 0
                                        ? MergeStrategy::kSequential
                                        : MergeStrategy::kHierarchical;
    JobSpec sweep_spec = spec;
    sweep_spec.sweep.emplace();
    sweep_spec.sweep->algorithms = {"tclose_first", "merge", "kanon_first"};
    sweep_spec.sweep->ks = {5};
    sweep_spec.sweep->ts = {0.05, 0.2};
    auto swept = RunJob(data, sweep_spec);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    ASSERT_EQ(swept->sweep.size(), 6u);
    for (const SweepOutcome& cell : swept->sweep) {
      const std::string label =
          cell.label + "/shard_size=" + std::to_string(shard_size);
      ASSERT_TRUE(cell.error_code.empty()) << label << ": " << cell.error;
      JobSpec cell_spec = spec;
      cell_spec.algorithm.name = cell.algorithm;
      cell_spec.algorithm.k = cell.k;
      cell_spec.algorithm.t = cell.t;
      auto job = RunJob(data, cell_spec);
      ASSERT_TRUE(job.ok()) << label << ": " << job.status().ToString();
      EXPECT_EQ(cell.clusters, job->clusters) << label;
      EXPECT_EQ(cell.min_cluster_size, job->min_cluster_size) << label;
      EXPECT_EQ(cell.max_cluster_size, job->max_cluster_size) << label;
      EXPECT_EQ(cell.max_cluster_emd, job->max_cluster_emd) << label;
      EXPECT_EQ(cell.normalized_sse, job->normalized_sse) << label;
      EXPECT_LE(cell.max_cluster_emd, cell.t) << label;
    }
  }
}

TEST(RunJobTest, StreamedReportCarriesWindows) {
  JobSpec spec;
  spec.input.kind = InputKind::kSynthetic;
  spec.input.generator = "uniform";
  spec.input.rows = 400;
  spec.input.quasi_identifiers = 2;
  spec.input.seed = 31;
  spec.algorithm.k = 4;
  spec.algorithm.t = 0.25;
  spec.execution.mode = ExecutionMode::kStreaming;
  spec.execution.max_resident_rows = 150;
  auto report = RunJob(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows, 400u);
  EXPECT_GE(report->num_windows, 2u);
  EXPECT_EQ(report->windows.size(), report->num_windows);
  EXPECT_LE(report->peak_resident_rows, 150u);
  EXPECT_FALSE(report->release.has_value());
  size_t window_rows = 0;
  for (const StreamingWindowSummary& window : report->windows) {
    window_rows += window.rows;
  }
  EXPECT_EQ(window_rows, 400u);

  JsonValue json = report->ToJson();
  EXPECT_EQ(json.Find("mode")->string_value(), "streaming");
  EXPECT_EQ(json.Find("windows")->size(), report->num_windows);
  EXPECT_NE(json.Find("execution")->Find("peak_resident_rows"), nullptr);
}

}  // namespace
}  // namespace tcm
