// tcm_lint — the repo's domain lint: statically validates the tree's own
// machine-readable artifacts the way clang-tidy validates its C++. Four
// invariant families, all cheap enough to gate every merge:
//
//   1. JobSpec artifacts. Every job*.json under tests/golden/ and
//      examples/, every --spec file named explicitly, and every JobSpec-
//      shaped JSON snippet embedded in docs/sources (fenced ```json
//      blocks and C++ raw strings) must parse and pass the strict
//      JobSpec::FromJson validation — the same gate the daemon applies
//      to wire submissions. A golden or README snippet that drifted from
//      the schema fails the build here instead of confusing a user.
//
//   2. Exit-code contract. The README "Exit codes" table must agree,
//      code by code, with tools/exit_codes.h (this binary includes the
//      header, so the constants cannot drift from the check). Likewise
//      the README "HTTP serving" status table must agree row-by-row
//      with HttpStatusForCode (serve/http.h) and document every route.
//
//   3. Version pins. JobSpec::kVersion, RunReport::kVersion,
//      kServeProtocolVersion, kStatsSchemaVersion and kTcmbFormatVersion
//      must be consistent everywhere they are spelled: golden documents'
//      "version" keys, the README schema heading, every `"protocol":N` /
//      `"stats_schema":N` in docs and protocol sources, and the README
//      ".tcmb, version N" binary-format pin.
//
//   4. No test-only code. Every src/**/*.h must be reachable through
//      quoted #include chains from a program: tools/, bench/, examples/
//      or perfbench/ (a reached X.h also reaches its X.cc). A header only
//      tests include is dead library code and fails, named by path.
//
// Exit codes follow the shared contract (tools/exit_codes.h): 0 clean,
// 2 usage error, 3 (InvalidSpec) for any failed artifact or consistency
// check, 5 (IoError) for an unreadable named file. Pinned by the
// tools.lint_* ctest suite.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/job.h"
#include "api/report.h"
#include "arg_parser.h"
#include "colstore/tcmb.h"
#include "common/json.h"
#include "common/result.h"
#include "exit_codes.h"
#include "serve/http.h"
#include "serve/protocol.h"

namespace tcm {
namespace tools {
namespace {

constexpr const char* kUsage = R"(usage: tcm_lint [options]

Validates the repository's own JobSpec/golden/doc artifacts and, when
the root has a src/, that every src/ header is reachable from a program
(tools/, bench/, examples/, perfbench/) rather than only from tests/.

  --root DIR     repository root to lint (default: current directory)
  --spec FILE    validate FILE as a strict JobSpec document; repeatable
                 via a comma-separated list; skips the tree-wide checks
  --quiet        print nothing on success
)";

struct LintReport {
  int checks = 0;
  int failures = 0;
  bool io_error = false;
  bool quiet = false;

  void Pass(const std::string& what) {
    ++checks;
    if (!quiet) std::printf("ok: %s\n", what.c_str());
  }
  void Fail(const std::string& what, const std::string& why) {
    ++checks;
    ++failures;
    std::fprintf(stderr, "FAIL: %s: %s\n", what.c_str(), why.c_str());
  }
  void IoFail(const std::string& what, const std::string& why) {
    Fail(what, why);
    io_error = true;
  }
};

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ------------------------------------------------------------ JobSpec files

void CheckSpecFile(const std::string& path, LintReport* report) {
  auto text = ReadFile(path);
  if (!text) {
    report->IoFail(path, "cannot read file");
    return;
  }
  auto spec = JobSpec::FromJsonText(*text);
  if (!spec.ok()) {
    report->Fail(path, spec.status().message());
    return;
  }
  report->Pass(path + " (strict JobSpec)");
}

// report*.json goldens are RunReport documents, not JobSpecs; the lint
// pins their schema version and checks they are valid JSON objects.
void CheckReportFile(const std::string& path, LintReport* report) {
  auto text = ReadFile(path);
  if (!text) {
    report->IoFail(path, "cannot read file");
    return;
  }
  auto json = ParseJson(*text);
  if (!json.ok()) {
    report->Fail(path, json.status().message());
    return;
  }
  if (!json->is_object()) {
    report->Fail(path, "report document is not a JSON object");
    return;
  }
  const JsonValue* version = json->Find("version");
  if (version == nullptr) {
    report->Fail(path, "report golden has no \"version\" key");
    return;
  }
  auto value = version->GetUint();
  if (!value.ok() ||
      *value != static_cast<uint64_t>(RunReport::kVersion)) {
    report->Fail(path, "report \"version\" is not RunReport::kVersion (" +
                           std::to_string(RunReport::kVersion) + ")");
    return;
  }
  report->Pass(path + " (report version pin)");
}

void CheckArtifactDirectory(const std::string& dir, LintReport* report) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;  // absent directory is fine (examples/ has no JSON yet)
  bool saw_any = false;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic output order
  for (const auto& path : paths) {
    const std::string name = path.filename().string();
    saw_any = true;
    if (name.rfind("job", 0) == 0) {
      CheckSpecFile(path.string(), report);
    } else if (name.rfind("report", 0) == 0) {
      CheckReportFile(path.string(), report);
    }
  }
  if (!saw_any && !report->quiet) {
    std::printf("note: no JSON artifacts under %s\n", dir.c_str());
  }
}

// ------------------------------------------------------------ doc snippets

// Extracts candidate JSON object texts embedded in a file: C++ raw
// strings R"( ... )" and fenced ```json blocks. Returns the inner texts.
std::vector<std::string> ExtractEmbeddedJson(const std::string& text) {
  std::vector<std::string> out;
  // R"( ... )" — the repo convention for inline spec documents.
  for (size_t pos = text.find("R\"("); pos != std::string::npos;
       pos = text.find("R\"(", pos)) {
    pos += 3;
    size_t end = text.find(")\"", pos);
    if (end == std::string::npos) break;
    out.push_back(text.substr(pos, end - pos));
    pos = end + 2;
  }
  // ```json fenced blocks in markdown.
  for (size_t pos = text.find("```json"); pos != std::string::npos;
       pos = text.find("```json", pos)) {
    pos = text.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
    size_t end = text.find("```", pos);
    if (end == std::string::npos) break;
    out.push_back(text.substr(pos, end - pos));
    pos = end + 3;
  }
  return out;
}

// A snippet is treated as a JobSpec when it parses as a JSON object
// carrying any of the spec's section keys. Snippets that do not parse at
// all are skipped — docs legitimately show elided documents ({...}).
bool LooksLikeJobSpec(const JsonValue& json) {
  if (!json.is_object()) return false;
  for (const char* key : {"input", "algorithm", "roles", "sweep"}) {
    if (json.Find(key) != nullptr) return true;
  }
  return false;
}

void CheckDocSnippets(const std::string& path, LintReport* report) {
  auto text = ReadFile(path);
  if (!text) {
    report->IoFail(path, "cannot read file");
    return;
  }
  int index = 0;
  for (const std::string& snippet : ExtractEmbeddedJson(*text)) {
    auto json = ParseJson(snippet);
    if (!json.ok() || !LooksLikeJobSpec(*json)) continue;
    ++index;
    const std::string what =
        path + " embedded spec #" + std::to_string(index);
    auto spec = JobSpec::FromJson(*json);
    if (!spec.ok()) {
      report->Fail(what, spec.status().message());
    } else {
      report->Pass(what);
    }
  }
}

// ------------------------------------------------------------- exit codes

// One expected README table row per constant in tools/exit_codes.h: the
// code number must appear as a `| N |` row whose text mentions the
// token. Included straight from the header, so renumbering a constant
// without updating the docs fails here.
struct ExpectedExitCode {
  int code;
  const char* token;
};

constexpr ExpectedExitCode kExpectedExitCodes[] = {
    {kExitOk, "success"},
    {kExitFailure, "failure"},
    {kExitUsage, "usage"},
    {kExitInvalidSpec, "InvalidSpec"},
    {kExitUnknownAlgorithm, "UnknownAlgorithm"},
    {kExitIoError, "IoError"},
    {kExitPrivacyViolation, "PrivacyViolation"},
};

void CheckExitCodeTable(const std::string& readme_path,
                        LintReport* report) {
  auto text = ReadFile(readme_path);
  if (!text) {
    report->IoFail(readme_path, "cannot read file");
    return;
  }
  size_t section = text->find("### Exit codes");
  if (section == std::string::npos) {
    report->Fail(readme_path, "no \"### Exit codes\" section");
    return;
  }
  size_t section_end = text->find("\n## ", section);
  const std::string body =
      text->substr(section, section_end == std::string::npos
                                ? std::string::npos
                                : section_end - section);

  // Collect `| N | description |` rows.
  std::vector<std::pair<int, std::string>> rows;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| ", 0) != 0) continue;
    size_t bar = line.find('|', 2);
    if (bar == std::string::npos) continue;
    const std::string first = line.substr(1, bar - 1);
    char* end = nullptr;
    long code = std::strtol(first.c_str(), &end, 10);
    if (end == first.c_str()) continue;  // header/separator row
    while (end && *end == ' ') ++end;
    if (end && *end != '\0') continue;  // not a bare number cell
    rows.emplace_back(static_cast<int>(code), line.substr(bar + 1));
  }

  bool ok = true;
  for (const ExpectedExitCode& expected : kExpectedExitCodes) {
    int matches = 0;
    bool token_found = false;
    for (const auto& [code, description] : rows) {
      if (code != expected.code) continue;
      ++matches;
      if (description.find(expected.token) != std::string::npos) {
        token_found = true;
      }
    }
    if (matches != 1 || !token_found) {
      report->Fail(readme_path,
                   "exit-code table: code " +
                       std::to_string(expected.code) +
                       " must appear exactly once and mention \"" +
                       expected.token + "\"");
      ok = false;
    }
  }
  const size_t expected_count =
      sizeof(kExpectedExitCodes) / sizeof(kExpectedExitCodes[0]);
  if (rows.size() != expected_count) {
    report->Fail(readme_path,
                 "exit-code table has " + std::to_string(rows.size()) +
                     " numeric rows; tools/exit_codes.h defines " +
                     std::to_string(expected_count));
    ok = false;
  }
  if (ok) report->Pass(readme_path + " (exit-code table)");
}

// The README "HTTP serving" section must carry the taxonomy-to-status
// mapping exactly as HttpStatusForCode implements it (this binary
// includes serve/http.h, so the function cannot drift from the check),
// plus every route the front serves.
void CheckHttpStatusTable(const std::string& readme_path,
                          LintReport* report) {
  auto text = ReadFile(readme_path);
  if (!text) {
    report->IoFail(readme_path, "cannot read file");
    return;
  }
  size_t section = text->find("### HTTP serving");
  if (section == std::string::npos) {
    report->Fail(readme_path, "no \"### HTTP serving\" section");
    return;
  }
  size_t section_end = text->find("\n## ", section);
  const std::string body =
      text->substr(section, section_end == std::string::npos
                                ? std::string::npos
                                : section_end - section);

  // Collect "| `CodeName` | NNN |" rows (route-table rows have a
  // non-numeric second cell and fall through).
  std::vector<std::pair<std::string, int>> rows;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    size_t name_end = line.find('`', 3);
    if (name_end == std::string::npos) continue;
    size_t bar = line.find('|', name_end);
    if (bar == std::string::npos) continue;
    const std::string cell = line.substr(bar + 1);
    char* end = nullptr;
    long status = std::strtol(cell.c_str(), &end, 10);
    if (end == cell.c_str()) continue;
    while (end && (*end == ' ' || *end == '|')) ++end;
    if (end && *end != '\0') continue;  // not a bare "| NNN |" cell
    rows.emplace_back(line.substr(3, name_end - 3),
                      static_cast<int>(status));
  }

  constexpr StatusCode kTaxonomy[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,   StatusCode::kInternal,
      StatusCode::kIoError,      StatusCode::kUnimplemented,
      StatusCode::kInvalidSpec,  StatusCode::kUnknownAlgorithm,
      StatusCode::kPrivacyViolation};
  bool ok = true;
  for (StatusCode code : kTaxonomy) {
    const std::string name = StatusCodeName(code);
    const int expected = HttpStatusForCode(code);
    int matches = 0;
    bool value_ok = false;
    for (const auto& [row_name, row_status] : rows) {
      if (row_name != name) continue;
      ++matches;
      value_ok = row_status == expected;
    }
    if (matches != 1 || !value_ok) {
      report->Fail(readme_path,
                   "HTTP status table: `" + name +
                       "` must appear exactly once mapping to " +
                       std::to_string(expected));
      ok = false;
    }
  }
  const size_t taxonomy_count = sizeof(kTaxonomy) / sizeof(kTaxonomy[0]);
  if (rows.size() != taxonomy_count) {
    report->Fail(readme_path,
                 "HTTP status table has " + std::to_string(rows.size()) +
                     " code rows; HttpStatusForCode maps " +
                     std::to_string(taxonomy_count));
    ok = false;
  }
  for (const char* route :
       {"POST /jobs", "GET /jobs/N", "DELETE /jobs/N", "GET /healthz",
        "GET /metricsz"}) {
    if (body.find(route) == std::string::npos) {
      report->Fail(readme_path, std::string("HTTP serving section does "
                                            "not document the route \"") +
                                    route + "\"");
      ok = false;
    }
  }
  if (ok) report->Pass(readme_path + " (HTTP status table + routes)");
}

// ------------------------------------------------------------ version pins

void CheckProtocolVersionPins(const std::string& path,
                              LintReport* report) {
  auto text = ReadFile(path);
  if (!text) {
    report->IoFail(path, "cannot read file");
    return;
  }
  bool ok = true;
  int occurrences = 0;
  for (size_t pos = text->find("\"protocol\":"); pos != std::string::npos;
       pos = text->find("\"protocol\":", pos + 1)) {
    size_t value = pos + 11;
    while (value < text->size() && (*text)[value] == ' ') ++value;
    char* end = nullptr;
    long version = std::strtol(text->c_str() + value, &end, 10);
    if (end == text->c_str() + value) continue;  // not a literal number
    ++occurrences;
    if (version != kServeProtocolVersion) {
      report->Fail(path, "\"protocol\":" + std::to_string(version) +
                             " disagrees with kServeProtocolVersion (" +
                             std::to_string(kServeProtocolVersion) + ")");
      ok = false;
    }
  }
  if (ok) {
    report->Pass(path + " (protocol version, " +
                 std::to_string(occurrences) + " pins)");
  }
}

// Same discipline for the stats event's payload version: every literal
// `"stats_schema":N` in docs and protocol sources must spell
// kStatsSchemaVersion.
void CheckStatsSchemaPins(const std::string& path, LintReport* report) {
  auto text = ReadFile(path);
  if (!text) {
    report->IoFail(path, "cannot read file");
    return;
  }
  const std::string needle = "\"stats_schema\":";
  bool ok = true;
  int occurrences = 0;
  for (size_t pos = text->find(needle); pos != std::string::npos;
       pos = text->find(needle, pos + 1)) {
    size_t value = pos + needle.size();
    while (value < text->size() && (*text)[value] == ' ') ++value;
    char* end = nullptr;
    long version = std::strtol(text->c_str() + value, &end, 10);
    if (end == text->c_str() + value) continue;  // not a literal number
    ++occurrences;
    if (version != kStatsSchemaVersion) {
      report->Fail(path, "\"stats_schema\":" + std::to_string(version) +
                             " disagrees with kStatsSchemaVersion (" +
                             std::to_string(kStatsSchemaVersion) + ")");
      ok = false;
    }
  }
  if (ok) {
    report->Pass(path + " (stats schema, " + std::to_string(occurrences) +
                 " pins)");
  }
}

void CheckReadmeSchemaVersion(const std::string& readme_path,
                              LintReport* report) {
  auto text = ReadFile(readme_path);
  if (!text) {
    report->IoFail(readme_path, "cannot read file");
    return;
  }
  const std::string needle = "schema (version ";
  size_t pos = text->find(needle);
  if (pos == std::string::npos) {
    report->Fail(readme_path, "no \"job.json schema (version N)\" heading");
    return;
  }
  long version =
      std::strtol(text->c_str() + pos + needle.size(), nullptr, 10);
  if (version != JobSpec::kVersion) {
    report->Fail(readme_path,
                 "schema heading says version " + std::to_string(version) +
                     "; JobSpec::kVersion is " +
                     std::to_string(JobSpec::kVersion));
    return;
  }
  report->Pass(readme_path + " (job.json schema version heading)");
}

// The README "Binary dataset format" section pins the on-disk version it
// documents as ".tcmb, version N"; every such mention must spell
// kTcmbFormatVersion, so bumping the format without rewriting the layout
// docs fails the lint.
void CheckTcmbFormatVersion(const std::string& readme_path,
                            LintReport* report) {
  auto text = ReadFile(readme_path);
  if (!text) {
    report->IoFail(readme_path, "cannot read file");
    return;
  }
  const std::string needle = ".tcmb, version ";
  bool ok = true;
  int occurrences = 0;
  for (size_t pos = text->find(needle); pos != std::string::npos;
       pos = text->find(needle, pos + 1)) {
    size_t value = pos + needle.size();
    char* end = nullptr;
    long version = std::strtol(text->c_str() + value, &end, 10);
    if (end == text->c_str() + value) continue;  // not a literal number
    ++occurrences;
    if (version != static_cast<long>(kTcmbFormatVersion)) {
      report->Fail(readme_path,
                   "\".tcmb, version " + std::to_string(version) +
                       "\" disagrees with kTcmbFormatVersion (" +
                       std::to_string(kTcmbFormatVersion) + ")");
      ok = false;
    }
  }
  if (occurrences == 0) {
    report->Fail(readme_path,
                 "no \".tcmb, version N\" pin (Binary dataset format "
                 "section)");
    return;
  }
  if (ok) {
    report->Pass(readme_path + " (.tcmb format version, " +
                 std::to_string(occurrences) + " pins)");
  }
}

// ---------------------------------------------------------- test-only code

// The quoted #include targets of one source file, in order.
std::vector<std::string> QuotedIncludes(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos || line[pos] != '#') continue;
    pos = line.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos || line.compare(pos, 7, "include") != 0) {
      continue;
    }
    size_t open = line.find('"', pos + 7);
    if (open == std::string::npos) continue;  // <system> include
    size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back(line.substr(open + 1, close - open - 1));
  }
  return out;
}

// Resolves an include the way the build does: next to the including
// file, then from the repository root ("bench/bench_util.h"), then from
// src/ (the library's include root). Empty when nothing matches.
std::filesystem::path ResolveInclude(const std::filesystem::path& base,
                                     const std::filesystem::path& from,
                                     const std::string& target) {
  for (const std::filesystem::path& dir :
       {from.parent_path(), base, base / "src"}) {
    std::error_code ec;
    std::filesystem::path candidate = dir / target;
    if (std::filesystem::is_regular_file(candidate, ec)) {
      return std::filesystem::weakly_canonical(candidate, ec);
    }
  }
  return {};
}

bool IsSourceFile(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

void CheckNoTestOnlyHeaders(const std::filesystem::path& root,
                            LintReport* report) {
  std::error_code ec;
  const std::filesystem::path base =
      std::filesystem::weakly_canonical(root, ec);
  const std::filesystem::path src = base / "src";

  // Breadth-first over the include graph from every program source.
  std::set<std::filesystem::path> reached;
  std::vector<std::filesystem::path> frontier;
  auto reach = [&](const std::filesystem::path& path) {
    if (reached.insert(path).second) frontier.push_back(path);
  };
  for (const char* dir : {"tools", "bench", "examples", "perfbench"}) {
    std::filesystem::recursive_directory_iterator it(base / dir, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        reach(std::filesystem::weakly_canonical(it->path(), ec));
      }
    }
    ec.clear();
  }
  while (!frontier.empty()) {
    const std::filesystem::path file = frontier.back();
    frontier.pop_back();
    if (file.extension() == ".h") {
      std::filesystem::path impl = file;
      impl.replace_extension(".cc");
      if (std::filesystem::is_regular_file(impl, ec)) reach(impl);
    }
    auto text = ReadFile(file.string());
    if (!text) continue;
    for (const std::string& target : QuotedIncludes(*text)) {
      std::filesystem::path resolved = ResolveInclude(base, file, target);
      if (!resolved.empty()) reach(resolved);
    }
  }

  std::vector<std::string> orphans;
  size_t headers = 0;
  std::filesystem::recursive_directory_iterator it(src, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file() || it->path().extension() != ".h") continue;
    ++headers;
    if (reached.count(std::filesystem::weakly_canonical(it->path(), ec)) ==
        0) {
      orphans.push_back(
          std::filesystem::relative(it->path(), base).generic_string());
    }
  }
  std::sort(orphans.begin(), orphans.end());  // deterministic order
  for (const std::string& orphan : orphans) {
    report->Fail(orphan,
                 "no #include chain from tools/, bench/, examples/ or "
                 "perfbench/ reaches this header (test-only code)");
  }
  if (orphans.empty()) {
    report->Pass("src/ headers reachable from programs (" +
                 std::to_string(headers) + " headers)");
  }
}

// ----------------------------------------------------------------- driver

int Run(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> spec_files;
  bool quiet = false;
  ArgParser parser(kUsage);
  parser.AddString("--root", &root);
  parser.AddStringList("--spec", &spec_files);
  parser.AddFlag("--quiet", &quiet);
  if (!parser.Parse(argc, argv)) return kExitUsage;

  LintReport report;
  report.quiet = quiet;

  if (!spec_files.empty()) {
    for (const std::string& file : spec_files) {
      CheckSpecFile(file, &report);
    }
  } else {
    const std::filesystem::path base(root);
    if (!std::filesystem::exists(base)) {
      std::fprintf(stderr, "FAIL: root %s does not exist\n", root.c_str());
      return kExitIoError;
    }
    CheckArtifactDirectory((base / "tests" / "golden").string(), &report);
    CheckArtifactDirectory((base / "examples").string(), &report);
    const std::string readme = (base / "README.md").string();
    CheckDocSnippets(readme, &report);
    CheckExitCodeTable(readme, &report);
    CheckHttpStatusTable(readme, &report);
    CheckReadmeSchemaVersion(readme, &report);
    CheckTcmbFormatVersion(readme, &report);
    CheckProtocolVersionPins(readme, &report);
    CheckStatsSchemaPins(readme, &report);
    const std::string protocol_header =
        (base / "src" / "serve" / "protocol.h").string();
    if (std::filesystem::exists(protocol_header)) {
      CheckDocSnippets(protocol_header, &report);
      CheckProtocolVersionPins(protocol_header, &report);
      CheckStatsSchemaPins(protocol_header, &report);
    }
    if (std::filesystem::is_directory(base / "src")) {
      CheckNoTestOnlyHeaders(base, &report);
    }
  }

  if (!quiet || report.failures > 0) {
    std::fprintf(report.failures ? stderr : stdout,
                 "tcm_lint: %d checks, %d failures\n", report.checks,
                 report.failures);
  }
  if (report.io_error) return kExitIoError;
  return report.failures == 0 ? kExitOk : kExitInvalidSpec;
}

}  // namespace
}  // namespace tools
}  // namespace tcm

int main(int argc, char** argv) { return tcm::tools::Run(argc, argv); }
