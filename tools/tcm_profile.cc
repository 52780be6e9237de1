// tcm_profile: inspect a data file before anonymizing it.
//
//   tcm_profile --input data.csv|data.tcmb [--qi A,B] [--confidential C]
//               [--histogram COLUMN] [--bins N]
//
// Reads the file with the same typed loader as `tcm_anonymize --audit`
// (tools/table_input.h: a .tcmb is mapped, a CSV column is numeric when
// every field parses as a number and nominal otherwise) and prints
// per-attribute summary statistics (a nominal column prints '-' for
// them and only counts its distinct labels) and, when roles are given,
// the QI <-> confidential multiple correlation (the quantity the paper
// uses to characterize its MCD/HCD/Patient-Discharge data sets; omitted
// when a column it involves is nominal) plus the
// Proposition 2 feasibility table: for each t level, the minimum cluster
// size Algorithm 3 would use. A role naming a column the file lacks
// exits 3.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "arg_parser.h"
#include "data/summary.h"
#include "distance/emd_bounds.h"
#include "exit_codes.h"
#include "table_input.h"

namespace {

constexpr char kUsage[] =
    "usage: tcm_profile --input FILE [--qi A,B,...]\n"
    "                   [--confidential C] [--histogram COL]\n"
    "                   [--bins N]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string input, histogram_col, confidential;
  std::vector<std::string> qi;
  size_t bins = 10;
  tcm::tools::ArgParser parser(kUsage);
  parser.AddString("--input", &input);
  parser.AddStringList("--qi", &qi);
  parser.AddString("--confidential", &confidential);
  parser.AddString("--histogram", &histogram_col);
  parser.AddSize("--bins", &bins);
  if (!parser.Parse(argc, argv)) return tcm::tools::kExitUsage;
  if (input.empty()) {
    std::fprintf(stderr, "--input is required\n%s", kUsage);
    return tcm::tools::kExitUsage;
  }

  auto loaded = tcm::tools::ReadTableWithRoles(input, qi, confidential);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(),
                 loaded.status().ToString().c_str());
    return tcm::tools::ExitCodeForStatus(loaded.status());
  }

  auto summary = tcm::SummarizeDataset(*loaded);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return tcm::tools::ExitCodeForStatus(summary.status());
  }
  std::printf("%s", tcm::FormatSummary(*summary).c_str());

  if (!qi.empty() && !confidential.empty()) {
    std::printf("\nAlgorithm 3 cluster size needed (Eq. 3 + Eq. 4), n=%zu:\n",
                loaded->NumRecords());
    std::printf("%-8s %s\n", "t", "cluster size");
    for (double t : {0.01, 0.05, 0.1, 0.15, 0.2, 0.25}) {
      size_t k_star = tcm::AdjustClusterSizeForRemainder(
          loaded->NumRecords(),
          tcm::RequiredClusterSize(loaded->NumRecords(), 1, t));
      std::printf("%-8.2f %zu\n", t, k_star);
    }
  }

  if (!histogram_col.empty()) {
    auto index = loaded->schema().IndexOf(histogram_col);
    if (!index.ok()) {
      std::fprintf(stderr, "--histogram: %s\n",
                   index.status().ToString().c_str());
      return tcm::tools::ExitCodeForStatus(index.status());
    }
    auto histogram = tcm::ColumnHistogram(*loaded, *index, bins);
    if (!histogram.ok()) {
      std::fprintf(stderr, "%s\n", histogram.status().ToString().c_str());
      return tcm::tools::ExitCodeForStatus(histogram.status());
    }
    std::printf("\nhistogram of %s (%zu bins):\n", histogram_col.c_str(),
                bins);
    size_t peak = 1;
    for (size_t count : *histogram) peak = std::max(peak, count);
    for (size_t b = 0; b < histogram->size(); ++b) {
      size_t width = (*histogram)[b] * 50 / peak;
      std::printf("%3zu | %-50s %zu\n", b,
                  std::string(width, '#').c_str(), (*histogram)[b]);
    }
  }
  return tcm::tools::kExitOk;
}
