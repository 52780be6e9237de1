// Ablation A5 (ours): the paper's Section 4 argument quantified — the
// microaggregation algorithms against the generalization-style
// comparators (global recoding a la Incognito, Mondrian with the
// t-closeness constraint) at equal (k, t). Expected shape: recoding pays
// the granularity loss the paper describes (largest SSE); Mondrian sits
// between recoding and the microaggregation algorithms; Algorithm 3 wins.

#include <cstdio>

#include "baseline/mondrian.h"
#include "baseline/recoding.h"
#include "bench/bench_util.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "privacy/interval_disclosure.h"
#include "utility/sse.h"

namespace {

struct Row {
  const char* name;
  double sse = -1;
  double disclosure = -1;
};

void Measure(const tcm::Dataset& original, const tcm::Dataset& release,
             Row* row) {
  auto sse = tcm::NormalizedSse(original, release);
  if (sse.ok()) row->sse = *sse;
  auto interval = tcm::EvaluateIntervalDisclosure(original, release, 0.01);
  if (interval.ok()) row->disclosure = interval->disclosure_rate;
}

}  // namespace

int main() {
  tcm_bench::PrintHeader(
      "Ablation A5: microaggregation vs generalization baselines, MCD, "
      "k=3, SSE + 1%-rank interval disclosure");
  tcm::Dataset mcd = tcm::MakeMcdDataset();
  tcm::QiSpace space(mcd);
  tcm::EmdCalculator emd(mcd);
  constexpr size_t kK = 3;

  std::vector<double> ts = {0.05, 0.13, 0.25};
  if (tcm_bench::FastMode()) ts = {0.13};
  std::printf("%-6s %-26s %12s %12s\n", "t", "method", "sse", "disclosure");
  for (double t : ts) {
    std::vector<Row> rows;

    const struct {
      const char* algorithm;
      const char* label;
    } paper_algorithms[] = {{"merge", "microaggregation+merge"},
                            {"kanon_first", "k-anonymity-first"},
                            {"tclose_first", "t-closeness-first"}};
    for (const auto& [algorithm, label] : paper_algorithms) {
      auto result = tcm::RunAlgorithm(mcd, algorithm,
                                      tcm::AlgorithmParams{.k = kK, .t = t});
      Row row{label};
      if (result.ok()) Measure(mcd, result->anonymized, &row);
      rows.push_back(row);
    }

    {
      Row row{"Mondrian (t-close)"};
      auto partition = tcm::MondrianTClosePartition(space, emd, kK, t);
      if (partition.ok()) {
        auto release = tcm::AggregatePartition(mcd, *partition);
        if (release.ok()) Measure(mcd, *release, &row);
      }
      rows.push_back(row);
    }

    {
      Row row{"global recoding"};
      tcm::RecodingOptions options;
      options.t = t;
      auto result = tcm::GlobalRecodingAnonymize(mcd, kK, options);
      if (result.ok()) Measure(mcd, result->anonymized, &row);
      rows.push_back(row);
    }

    for (const Row& row : rows) {
      std::printf("%-6.2f %-26s %12.6f %12.4f\n", t, row.name, row.sse,
                  row.disclosure);
    }
    std::printf("\n");
  }
  return 0;
}
