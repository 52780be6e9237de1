// Ablation A1 (ours): does the choice of the initial microaggregation
// heuristic inside Algorithm 1 matter? Compares MDAV against V-MDAV
// (variable-size) as the pre-merge partitioner on the MCD data set.
// DESIGN.md motivation: the paper fixes MDAV; V-MDAV's variable cluster
// sizes could in principle leave fewer mergers to do.

#include <cstdio>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "engine/registry.h"

int main() {
  tcm_bench::PrintHeader(
      "Ablation A1: Algorithm 1 with MDAV vs V-MDAV initial "
      "microaggregation, MCD, k=2");
  tcm::Dataset mcd = tcm::MakeMcdDataset();
  std::printf("%-6s %12s %12s %14s %14s %10s %10s\n", "t", "mdav_sse",
              "vmdav_sse", "mdav_avgsize", "vmdav_avgsize", "mdav_s",
              "vmdav_s");
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) ts = {0.05, 0.25};
  for (double t : ts) {
    double sse[2], avg[2], secs[2];
    for (int variant = 0; variant < 2; ++variant) {
      // merge_vmdav runs V-MDAV at its default gamma, 0.2.
      auto result =
          tcm::RunAlgorithm(mcd, variant == 0 ? "merge" : "merge_vmdav",
                            tcm::AlgorithmParams{.k = 2, .t = t});
      sse[variant] = result.ok() ? result->normalized_sse : -1;
      avg[variant] = result.ok() ? result->average_cluster_size : -1;
      secs[variant] = result.ok() ? result->elapsed_seconds : -1;
    }
    std::printf("%-6.2f %12.6f %12.6f %14.1f %14.1f %10.4f %10.4f\n", t,
                sse[0], sse[1], avg[0], avg[1], secs[0], secs[1]);
  }
  return 0;
}
