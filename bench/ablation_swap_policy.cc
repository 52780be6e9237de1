// Ablation A2 (ours): how much of Algorithm 2's utility advantage over
// Algorithm 1 comes from the swap refinement inside GenerateCluster?
// Disabling swaps degenerates Algorithm 2 to MDAV-style clustering with
// the merge fallback doing all the t-closeness work. Reported on both
// census-like data sets; the gap should widen as t shrinks and be larger
// on HCD (correlated clusters need more rearrangement).

#include <cstdio>
#include <utility>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "tclose/kanon_first.h"

namespace {

void RunPanel(const char* name, const tcm::Dataset& data) {
  std::printf("## %s\n", name);
  tcm::QiSpace space(data);
  tcm::EmdCalculator emd(data);
  std::printf("%-6s %12s %12s %10s %10s %10s %10s\n", "t", "swaps_sse",
              "noswap_sse", "swaps_avg", "noswap_avg", "nswaps", "nmerges");
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) ts = {0.05, 0.25};
  for (double t : ts) {
    double sse[2] = {-1, -1}, avg[2] = {-1, -1};
    size_t swaps = 0, merges_noswap = 0;
    for (int variant = 0; variant < 2; ++variant) {
      // Called directly: the swap switch and the swap/merge tallies are
      // not registry parameters.
      tcm::KAnonFirstOptions options;
      options.enable_swaps = (variant == 0);
      tcm::KAnonFirstStats stats;
      auto partition =
          tcm::KAnonFirstTCloseness(space, emd, 3, t, options, &stats);
      if (!partition.ok()) continue;
      auto result = tcm::MeasurePartition(data, std::move(partition).value(),
                                          /*elapsed_seconds=*/0.0, &emd);
      if (!result.ok()) continue;
      sse[variant] = result->normalized_sse;
      avg[variant] = result->average_cluster_size;
      if (variant == 0) swaps = stats.swaps;
      if (variant == 1) merges_noswap = stats.merges;
    }
    std::printf("%-6.2f %12.6f %12.6f %10.1f %10.1f %10zu %10zu\n", t,
                sse[0], sse[1], avg[0], avg[1], swaps, merges_noswap);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  tcm_bench::PrintHeader(
      "Ablation A2: Algorithm 2 swap refinement on vs off (k=3)");
  RunPanel("MCD", tcm::MakeMcdDataset());
  RunPanel("HCD", tcm::MakeHcdDataset());
  return 0;
}
