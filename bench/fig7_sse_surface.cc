// Figure 7 of the paper: normalized SSE of the three algorithms on the
// MCD data set as a function of BOTH k (2..30) and t (0.02..0.25) — the
// paper shows three surfaces. Printed here as one table per algorithm.
// Expected shape: SSE rises with k for Algorithm 3 (its effective cluster
// size is max{k, k*}); Algorithms 1-2 show spikes at k values that do not
// divide n=1080 (leftover records degrade cluster homogeneity) while
// Algorithm 3 is immune to them.

#include <cstdio>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "engine/registry.h"

namespace {

void RunSurface(const char* name, const char* algorithm,
                const tcm::Dataset& data) {
  std::printf("## %s\n", name);
  std::vector<size_t> ks = {2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24,
                            26, 28, 30};
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) {
    ks = {2, 10, 30};
    ts = {0.05, 0.25};
  }
  std::printf("%-6s", "k\\t");
  for (double t : ts) std::printf(" %9.2f", t);
  std::printf("\n");
  for (size_t k : ks) {
    std::printf("%-6zu", k);
    for (double t : ts) {
      auto result = tcm::RunAlgorithm(data, algorithm,
                                      tcm::AlgorithmParams{.k = k, .t = t});
      std::printf(" %9.6f", result.ok() ? result->normalized_sse : -1.0);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  tcm_bench::PrintHeader(
      "Figure 7: normalized SSE vs (k, t), MCD data set, three algorithms");
  tcm::Dataset mcd = tcm::MakeMcdDataset();
  RunSurface("Algorithm 1 (microaggregation + merging)",
             "merge", mcd);
  RunSurface("Algorithm 2 (k-anonymity-first)",
             "kanon_first", mcd);
  RunSurface("Algorithm 3 (t-closeness-first)",
             "tclose_first", mcd);
  return 0;
}
