#ifndef TCM_BENCH_TABLE_SIZES_COMMON_H_
#define TCM_BENCH_TABLE_SIZES_COMMON_H_

// Shared driver for Tables 1-3: for every (k, t) cell of the paper's grid
// and both census-like data sets, runs one registry algorithm and
// prints the achieved microaggregation level as "min/avg" cluster sizes,
// matching the tables' cell format.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "engine/registry.h"

namespace tcm_bench {

inline void RunSizesTable(const std::string& title,
                          const std::string& algorithm) {
  PrintHeader(title);
  tcm::Dataset mcd = tcm::MakeMcdDataset();
  tcm::Dataset hcd = tcm::MakeHcdDataset();

  std::vector<size_t> ks = PaperKGrid();
  std::vector<double> ts = PaperTGrid();
  if (FastMode()) {
    ks = {2, 10, 30};
    ts = {0.05, 0.25};
  }

  std::printf("%-6s", "k");
  for (double t : ts) std::printf(" | t=%-4.2f MCD   t=%-4.2f HCD  ", t, t);
  std::printf("\n");
  for (size_t k : ks) {
    std::printf("k=%-4zu", k);
    for (double t : ts) {
      std::string cells[2];
      const tcm::Dataset* sets[2] = {&mcd, &hcd};
      for (int which = 0; which < 2; ++which) {
        auto result = tcm::RunAlgorithm(*sets[which], algorithm,
                                        tcm::AlgorithmParams{.k = k, .t = t});
        if (!result.ok()) {
          cells[which] = "error";
          continue;
        }
        char buffer[48];
        std::snprintf(buffer, sizeof(buffer), "%zu/%.0f",
                      result->min_cluster_size,
                      result->average_cluster_size);
        cells[which] = buffer;
      }
      std::printf(" | %-11s %-11s", cells[0].c_str(), cells[1].c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace tcm_bench

#endif  // TCM_BENCH_TABLE_SIZES_COMMON_H_
