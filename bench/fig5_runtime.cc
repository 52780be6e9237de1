// Figure 5 of the paper: run time (seconds, log10 in the paper's plot) of
// the three algorithms on the Patient Discharge data set with k=2 as a
// function of t. Expected shape: Algorithm 2 is orders of magnitude slower
// (cubic swap refinement) and speeds up as t grows; Algorithms 1 and 3 are
// quadratic, with Algorithm 3 fastest at small t because Eq. (3) raises
// the effective cluster size and so lowers the cluster count.
//
// The paper uses n = 23,435. Algorithm 2's cubic cost makes the full size
// impractical for a default run, so the bench defaults to TCM_N = 4000
// synthetic records (same dimensionality and correlation); set TCM_N to
// reproduce at other scales. EXPERIMENTS.md records the sizes used.
//
// Seconds are RunAlgorithm's elapsed_seconds: QI space, confidential rank
// structure and partition; aggregating the release is not included.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "engine/registry.h"

int main() {
  const size_t n = tcm_bench::EnvSize("TCM_N", tcm_bench::FastMode() ? 800
                                                                     : 4000);
  tcm::PatientDischargeOptions gen;
  gen.num_records = n;
  tcm::Dataset data = tcm::MakePatientDischargeLike(gen);
  tcm_bench::PrintHeader(
      "Figure 5: run time (s) vs t, Patient-Discharge-like (n=" +
      std::to_string(n) + "), k=2");

  std::printf("%-6s %14s %14s %14s\n", "t", "alg1_merge", "alg2_kanon1st",
              "alg3_tclose1st");
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) ts = {0.05, 0.25};
  for (double t : ts) {
    double seconds[3] = {0, 0, 0};
    const char* const algorithms[3] = {"merge", "kanon_first",
                                       "tclose_first"};
    for (int i = 0; i < 3; ++i) {
      auto result = tcm::RunAlgorithm(data, algorithms[i],
                                      tcm::AlgorithmParams{.k = 2, .t = t});
      seconds[i] = result.ok() ? result->elapsed_seconds : -1.0;
    }
    std::printf("%-6.2f %14.4f %14.4f %14.4f\n", t, seconds[0], seconds[1],
                seconds[2]);
  }
  return 0;
}
