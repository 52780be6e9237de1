// Figure 6 of the paper: normalized SSE (Eq. 5) of the three algorithms
// with k=2 as a function of t, for the HCD (top), MCD (middle) and
// Patient Discharge (bottom) data sets. Expected shape: SSE grows as t
// shrinks; Algorithm 2 improves on Algorithm 1 and Algorithm 3 improves
// on Algorithm 2, with Algorithm 3's margin largest on MCD and Patient
// Discharge and smallest on HCD (high QI<->confidential correlation makes
// cluster homogeneity clash with the forced confidential spread).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "data/generator.h"
#include "engine/registry.h"

namespace {

void RunPanel(const std::string& name, const tcm::Dataset& data) {
  std::printf("## %s (n=%zu)\n", name.c_str(), data.NumRecords());
  std::printf("%-6s %14s %14s %14s\n", "t", "alg1_merge", "alg2_kanon1st",
              "alg3_tclose1st");
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) ts = {0.05, 0.25};
  for (double t : ts) {
    double sse[3] = {0, 0, 0};
    const char* const algorithms[3] = {"merge", "kanon_first",
                                       "tclose_first"};
    for (int i = 0; i < 3; ++i) {
      auto result = tcm::RunAlgorithm(data, algorithms[i],
                                      tcm::AlgorithmParams{.k = 2, .t = t});
      sse[i] = result.ok() ? result->normalized_sse : -1.0;
    }
    std::printf("%-6.2f %14.6f %14.6f %14.6f\n", t, sse[0], sse[1], sse[2]);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  tcm_bench::PrintHeader(
      "Figure 6: normalized SSE vs t (k=2) for HCD, MCD and "
      "Patient-Discharge-like data");
  RunPanel("HCD (highly correlated)", tcm::MakeHcdDataset());
  RunPanel("MCD (moderately correlated)", tcm::MakeMcdDataset());
  tcm::PatientDischargeOptions gen;
  gen.num_records =
      tcm_bench::EnvSize("TCM_N", tcm_bench::FastMode() ? 800 : 4000);
  RunPanel("Patient-Discharge-like", tcm::MakePatientDischargeLike(gen));
  return 0;
}
