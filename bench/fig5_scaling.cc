// Companion to Figure 5: run time vs data set SIZE (t fixed) for the
// three algorithms plus chunked microaggregation, verifying the paper's
// complexity claims empirically — O(n^2/k) for Algorithms 1 and 3,
// O(n^3/k) worst case for Algorithm 2, ~O(n * chunk) for the chunked
// variant. Expected shape: doubling n roughly quadruples Alg 1/3 time
// and octuples Alg 2's at strict t, while chunked stays near-linear.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "data/generator.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/chunked.h"

int main() {
  tcm_bench::PrintHeader(
      "Figure 5 companion: run time (s) vs n, patient-discharge-like, "
      "k=2, t=0.05");
  std::printf("%-8s %12s %12s %12s %12s\n", "n", "alg1", "alg2", "alg3",
              "chunked512");
  std::vector<size_t> sizes = {1000, 2000, 4000, 8000};
  if (tcm_bench::FastMode()) sizes = {500, 1000};
  for (size_t n : sizes) {
    tcm::PatientDischargeOptions gen;
    gen.num_records = n;
    tcm::Dataset data = tcm::MakePatientDischargeLike(gen);

    double seconds[4] = {0, 0, 0, 0};
    const char* const algorithms[3] = {"merge", "kanon_first",
                                       "tclose_first"};
    for (int i = 0; i < 3; ++i) {
      auto result = tcm::RunAlgorithm(
          data, algorithms[i], tcm::AlgorithmParams{.k = 2, .t = 0.05});
      seconds[i] = result.ok() ? result->elapsed_seconds : -1;
    }
    {
      tcm::QiSpace space(data);
      tcm::WallTimer timer;
      tcm::ChunkedOptions options;
      options.chunk_size = 512;
      auto partition = tcm::ChunkedMicroaggregation(space, 2, options);
      seconds[3] = partition.ok() ? timer.ElapsedSeconds() : -1;
    }
    std::printf("%-8zu %12.4f %12.4f %12.4f %12.4f\n", n, seconds[0],
                seconds[1], seconds[2], seconds[3]);
  }
  return 0;
}
