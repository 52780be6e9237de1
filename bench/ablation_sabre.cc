// Ablation A3 (ours): Algorithm 3's analytically minimal bucket count vs
// SABRE-style greedy (conservative) bucketization. The paper's related-
// work section argues SABRE "may yield more buckets than our algorithm
// [which] leads to equivalence classes with more records and, thus, to
// more information loss" — this bench quantifies that claim as a function
// of the greedy overshoot factor.

#include <cstdio>
#include <utility>

#include "baseline/sabre_like.h"
#include "bench/bench_util.h"
#include "data/generator.h"
#include "distance/emd.h"
#include "distance/qi_space.h"
#include "engine/registry.h"
#include "microagg/aggregate.h"
#include "tclose/tclose_first.h"
#include "utility/sse.h"

int main() {
  tcm_bench::PrintHeader(
      "Ablation A3: Algorithm 3 (analytic buckets) vs SABRE-like greedy "
      "bucketization, MCD, k=2");
  tcm::Dataset mcd = tcm::MakeMcdDataset();
  tcm::QiSpace space(mcd);
  tcm::EmdCalculator emd(mcd);

  std::printf("%-6s %10s %12s | %28s | %28s\n", "t", "alg3_kxx", "alg3_sse",
              "sabre x1.5 (buckets, sse)", "sabre x2.0 (buckets, sse)");
  std::vector<double> ts = tcm_bench::FigureTGrid();
  if (tcm_bench::FastMode()) ts = {0.05, 0.25};
  for (double t : ts) {
    // Called directly: k* is a TCloseFirstStats diagnostic, not part of
    // the registry's result.
    double alg3_sse = -1;
    size_t alg3_k = 0;
    tcm::TCloseFirstStats alg3_stats;
    auto alg3 = tcm::TCloseFirstTCloseness(space, emd, 2, t, &alg3_stats);
    if (alg3.ok()) {
      auto measured = tcm::MeasurePartition(mcd, std::move(alg3).value(),
                                            /*elapsed_seconds=*/0.0, &emd);
      if (measured.ok()) {
        alg3_sse = measured->normalized_sse;
        alg3_k = alg3_stats.effective_k;
      }
    }

    struct Cell {
      size_t buckets = 0;
      double sse = -1;
    } cells[2];
    const double factors[2] = {1.5, 2.0};
    for (int i = 0; i < 2; ++i) {
      tcm::SabreLikeOptions sabre_options;
      sabre_options.bucket_oversampling = factors[i];
      tcm::SabreLikeStats stats;
      auto partition =
          tcm::SabreLikePartition(space, emd, 2, t, sabre_options, &stats);
      if (!partition.ok()) continue;
      auto release = tcm::AggregatePartition(mcd, *partition);
      if (!release.ok()) continue;
      auto sse = tcm::NormalizedSse(mcd, *release);
      cells[i].buckets = stats.buckets;
      cells[i].sse = sse.ok() ? *sse : -1;
    }
    std::printf("%-6.2f %10zu %12.6f | %12zu %15.6f | %12zu %15.6f\n", t,
                alg3_k, alg3_sse, cells[0].buckets, cells[0].sse,
                cells[1].buckets, cells[1].sse);
  }
  return 0;
}
