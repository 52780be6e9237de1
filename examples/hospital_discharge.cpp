// Hospital discharge scenario: the paper's scalability data set (7
// quasi-identifiers, one charge attribute, very weak QI<->confidential
// dependence). Demonstrates anonymizing a larger release through the Job
// API — sharded across a thread pool — and evaluating statistical
// fidelity: preserved means/variances/correlations and the accuracy of
// random subdomain (range) COUNT queries.
//
//   ./build/examples/hospital_discharge [num_records]

#include <cstdio>
#include <cstdlib>

#include "data/generator.h"
#include "data/stats.h"
#include "tcm/api.h"
#include "utility/info_loss.h"
#include "utility/query.h"

int main(int argc, char** argv) {
  tcm::PatientDischargeOptions gen_options;
  gen_options.num_records = 6000;  // keep the demo fast; pass n to scale up
  if (argc > 1) {
    gen_options.num_records = static_cast<size_t>(std::strtoul(argv[1],
                                                               nullptr, 10));
  }
  tcm::Dataset data = tcm::MakePatientDischargeLike(gen_options);
  std::printf("patient-discharge-like: n=%zu, QI R=%.3f\n", data.NumRecords(),
              tcm::QiConfidentialCorrelation(data));

  tcm::JobSpec spec;
  spec.algorithm.name = "tclose_first";
  spec.algorithm.k = 3;
  spec.algorithm.t = 0.1;
  spec.execution.threads = 4;
  auto report = tcm::RunJob(data, spec);
  if (!report.ok()) {
    std::fprintf(stderr, "anonymization failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("clusters=%zu  size(min/avg/max)=%zu/%.1f/%zu  maxEMD=%.4f  "
              "SSE=%.4f  %zu shard(s) on %zu thread(s)  %.2fs\n\n",
              report->clusters, report->min_cluster_size,
              report->average_cluster_size, report->max_cluster_size,
              report->max_cluster_emd, report->normalized_sse,
              report->stats.num_shards, report->threads,
              report->anonymize_seconds);
  const tcm::Dataset& release = *report->release;

  auto stats = tcm::EvaluateStatisticsPreservation(data, release);
  if (stats.ok()) {
    std::printf("%-16s %12s %12s %12s\n", "QI attribute", "|d mean|",
                "var ratio", "range ratio");
    for (const auto& attr : stats->attributes) {
      std::printf("%-16s %12.4f %12.4f %12.4f\n", attr.name.c_str(),
                  attr.mean_absolute_error, attr.variance_ratio,
                  attr.range_ratio);
    }
    std::printf("pairwise QI correlation MAD       : %.4f\n",
                stats->correlation_mad);
    std::printf("QI<->confidential correlation MAD : %.4f\n\n",
                stats->qi_confidential_correlation_mad);
  }

  tcm::RangeQueryOptions query_options;
  query_options.num_queries = 300;
  query_options.selectivity = 0.4;
  auto queries = tcm::EvaluateRangeQueries(data, release, query_options);
  if (queries.ok()) {
    std::printf("range COUNT queries (%zu, selectivity %.0f%%): "
                "mean abs err=%.2f  mean rel err=%.2f%%  max abs err=%.0f\n",
                queries->num_queries, query_options.selectivity * 100,
                queries->mean_absolute_error,
                queries->mean_relative_error * 100,
                queries->max_absolute_error);
  }
  return 0;
}
