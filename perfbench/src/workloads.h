#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: the two of BENCHMARK.json plus
// paper_alg3_discharge and serve_http_c4, which run by hand only. Each runs against the
// public tcm API only and returns its operations tally plus either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

// What one run of a workload produced. Every job or request is one
// operation; a failed operation also leaves a message in `errors`.
// `metrics` is keyed by the names in main.cc's metric tables; a name the
// workload does not reach stays absent and is reported as 0.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;

  void Fail(const std::string& message);
};

Outcome RunStreamCsv(const Args& args);
Outcome RunPaperAlg3(const Args& args);

enum class Protocol { kNdjson, kHttp };
Outcome RunServe(const Args& args, Protocol protocol);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
