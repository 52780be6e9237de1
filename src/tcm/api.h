#ifndef TCM_TCM_API_H_
#define TCM_TCM_API_H_

// tcm/api.h — the public umbrella header of the t-closeness-through-
// microaggregation library. External consumers include this one header
// and program against the versioned Job API:
//
//   #include "tcm/api.h"
//
//   tcm::JobSpec spec = tcm::JobSpec::FromJsonText(R"({
//     "input": {"kind": "synthetic", "generator": "uniform",
//               "rows": 500, "quasi_identifiers": 3, "seed": 42},
//     "algorithm": {"name": "tclose_first", "k": 5, "t": 0.15}
//   })").value();
//   auto report = tcm::RunJob(spec);
//
// Everything re-exported here is covered by the JobSpec schema version
// (JobSpec::kVersion): JobSpec and its JSON round-trip, RunReport (with
// its per-window StreamingWindowSummary and the engine ledger it embeds,
// ShardedAnonymizeStats) and its JSON serialization, RunJob/VerifyRelease,
// and the structured StatusCode taxonomy carried on Status/Result. The
// serving layer —
// JobServer/JobQueue/ServeClient and the newline-delimited JSON wire
// protocol they speak (serve/protocol.h, versioned separately by
// kServeProtocolVersion) — is re-exported too, so an embedder can host
// or talk to a tcm_serve endpoint with this one include. So is the
// observability layer (obs/metrics.h, obs/trace.h): the metrics
// registry the daemon's stats verb snapshots and the trace recorder
// behind a job's trace_path. The library itself does not log. The columnar
// store (colstore/*.h) is re-exported as well: ColumnTable, the .tcmb
// binary dataset format (versioned separately by kTcmbFormatVersion),
// the CSV converter and the streaming ColumnarSource. Engine internals
// (engine/*.h) remain includable but are not versioned API.

#include "api/job.h"
#include "api/report.h"
#include "api/runner.h"
#include "colstore/column_table.h"
#include "colstore/columnar_source.h"
#include "colstore/convert.h"
#include "colstore/tcmb.h"
#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/record_source.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/job_queue.h"
#include "serve/protocol.h"
#include "serve/server.h"

#endif  // TCM_TCM_API_H_
