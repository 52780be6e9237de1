#ifndef TCM_API_RUNNER_H_
#define TCM_API_RUNNER_H_

#include "api/job.h"
#include "api/report.h"
#include "common/result.h"
#include "data/dataset.h"
#include "data/record_source.h"

namespace tcm {

class ThreadPool;

// Executes one JobSpec end to end and returns its RunReport. This is the
// public entry point the CLI, the examples and external services program
// against; internally it validates the spec (kInvalidSpec /
// kUnknownAlgorithm), opens its input as one record stream with the
// spec's roles applied, and runs it window by window over
// ShardedAnonymize (an in-memory job is one unbounded window over the
// same record stream) or, for sweeps, reads the stream into one dataset
// and makes one ShardedAnonymize call per cell; when the spec names a
// report_path, it writes the JSON report before returning. Failures carry
// the structured taxonomy: kIoError for unreadable inputs/sinks,
// kPrivacyViolation when a verified release fails re-verification.
//
// Width. The job's fan-outs run on `pool` when the caller brings one
// (tcm_serve's JobQueue passes the daemon's pool, so a served job never
// spawns threads and its spec's execution.threads is not used; the
// calling thread may itself be one of the pool's workers). Without one,
// RunJob builds a pool of execution.threads workers for this job alone.
// report.threads is the width of the pool the job ran on.
//
// Determinism: release bytes are the same for any thread count, and a
// streamed job whose input fits in one window releases the in-memory
// job's bytes (pinned by tests/golden/).
Result<RunReport> RunJob(const JobSpec& spec, ThreadPool* pool = nullptr);

// Sugar for in-process callers: runs `spec` against a live dataset or
// record source (overriding spec.input). Non-owning; the object must
// outlive the call.
Result<RunReport> RunJob(const Dataset& data, JobSpec spec);
Result<RunReport> RunJob(RecordSource* source, JobSpec spec);

// Independent re-check of a release the way an auditor would: OK when
// `release` is k-anonymous and t-close, kPrivacyViolation naming the
// violated guarantee otherwise. The same check (and code) the verify
// stage applies inside RunJob.
Status VerifyRelease(const Dataset& release, size_t k, double t);

}  // namespace tcm

#endif  // TCM_API_RUNNER_H_
