#ifndef TCM_SERVE_JOB_QUEUE_H_
#define TCM_SERVE_JOB_QUEUE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "api/job.h"
#include "common/json.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "engine/thread_pool.h"

namespace tcm {

// Lifecycle of a served job. kQueued and kRunning are transient; the
// other three are terminal and never change again.
enum class JobState {
  kQueued,
  kRunning,
  kSucceeded,
  kFailed,
  kCancelled,
};

// Stable lower-case wire name ("queued", "running", ...).
const char* JobStateName(JobState state);

bool IsTerminalJobState(JobState state);

// Point-in-time copy of one job's externally visible state. error_code /
// error are filled for kFailed (error_code is the StatusCodeName of the
// failure, e.g. "IoError"); report holds the final RunReport JSON for
// kSucceeded. Copies are cheap — the report is shared, not duplicated.
struct JobSnapshot {
  uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string error_code;
  std::string error;
  std::shared_ptr<const JsonValue> report;
};

// Jobs-by-state tally over every job the queue has ever seen — the
// "jobs" object of the serve stats event. Taken atomically, so the five
// fields sum to the total submission count.
struct JobStateCounts {
  size_t queued = 0;
  size_t running = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  size_t cancelled = 0;
};

// Bounded in-process job queue over a shared ThreadPool: the execution
// core of the tcm_serve daemon, usable on its own by embedders. Submit
// assigns a monotonically increasing job id and hands the JobSpec to the
// pool; jobs run through the public RunJob facade, so every execution
// mode and error-taxonomy code behaves exactly as it does in-process.
//
// Width: a job runs on one pool worker and fans out on the same pool
// (RunJob(spec, pool)), so the pool's size bounds the threads of every
// job together. A spec's execution.threads is not used here, and a job's
// report says the pool's width.
//
// Backpressure: at most `max_pending` jobs may be queued or running at
// once; Submit past the bound fails with kFailedPrecondition instead of
// buffering without limit.
//
// Retention: terminal jobs (succeeded / failed / cancelled) are kept for
// status queries up to `max_terminal_jobs`; past the cap the oldest-
// completed record is evicted (serve.jobs_evicted counts them). Queries
// for an evicted id fail with kFailedPrecondition naming the eviction —
// distinct from the kNotFound of an id that was never issued — so
// clients can tell "poll sooner / raise the cap" apart from "wrong id".
// A cap of 0 means unbounded retention for the queue's lifetime (the
// embedder default; the tcm_serve daemon bounds it).
//
// Observability: every transition publishes into
// MetricsRegistry::Global() under the serve.* names (jobs_submitted /
// jobs_rejected / jobs_succeeded / jobs_failed / jobs_cancelled
// counters, queue_depth and jobs_running gauges, rows_processed counter,
// job_latency_seconds histogram) — the payload behind the daemon's
// `stats` verb.
//
// Thread safety: every method may be called from any thread. The pool
// must outlive the queue and must not be Shutdown() before Drain()
// returns.
class JobQueue {
 public:
  // `pool` is borrowed, not owned. `max_terminal_jobs` caps retained
  // terminal records (0 = keep all).
  JobQueue(ThreadPool* pool, size_t max_pending,
           size_t max_terminal_jobs = 0);

  // Drains before destruction so no worker task outlives the queue.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  // Enqueues the job and returns its id. kFailedPrecondition when the
  // queue is full or draining. The spec is validated by RunJob on a pool
  // worker, so spec errors surface as a kFailed snapshot, not here.
  Result<uint64_t> Submit(JobSpec spec) TCM_EXCLUDES(mutex_);

  // kNotFound for an id never returned by Submit; kFailedPrecondition
  // for one whose terminal record was evicted by the retention cap.
  Result<JobSnapshot> Status(uint64_t job_id) const TCM_EXCLUDES(mutex_);

  // Best-effort cancellation: a kQueued job transitions to kCancelled
  // and never runs; a running or already-terminal job is left untouched.
  // Either way the returned snapshot shows the job's resulting state, so
  // callers observe whether the cancel won the race. kNotFound for an
  // unknown id.
  Result<JobSnapshot> Cancel(uint64_t job_id) TCM_EXCLUDES(mutex_);

  // Blocks until the job's state differs from `seen`, then returns the
  // new snapshot (immediately when it already differs). Terminal states
  // never change, so waiting on one returns only through a caller bug —
  // pass the state last observed. kNotFound for an unknown id.
  Result<JobSnapshot> WaitForChange(uint64_t job_id, JobState seen) const
      TCM_EXCLUDES(mutex_);

  // Queued + running jobs right now.
  size_t pending() const TCM_EXCLUDES(mutex_);

  // Jobs ever submitted (any state).
  size_t total_jobs() const TCM_EXCLUDES(mutex_);

  // One consistent jobs-by-state tally (stats verb payload).
  JobStateCounts StateCounts() const TCM_EXCLUDES(mutex_);

  // Rejects all further Submits from this point on without blocking:
  // the instant half of shutdown, safe to call from a connection
  // handler. Idempotent.
  void CloseSubmissions() TCM_EXCLUDES(mutex_);

  // CloseSubmissions() plus blocking until every queued or running job
  // reaches a terminal state: the graceful-drain half of daemon
  // shutdown. Idempotent.
  void Drain() TCM_EXCLUDES(mutex_);

 private:
  // One job's record. The whole struct is guarded by the owning queue's
  // mutex_ — records are only reached through jobs_ (or a shared_ptr
  // copied out of it), and every reader/writer holds the lock. That
  // discipline is stated here and checked at the access sites of the
  // queue's own members; the analysis cannot attach a member-of-another-
  // object capability to a nested struct's fields.
  struct Record {
    uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::string error_code;
    std::string error;
    std::shared_ptr<const JsonValue> report;
  };

  JobSnapshot SnapshotLocked(const Record& record) const
      TCM_REQUIRES(mutex_);
  void Execute(const std::shared_ptr<Record>& record) TCM_EXCLUDES(mutex_);
  // Records `id` as terminal (in completion order) and evicts the
  // oldest-completed records past the retention cap.
  void MarkTerminalLocked(uint64_t id) TCM_REQUIRES(mutex_);
  // The structured error for a lookup that missed jobs_: distinguishes
  // an evicted id (< next_id_) from one never issued.
  ::tcm::Status LookupErrorLocked(uint64_t job_id) const
      TCM_REQUIRES(mutex_);

  ThreadPool* pool_;
  const size_t max_pending_;
  const size_t max_terminal_;  // 0 = unbounded retention

  mutable Mutex mutex_;
  mutable CondVar changed_;  // any state transition
  bool draining_ TCM_GUARDED_BY(mutex_) = false;
  uint64_t next_id_ TCM_GUARDED_BY(mutex_) = 1;
  size_t active_ TCM_GUARDED_BY(mutex_) = 0;  // queued + running
  // Pool tasks submitted but not yet entered. Distinct from active_: a
  // job cancelled while queued leaves active_ immediately, but its pool
  // task (which captures this queue) still sits in the pool until a
  // worker pops it — Drain() must outlast that task too, or destroying
  // the queue after Drain() would leave the task dangling.
  size_t tasks_in_pool_ TCM_GUARDED_BY(mutex_) = 0;
  size_t running_ TCM_GUARDED_BY(mutex_) = 0;
  std::map<uint64_t, std::shared_ptr<Record>> jobs_ TCM_GUARDED_BY(mutex_);
  // Terminal job ids in completion order: the eviction queue. Its front
  // is always the oldest-completed record still in jobs_.
  std::deque<uint64_t> terminal_order_ TCM_GUARDED_BY(mutex_);
  // Lifetime tallies, maintained at every transition so StateCounts and
  // total_jobs keep their "every job ever seen" meaning after eviction
  // removes records from jobs_.
  uint64_t total_submitted_ TCM_GUARDED_BY(mutex_) = 0;
  JobStateCounts counts_ TCM_GUARDED_BY(mutex_);
};

}  // namespace tcm

#endif  // TCM_SERVE_JOB_QUEUE_H_
