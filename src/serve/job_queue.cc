#include "serve/job_queue.h"

#include <exception>
#include <string>
#include <utility>

#include "api/report.h"
#include "api/runner.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace tcm {
namespace {

// The registry has its own lock, acquired strictly after the queue's
// (never the reverse), so publishing from under mutex_ cannot deadlock.
MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kSucceeded:
      return "succeeded";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool IsTerminalJobState(JobState state) {
  return state == JobState::kSucceeded || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

JobQueue::JobQueue(ThreadPool* pool, size_t max_pending,
                   size_t max_terminal_jobs)
    : pool_(pool),
      max_pending_(max_pending == 0 ? 1 : max_pending),
      max_terminal_(max_terminal_jobs) {
  TCM_CHECK(pool != nullptr) << "JobQueue requires a ThreadPool";
}

JobQueue::~JobQueue() { Drain(); }

JobSnapshot JobQueue::SnapshotLocked(const Record& record) const {
  JobSnapshot snapshot;
  snapshot.id = record.id;
  snapshot.state = record.state;
  snapshot.error_code = record.error_code;
  snapshot.error = record.error;
  snapshot.report = record.report;
  return snapshot;
}

Result<uint64_t> JobQueue::Submit(JobSpec spec) {
  std::shared_ptr<Record> record;
  {
    MutexLock lock(mutex_);
    if (draining_) {
      Metrics().IncrementCounter("serve.jobs_rejected");
      return Status::FailedPrecondition(
          "server is draining and no longer accepts jobs");
    }
    if (active_ >= max_pending_) {
      Metrics().IncrementCounter("serve.jobs_rejected");
      return Status::FailedPrecondition(
          "job queue is full (" + std::to_string(active_) + " of " +
          std::to_string(max_pending_) + " slots pending); retry later");
    }
    record = std::make_shared<Record>();
    record->id = next_id_++;
    record->spec = std::move(spec);
    jobs_.emplace(record->id, record);
    ++active_;
    ++tasks_in_pool_;
    ++total_submitted_;
    ++counts_.queued;
    Metrics().IncrementCounter("serve.jobs_submitted");
    Metrics().SetGauge("serve.queue_depth",
                       static_cast<double>(active_ - running_));
  }
  // Completion is observed through WaitForChange.
  pool_->Submit([this, record]() { Execute(record); });
  return record->id;
}

void JobQueue::Execute(const std::shared_ptr<Record>& record) {
  JobSpec spec;
  {
    MutexLock lock(mutex_);
    TCM_CHECK(tasks_in_pool_ > 0) << "task entered with no pool count";
    --tasks_in_pool_;
    if (record->state != JobState::kQueued) {  // cancelled in queue
      changed_.NotifyAll();  // Drain may be waiting on tasks_in_pool_
      return;
    }
    record->state = JobState::kRunning;
    ++running_;
    TCM_CHECK(counts_.queued > 0) << "job started with no queued count";
    --counts_.queued;
    ++counts_.running;
    Metrics().SetGauge("serve.jobs_running", static_cast<double>(running_));
    Metrics().SetGauge("serve.queue_depth",
                       static_cast<double>(active_ - running_));
    // Move, don't copy: a spec can carry a large inline dataset, and a
    // copy here would both stall every queue operation for its duration
    // and stay pinned in jobs_ after the job is done. The record is
    // never executed twice, so nothing reads the spec again.
    spec = std::move(record->spec);
    changed_.NotifyAll();
  }

  // The library's public surface reports through Status, but a job can
  // still throw (std::bad_alloc on a huge input, a third-party
  // registered algorithm). Nothing on the pool worker catches it — an
  // exception escaping the task would end the process — so convert to
  // the taxonomy here.
  WallTimer job_timer;
  Result<RunReport> outcome = Status::Internal("unreachable");
  try {
    outcome = RunJob(spec, pool_);
  } catch (const std::exception& error) {
    outcome = Status::Internal(std::string("job threw: ") + error.what());
  } catch (...) {
    outcome = Status::Internal("job threw a non-standard exception");
  }
  const double job_seconds = job_timer.ElapsedSeconds();

  {
    MutexLock lock(mutex_);
    TCM_CHECK(counts_.running > 0) << "job finished with no running count";
    --counts_.running;
    if (outcome.ok()) {
      record->state = JobState::kSucceeded;
      ++counts_.succeeded;
      // The report JSON never embeds the in-memory release dataset, so
      // the retained document stays small even for large jobs.
      record->report =
          std::make_shared<const JsonValue>(outcome->ToJson());
      Metrics().IncrementCounter("serve.jobs_succeeded");
      Metrics().IncrementCounter("serve.rows_processed", outcome->rows);
      if (job_seconds > 0.0) {
        Metrics().SetGauge("serve.last_job_rows_per_second",
                           static_cast<double>(outcome->rows) / job_seconds);
      }
    } else {
      record->state = JobState::kFailed;
      record->error_code = StatusCodeName(outcome.status().code());
      record->error = outcome.status().message();
      ++counts_.failed;
      Metrics().IncrementCounter("serve.jobs_failed");
    }
    MarkTerminalLocked(record->id);
    Metrics().Observe("serve.job_latency_seconds", job_seconds);
    TCM_CHECK(active_ > 0) << "job finished with no active count";
    --active_;
    TCM_CHECK(running_ > 0) << "job finished with no running count";
    --running_;
    Metrics().SetGauge("serve.jobs_running", static_cast<double>(running_));
    Metrics().SetGauge("serve.queue_depth",
                       static_cast<double>(active_ - running_));
    changed_.NotifyAll();
  }
}

void JobQueue::MarkTerminalLocked(uint64_t id) {
  terminal_order_.push_back(id);
  if (max_terminal_ == 0) return;
  while (terminal_order_.size() > max_terminal_) {
    uint64_t evict = terminal_order_.front();
    terminal_order_.pop_front();
    jobs_.erase(evict);
    Metrics().IncrementCounter("serve.jobs_evicted");
  }
}

Status JobQueue::LookupErrorLocked(uint64_t job_id) const {
  if (job_id >= 1 && job_id < next_id_) {
    // The id was issued, so its record can only be gone by eviction.
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) +
        " finished but its record was evicted (terminal-job retention "
        "cap " + std::to_string(max_terminal_) + "); poll sooner or "
        "raise the cap");
  }
  return Status::NotFound("no job with id " + std::to_string(job_id));
}

Result<JobSnapshot> JobQueue::Status(uint64_t job_id) const {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return LookupErrorLocked(job_id);
  return SnapshotLocked(*it->second);
}

Result<JobSnapshot> JobQueue::Cancel(uint64_t job_id) {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return LookupErrorLocked(job_id);
  // Keep the record alive past MarkTerminalLocked, which may evict this
  // very id from jobs_ when the retention cap is tight.
  const std::shared_ptr<Record> kept = it->second;
  Record& record = *kept;
  if (record.state == JobState::kQueued) {
    record.state = JobState::kCancelled;
    // Release the payload like Execute does for run jobs — a cancelled
    // spec (possibly carrying an inline dataset) must not stay pinned
    // in the retained record.
    record.spec = JobSpec();
    TCM_CHECK(active_ > 0) << "queued job with no active count";
    --active_;
    TCM_CHECK(counts_.queued > 0) << "cancelled job with no queued count";
    --counts_.queued;
    ++counts_.cancelled;
    MarkTerminalLocked(record.id);
    Metrics().IncrementCounter("serve.jobs_cancelled");
    Metrics().SetGauge("serve.queue_depth",
                       static_cast<double>(active_ - running_));
    changed_.NotifyAll();
  }
  return SnapshotLocked(record);
}

Result<JobSnapshot> JobQueue::WaitForChange(uint64_t job_id,
                                            JobState seen) const {
  MutexLock lock(mutex_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return LookupErrorLocked(job_id);
  // The shared_ptr keeps the record alive across the wait even if the
  // retention cap evicts it from jobs_ mid-wait; the caller still gets
  // the terminal snapshot it was waiting for.
  const std::shared_ptr<Record> record = it->second;
  while (record->state == seen) changed_.Wait(lock);
  return SnapshotLocked(*record);
}

size_t JobQueue::pending() const {
  MutexLock lock(mutex_);
  return active_;
}

size_t JobQueue::total_jobs() const {
  MutexLock lock(mutex_);
  return total_submitted_;
}

JobStateCounts JobQueue::StateCounts() const {
  // Maintained at every transition rather than recounted from jobs_, so
  // the "every job ever seen" meaning survives retention eviction.
  MutexLock lock(mutex_);
  return counts_;
}

void JobQueue::CloseSubmissions() {
  MutexLock lock(mutex_);
  draining_ = true;
}

void JobQueue::Drain() {
  MutexLock lock(mutex_);
  draining_ = true;
  // tasks_in_pool_ too: a task for a cancelled-while-queued job still
  // captures this queue and must have entered (and bounced off) before
  // the queue can be destroyed.
  while (active_ != 0 || tasks_in_pool_ != 0) changed_.Wait(lock);
}

}  // namespace tcm
