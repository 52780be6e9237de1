#ifndef TCM_ENGINE_THREAD_POOL_H_
#define TCM_ENGINE_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tcm {

// Fixed-size worker pool with a FIFO task queue. Submit() hands it a
// fire-and-forget task; callers that need a task's result or its
// completion synchronize on their own state, as ParallelFor does. The
// pool is the execution substrate of the engine (sharded pipeline runner,
// window loop, serve queue) but is generic: tasks are arbitrary callables.
//
// Scheduling is non-deterministic across threads by nature; engine callers
// obtain deterministic RESULTS by writing per-task outputs to slots they
// own and keeping per-task work independent of scheduling (see sharded.h).
//
// Lock discipline (compile-time checked under the `clang-analysis`
// preset): every piece of shared state is guarded by `mutex_`; public
// entry points take the lock themselves and are annotated
// TCM_EXCLUDES(mutex_).
class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 means one per hardware thread (at
  // least one). A single-threaded pool executes tasks strictly in FIFO
  // order on its one worker.
  explicit ThreadPool(size_t num_threads = 0);

  // Calls Shutdown(): outstanding tasks are finished, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  // Enqueues `task`. A task must not throw: nothing would catch it on
  // the worker. After Shutdown() the task is rejected and never runs.
  void Submit(std::function<void()> task) TCM_EXCLUDES(mutex_);

  // Graceful stop, the pool's cancellation boundary: rejects every task
  // submitted from this point on, finishes the queued and running ones,
  // and joins the workers. Idempotent; safe to call concurrently with
  // Submit AND with other Shutdown calls (each worker is joined by
  // exactly one caller; late callers return once the first join sweep
  // has claimed the threads).
  void Shutdown() TCM_EXCLUDES(mutex_);

 private:
  void WorkerLoop() TCM_EXCLUDES(mutex_);

  size_t num_threads_ = 0;

  Mutex mutex_;
  CondVar task_available_;
  // Workers are spawned under the lock in the constructor and claimed
  // (moved out for joining) under the lock in Shutdown, so concurrent
  // Shutdown calls cannot join the same std::thread twice.
  std::vector<std::thread> workers_ TCM_GUARDED_BY(mutex_);
  std::deque<std::function<void()>> queue_ TCM_GUARDED_BY(mutex_);
  bool stopping_ TCM_GUARDED_BY(mutex_) = false;
};

// Runs task(0), ..., task(n - 1) and returns once all have finished:
// inline in index order when `pool` is null (or n < 2). Otherwise the
// indices are handed out from one atomic counter, claimed by the caller
// and by at most min(n - 1, num_threads) helper tasks on the pool; the
// caller always runs index 0 itself. The caller runs only indices of
// this call, never another queued task, and waits only for indices a
// running helper has claimed: a busy or single-threaded pool cannot
// stall the join, nor make it run foreign work. So the caller may be one
// of the pool's own workers (a served job fans out on the daemon's pool
// it runs on). A helper that starts after every index is claimed returns
// at once. A task must write only what its index owns; results then
// never depend on scheduling. The first exception a task throws (in index
// order) propagates after every task has finished.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& task);

// Splits [0, n) into `parts` contiguous, balanced ranges; returns range
// `part` as [begin, end). Earlier ranges take the remainder, one each.
std::pair<size_t, size_t> SplitRange(size_t n, size_t parts, size_t part);

// ParallelFor over contiguous ranges of [0, n): one range when `pool` is
// null, else a few per pool thread (for balance). The ranges depend on
// the thread count, so task(begin, end) must produce results that do
// not: disjoint writes, or reductions such as max that ignore grouping.
void ParallelForRanges(ThreadPool* pool, size_t n,
                       const std::function<void(size_t, size_t)>& task);

}  // namespace tcm

#endif  // TCM_ENGINE_THREAD_POOL_H_
