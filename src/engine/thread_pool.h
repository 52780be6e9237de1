#ifndef TCM_ENGINE_THREAD_POOL_H_
#define TCM_ENGINE_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tcm {

// Fixed-size worker pool with a FIFO task queue. Submit() hands back a
// std::future for the task's return value; WaitAll() blocks until every
// submitted task has finished. The pool is the execution substrate of the
// engine (sharded pipeline runner, batch mode) but is generic: tasks are
// arbitrary callables.
//
// Scheduling is non-deterministic across threads by nature; engine callers
// obtain deterministic RESULTS by collecting futures in submission order
// and keeping per-task work independent of scheduling (see sharded.h).
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

  // Enqueues `fn` and returns a future for its result. `fn` must be
  // invocable with no arguments; exceptions propagate through the future.
  // After Shutdown() the task is rejected: it never runs and the returned
  // future reports std::future_error(broken_promise) from get().
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // packaged_task is move-only; the shared_ptr makes the wrapper
    // copyable so it fits in std::function.
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    // On rejection both references to the packaged_task are dropped
    // without invoking it, which breaks its promise — the documented
    // submit-after-shutdown signal.
    Enqueue([task]() { (*task)(); });
    return future;
  }

  // Blocks until the queue is empty and no worker is running a task.
  // Tasks submitted while waiting are waited for too.
  void WaitAll() TCM_EXCLUDES(mutex_);

  // Graceful stop, the pool's cancellation boundary: rejects every task
  // submitted from this point on, finishes the queued and running ones,
  // and joins the workers. Idempotent; safe to call concurrently with
  // Submit AND with other Shutdown calls (each worker is joined by
  // exactly one caller; late callers return once the first join sweep
  // has claimed the threads).
  void Shutdown() TCM_EXCLUDES(mutex_);

 private:
  // Returns false (dropping the task) once Shutdown has begun.
  bool Enqueue(std::function<void()> task) TCM_EXCLUDES(mutex_);
  void WorkerLoop() TCM_EXCLUDES(mutex_);

  size_t num_threads_ = 0;

  Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  // Workers are spawned under the lock in the constructor and claimed
  // (moved out for joining) under the lock in Shutdown, so concurrent
  // Shutdown calls cannot join the same std::thread twice.
  std::vector<std::thread> workers_ TCM_GUARDED_BY(mutex_);
  std::deque<std::function<void()>> queue_ TCM_GUARDED_BY(mutex_);
  size_t in_flight_ TCM_GUARDED_BY(mutex_) = 0;  // queued + executing
  bool stopping_ TCM_GUARDED_BY(mutex_) = false;
};

// Runs task(0), ..., task(n - 1) and returns once all have finished:
// inline in index order when `pool` is null (or n < 2). Otherwise the
// indices are handed out from one atomic counter, claimed by the caller
// and by at most min(n - 1, num_threads) helper tasks on the pool. The
// caller runs only indices of this call, never another queued task, and
// waits only for indices a running helper has claimed: a busy or
// single-threaded pool cannot stall the join, nor make it run foreign
// work. A helper that starts after every index is claimed returns at
// once. A task must write only what its index owns; results then never
// depend on scheduling. The first exception a task throws (in index
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
