#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tcm {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads_ = num_threads;
  MutexLock lock(mutex_);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  // Claim the worker threads under the lock: with concurrent Shutdown
  // calls, exactly one caller moves each std::thread out and joins it;
  // the others find an empty vector and return after the flag flip.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    workers.swap(workers_);
  }
  task_available_.NotifyAll();
  for (std::thread& worker : workers) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    // A task enqueued after the stop flag could sit in the queue forever
    // (workers may already be gone): drop it instead.
    if (stopping_) return;
    queue_.push_back(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) task_available_.Wait(lock);
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

// The state of one ParallelFor call, shared with its helper tasks, which
// may outlive the call: they hold it by shared_ptr, and touch `task`
// only for an index they claimed, before the call can return.
struct ForLoop {
  ForLoop(size_t n, const std::function<void(size_t)>* task)
      : n(n), task(task) {}

  // Runs index `i`, already claimed, then claims and runs indices until
  // none are left.
  void RunClaimed(size_t i) TCM_EXCLUDES(mutex) {
    for (; i < n; i = next.fetch_add(1)) {
      std::exception_ptr thrown;
      try {
        (*task)(i);
      } catch (...) {
        thrown = std::current_exception();
      }
      MutexLock lock(mutex);
      if (thrown && i < error_index) {
        error_index = i;
        error = thrown;
      }
      if (++finished == n) all_finished.NotifyAll();
    }
  }

  const size_t n;
  const std::function<void(size_t)>* const task;
  std::atomic<size_t> next{0};
  Mutex mutex;
  CondVar all_finished;
  size_t finished TCM_GUARDED_BY(mutex) = 0;
  size_t error_index TCM_GUARDED_BY(mutex) = n;
  std::exception_ptr error TCM_GUARDED_BY(mutex);
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& task) {
  if (pool == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  auto loop = std::make_shared<ForLoop>(n, &task);
  const size_t first = loop->next.fetch_add(1);  // before any helper can
  const size_t helpers = std::min(n - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([loop]() { loop->RunClaimed(loop->next.fetch_add(1)); });
  }
  loop->RunClaimed(first);
  std::exception_ptr error;
  {
    MutexLock lock(loop->mutex);
    while (loop->finished < n) loop->all_finished.Wait(lock);
    error = loop->error;
  }
  if (error) std::rethrow_exception(error);
}

std::pair<size_t, size_t> SplitRange(size_t n, size_t parts, size_t part) {
  const size_t base = n / parts;
  const size_t extra = n % parts;
  const size_t begin = part * base + std::min(part, extra);
  return {begin, begin + base + (part < extra ? 1 : 0)};
}

void ParallelForRanges(ThreadPool* pool, size_t n,
                       const std::function<void(size_t, size_t)>& task) {
  constexpr size_t kRangesPerThread = 4;
  const size_t parts =
      pool == nullptr ? 1 : std::min(n, kRangesPerThread * pool->num_threads());
  ParallelFor(pool, parts, [&](size_t part) {
    auto [begin, end] = SplitRange(n, parts, part);
    task(begin, end);
  });
}

}  // namespace tcm
