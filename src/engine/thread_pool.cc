#include "engine/thread_pool.h"

#include <algorithm>
#include <chrono>

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

bool ThreadPool::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    // A task enqueued after the stop flag would sit in the queue forever
    // (workers may already be gone), wedging WaitAll — reject instead so
    // the caller's future reports broken_promise.
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
  return true;
}

void ThreadPool::WaitAll() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(lock);
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  {
    MutexLock lock(mutex_);
    --in_flight_;
    if (in_flight_ == 0) all_done_.NotifyAll();
  }
  return true;
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
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& task) {
  if (pool == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(pool->Submit([&task, i]() { task(i); }));
  }
  for (std::future<void>& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool->TryRunOneTask()) future.wait();
    }
  }
  for (std::future<void>& future : futures) future.get();
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
