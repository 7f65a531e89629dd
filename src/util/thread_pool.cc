#include "util/thread_pool.h"

#include <algorithm>

namespace tdmatch {
namespace util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::RunTasks(size_t tasks,
                          const std::function<void(size_t)>& fn) {
  // Completion latch per call. The decrement happens under the mutex: the
  // caller can only observe remaining == 0 after the finishing worker has
  // released the lock, so the stack-local state cannot be destroyed under
  // a worker.
  size_t remaining = tasks;
  std::mutex mu;
  std::condition_variable done;
  for (size_t i = 0; i < tasks; ++i) {
    Submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&remaining] { return remaining == 0; });
}

void ThreadPool::RunChunked(ThreadPool* pool, size_t n, size_t chunks,
                            const std::function<void(size_t, size_t)>& fn) {
  chunks = std::min(chunks, n);
  if (pool == nullptr || chunks <= 1) {
    fn(0, n);
    return;
  }
  const size_t chunk = (n + chunks - 1) / chunks;
  pool->RunTasks((n + chunk - 1) / chunk, [&](size_t t) {
    fn(t * chunk, std::min(n, (t + 1) * chunk));
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t num_threads,
    const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, n);
  if (num_threads == 1) {
    // Run on the calling thread: same chunking semantics, no spawn/join
    // overhead for the sequential case.
    fn(0, n, 0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  const size_t chunk = (n + num_threads - 1) / num_threads;
  for (size_t t = 0; t < num_threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&fn, begin, end, t] { fn(begin, end, t); });
  }
  for (auto& th : threads) th.join();
}

}  // namespace util
}  // namespace tdmatch
