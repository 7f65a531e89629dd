#ifndef TDMATCH_UTIL_THREAD_POOL_H_
#define TDMATCH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tdmatch {
namespace util {

/// \brief Fixed-size worker pool with a blocking Wait(); used by the
/// Word2Vec trainer (Hogwild) and the random-walk generator.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 → hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void Wait();

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, tasks) on the workers and blocks until those
  /// tasks are done — only those: concurrent callers share the pool
  /// without waiting on each other's work. `fn` must not itself block on
  /// this pool (a worker waiting for a worker can self-deadlock).
  void RunTasks(size_t tasks, const std::function<void(size_t)>& fn);

  /// RunTasks over [0, n) split into at most `chunks` contiguous ranges,
  /// fn(begin, end) each; runs inline on the caller when `pool` is null or
  /// one chunk suffices.
  static void RunChunked(ThreadPool* pool, size_t n, size_t chunks,
                         const std::function<void(size_t, size_t)>& fn);

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is chunked so each thread gets a contiguous range.
  static void ParallelFor(size_t n, size_t num_threads,
                          const std::function<void(size_t begin, size_t end,
                                                   size_t thread_idx)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace util
}  // namespace tdmatch

#endif  // TDMATCH_UTIL_THREAD_POOL_H_
