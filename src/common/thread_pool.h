#ifndef TCROWD_COMMON_THREAD_POOL_H_
#define TCROWD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tcrowd {

/// Fixed-size worker pool. It runs the EmExecutor's E/M-step shards, the
/// service layer's background EM refreshes (one worker per CrowdService),
/// and the T-Crowd policies' background refits (one worker each).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  /// Drains every job already queued, then joins the workers. Exceptions
  /// still pending at destruction are swallowed (a destructor cannot throw).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; jobs may run in any order. Returns false (and drops the
  /// job) when the pool is already shutting down, so racing producers cannot
  /// enqueue work nobody will run.
  bool Submit(std::function<void()> job);

  /// Blocks until every submitted job has finished. If any job threw, the
  /// FIRST captured exception is rethrown here (the others are dropped).
  void Wait();

  /// Convenience: runs fn(i) for i in [0, n) across the pool and waits.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable job_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace tcrowd

#endif  // TCROWD_COMMON_THREAD_POOL_H_
