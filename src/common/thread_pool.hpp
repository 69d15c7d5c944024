// Fixed-size worker pool (paper layer "Threads": management of threads for
// the middleware, independent of the library used).
//
// The proxy runs batch jobs on one, and the grid builder its inter-proxy
// handshakes, so bursty work cannot spawn unbounded threads.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pg {

class ThreadPool {
 public:
  /// Starts `workers` threads immediately.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false if the pool is shutting down (the task
  /// is dropped).
  bool submit(std::function<void()> task);

  /// Blocks until every queued task has finished.
  void drain();

  /// Finishes queued tasks, then joins the workers. Idempotent.
  void shutdown();

  std::size_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool shutting_down_ = false;
};

}  // namespace pg
