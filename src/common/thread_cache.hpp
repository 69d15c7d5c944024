// Process-wide on-demand thread cache (paper layer "Threads": the threads
// the proxies give to the MPI processes they launch).
//
// A node agent's application runner, every MPI rank and every handler
// that Connection::offload() moves off a reactor I/O thread (a remote
// login, a node's user service) run on one of these threads. run() hands
// the task to a parked idle thread, or starts a new one when none is idle,
// so a steady stream of launches reuses the same threads instead of
// creating and joining fresh ones. An idle thread exits after
// kIdleLinger. There is no size cap: ranks block on each other, and a
// fixed pool would deadlock a job with more ranks than threads.
//
// Exported metrics: pg_thread_cache_threads{state="busy"|"idle"} and
// pg_thread_cache_spawned_total.
#pragma once

#include <chrono>
#include <functional>
#include <memory>

namespace pg {

class ThreadCache {
 public:
  /// How long a thread stays parked for the next task before it exits.
  static constexpr std::chrono::milliseconds kIdleLinger{100};

  /// Completion of one task. Copyable; an empty handle is already done.
  class Handle {
   public:
    Handle() = default;

    /// Returns once the task has run and its captures are destroyed.
    void wait() const;
    /// True once wait() would return at once; does not wait for the task.
    bool done() const;

   private:
    friend class ThreadCache;
    struct Done;
    std::shared_ptr<Done> done_;
  };

  /// Runs `task` on a cached thread. Each task starts with the thread's
  /// trace state empty (no current context, no span sink).
  /// An empty task returns a handle that is already done.
  static Handle run(std::function<void()> task);

 private:
  struct Worker;
  struct State;
  static State& state();
  static void worker_main(std::shared_ptr<Worker> self);
};

}  // namespace pg
