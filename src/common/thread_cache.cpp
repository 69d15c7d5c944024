#include "common/thread_cache.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pg {

struct ThreadCache::Handle::Done {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;

  void signal() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    cv.notify_all();
  }
};

void ThreadCache::Handle::wait() const {
  if (!done_) return;
  std::unique_lock<std::mutex> lock(done_->mutex);
  done_->cv.wait(lock, [this] { return done_->done; });
}

bool ThreadCache::Handle::done() const {
  if (!done_) return true;
  std::lock_guard<std::mutex> lock(done_->mutex);
  return done_->done;
}

/// One cached thread. Shared between the thread and, while it is parked,
/// the idle stack, so run() can wake it after unlocking.
struct ThreadCache::Worker {
  std::condition_variable wake;
  // Guarded by State::mutex; set by run() while the thread is parked.
  std::function<void()> task;
  std::shared_ptr<Handle::Done> done;
};

struct ThreadCache::State {
  static telemetry::Gauge& threads(const char* state) {
    return telemetry::MetricRegistry::global().gauge(
        "pg_thread_cache_threads",
        "Threads of the application thread cache, running a task or parked",
        {{"state", state}});
  }

  std::mutex mutex;
  std::vector<std::shared_ptr<Worker>> idle;  // most recently parked last
  telemetry::Gauge& busy_threads = threads("busy");
  telemetry::Gauge& idle_threads = threads("idle");
  telemetry::Counter& spawned = telemetry::MetricRegistry::global().counter(
      "pg_thread_cache_spawned_total",
      "Threads the application thread cache started");
};

ThreadCache::State& ThreadCache::state() {
  // Leaked, like MetricRegistry::global(): threads still parked when the
  // process exits use it during static destruction.
  static State* state = new State;
  return *state;
}

ThreadCache::Handle ThreadCache::run(std::function<void()> task) {
  Handle handle;
  if (!task) return handle;
  handle.done_ = std::make_shared<Handle::Done>();
  State& s = state();
  std::shared_ptr<Worker> worker;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.busy_threads.add(1);
    if (!s.idle.empty()) {
      // Newest first: the warmest stack, and older threads linger out.
      worker = std::move(s.idle.back());
      s.idle.pop_back();
      s.idle_threads.add(-1);
      worker->task = std::move(task);
      worker->done = handle.done_;
    }
  }
  if (worker) {
    worker->wake.notify_one();  // with no lock held: it runs at once
    return handle;
  }
  worker = std::make_shared<Worker>();
  worker->task = std::move(task);
  worker->done = handle.done_;
  try {
    std::thread(&ThreadCache::worker_main, std::move(worker)).detach();
  } catch (...) {
    s.busy_threads.add(-1);
    throw;
  }
  s.spawned.increment();
  return handle;
}

void ThreadCache::worker_main(std::shared_ptr<Worker> self) {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.mutex);
  for (;;) {
    std::function<void()> task = std::exchange(self->task, nullptr);
    const std::shared_ptr<Handle::Done> done = std::move(self->done);
    lock.unlock();
    task();
    task = nullptr;  // the captures die before wait() returns
    telemetry::reset_thread_trace_state();
    lock.lock();
    // Park before signalling, so a caller that waits and then runs its
    // next task finds this thread idle.
    s.idle.push_back(self);
    s.busy_threads.add(-1);
    s.idle_threads.add(1);
    lock.unlock();
    done->signal();
    lock.lock();
    if (!self->wake.wait_for(lock, kIdleLinger,
                             [&self] { return self->task != nullptr; })) {
      s.idle.erase(std::find(s.idle.begin(), s.idle.end(), self));
      s.idle_threads.add(-1);
      return;
    }
  }
}

}  // namespace pg
