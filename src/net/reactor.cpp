#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "telemetry/metrics.hpp"

namespace pg::net {

namespace {

constexpr std::uint64_t kWakeupTag = 0;
constexpr std::size_t kReadChunk = 64 * 1024;

TimeMicros steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set for the lifetime of every reactor's event-loop threads.
thread_local bool t_on_io_thread = false;
/// The reactor whose timers this thread (its I/O thread 0) fires.
thread_local const void* t_timer_owner = nullptr;
/// The IoThread whose loop this thread runs.
thread_local const void* t_io_loop = nullptr;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || value == 0) return fallback;
  return static_cast<std::size_t>(value);
}

}  // namespace

struct Reactor::Conn {
  Id id = 0;
  Channel* channel = nullptr;
  FrameDecoder* decoder = nullptr;
  Callbacks callbacks;
  std::size_t io_index = 0;
  int fd = -1;  // -1: fd-less channel driven via watch_readable()

  // Bytes of an incomplete trailing frame, in a buffer borrowed from the
  // pool while the frame is partial (empty otherwise); touched only by the
  // owning I/O thread.
  Bytes tail;
  bool dead = false;  // on_closed delivered, or removed by its own callback

  std::atomic<bool> paused{false};
  std::atomic<bool> ready_queued{false};

  // Guards EPOLLOUT arming against the writer/flusher race.
  std::mutex arm_mutex;
  bool armed_out = false;  // guarded by arm_mutex
};

struct Reactor::IoThread {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  // Every try_read of this thread lands here, and frames are decoded (and
  // records opened) in place in it. Never value-initialized. Reused by the
  // next pump, so a pump must never run nested on one I/O thread: a
  // callback's writes only queue a channel on the ready list (see
  // notify_readable), and only io_loop calls pump.
  std::unique_ptr<std::uint8_t[]> chunk =
      std::make_unique_for_overwrite<std::uint8_t[]>(kReadChunk);
  std::mutex ready_mutex;
  std::vector<Id> ready;  // fd-less channels with pending bytes
  std::vector<Id> draining;  // drain_ready's swap partner, keeps capacity
  // Id of the connection whose callbacks are running right now; the
  // remove barrier waits for this to move off the removed id.
  std::atomic<Id> processing{0};
};

struct Reactor::TimerEntry {
  TimeMicros deadline = 0;
  std::function<void()> fn;
  bool running = false;
};

Reactor::Reactor(ReactorOptions options) {
  const std::size_t n = options.io_threads == 0 ? 1 : options.io_threads;
  io_threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    io->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeupTag;
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev);
    io_threads_.push_back(std::move(io));
  }
  for (std::size_t i = 0; i < n; ++i) {
    io_threads_[i]->thread = std::thread([this, i] { io_loop(i); });
  }
}

Reactor::~Reactor() {
  stop_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) wake(*io);
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
    if (io->event_fd >= 0) ::close(io->event_fd);
    if (io->epoll_fd >= 0) ::close(io->epoll_fd);
  }
}

Reactor& Reactor::global() {
  // Intentionally leaked: connections may still close during static
  // teardown and must find a live reactor.
  static Reactor* instance =
      new Reactor(ReactorOptions{env_size("PG_REACTOR_IO_THREADS", 1)});
  return *instance;
}

void Reactor::wake(IoThread& io) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(io.event_fd, &one, sizeof(one));  // EAGAIN = already signalled
}

Result<Reactor::Id> Reactor::add_channel(Channel& channel,
                                         FrameDecoder& decoder,
                                         Callbacks callbacks) {
  auto conn = std::make_shared<Conn>();
  conn->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  conn->channel = &channel;
  conn->decoder = &decoder;
  conn->callbacks = std::move(callbacks);
  conn->io_index = conn->id % io_threads_.size();

  std::weak_ptr<Conn> weak = conn;
  if (!channel.enter_event_mode([this, weak] {
        if (auto locked = weak.lock()) mark_want_write(locked);
      })) {
    return Status(ErrorCode::kFailedPrecondition,
                  "channel cannot enter event mode");
  }
  conn->fd = channel.event_fd();

  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.emplace(conn->id, conn);
  }
  telemetry::MetricRegistry::global()
      .gauge("pg_reactor_connections",
             "Channels currently registered with the reactor")
      .add(1);

  if (conn->fd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = conn->id;
    IoThread& io = *io_threads_[conn->io_index];
    if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      const int err = errno;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.erase(conn->id);
      }
      telemetry::MetricRegistry::global()
          .gauge("pg_reactor_connections",
                 "Channels currently registered with the reactor")
          .add(-1);
      return Status(ErrorCode::kInternal,
                    std::string("epoll_ctl(ADD): ") + std::strerror(err));
    }
  } else {
    const Id id = conn->id;
    channel.watch_readable([this, id] { notify_readable(id); });
    // The peer may have written before we attached the watcher.
    notify_readable(id);
  }
  return conn->id;
}

void Reactor::remove_channel(Id id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
  }
  // Stop readiness callbacks (runs under the pipe lock, so after this no
  // notify for this conn is in flight) and detach the fd.
  conn->channel->watch_readable(std::function<void()>());
  IoThread& io = *io_threads_[conn->io_index];
  if (conn->fd >= 0) {
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  }
  telemetry::MetricRegistry::global()
      .gauge("pg_reactor_connections",
             "Channels currently registered with the reactor")
      .add(-1);
  // Barrier: wait until the owning I/O thread is no longer inside this
  // conn's callbacks, unless we *are* that thread (close from a callback).
  if (std::this_thread::get_id() != io.thread.get_id()) {
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    barrier_cv_.wait(lock, [&] {
      return io.processing.load(std::memory_order_acquire) != id;
    });
  } else if (io.processing.load(std::memory_order_relaxed) == id) {
    // Closed from its own frame callback: the pump still decodes from the
    // tail, delivers nothing more and releases the tail on its way out.
    conn->dead = true;
    return;
  }
  release_tail(*conn);
}

void Reactor::pause_reads(Id id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  conn->paused.store(true, std::memory_order_release);
}

void Reactor::resume_reads(Id id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  conn->paused.store(false, std::memory_order_release);
  // Re-queue a pump: edge-triggered fds deliver no new edge for bytes that
  // arrived while paused, so treat resume itself as a readiness event.
  notify_readable(id);
}

Reactor::TimerId Reactor::schedule_timer(TimeMicros delay,
                                         std::function<void()> fn) {
  const TimerId id = next_timer_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    TimerEntry& entry = timers_[id];
    entry.deadline = steady_micros() + (delay < 0 ? 0 : delay);
    entry.fn = std::move(fn);
  }
  // Thread 0 recomputes its epoll timeout before it sleeps again, so only
  // another thread has to wake it.
  if (t_timer_owner != this) wake(*io_threads_[0]);
  return id;
}

bool Reactor::cancel_timer(TimerId id) {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  auto it = timers_.find(id);
  if (it == timers_.end()) return false;  // already fired and finished
  if (!it->second.running) {
    timers_.erase(it);
    return true;
  }
  if (t_timer_owner == this) {
    // Only I/O thread 0 runs timers, one at a time, so this is a
    // self-cancel from inside the callback: waiting would deadlock.
    return false;
  }
  timer_cv_.wait(lock, [&] { return timers_.find(id) == timers_.end(); });
  return false;
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    s.connections = conns_.size();
  }
  s.frames = frames_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.partial_tails = pool_.acquires();
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  return s;
}

void Reactor::notify_readable(Id id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  // Coalesce: one queued pump covers any number of pending writes.
  if (conn->ready_queued.exchange(true, std::memory_order_acq_rel)) return;
  IoThread& io = *io_threads_[conn->io_index];
  {
    std::lock_guard<std::mutex> lock(io.ready_mutex);
    io.ready.push_back(id);
  }
  // The owning thread checks its ready list before it sleeps again (see
  // io_loop), so a write it made itself needs no eventfd wakeup.
  if (t_io_loop != &io) wake(io);
}

void Reactor::mark_want_write(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;  // fd-less channels write synchronously
  std::lock_guard<std::mutex> lock(conn->arm_mutex);
  if (conn->armed_out) return;
  conn->armed_out = true;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = conn->id;
  IoThread& io = *io_threads_[conn->io_index];
  ::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

std::shared_ptr<Reactor::Conn> Reactor::find_and_begin(IoThread& io, Id id) {
  // processing must be set while the map lock is held: remove_channel
  // erases under the same lock, so it either prevents this lookup or
  // observes processing == id and waits out the callbacks.
  std::lock_guard<std::mutex> lock(conns_mutex_);
  auto it = conns_.find(id);
  if (it == conns_.end()) return nullptr;
  io.processing.store(id, std::memory_order_release);
  return it->second;
}

void Reactor::end_processing(IoThread& io) {
  io.processing.store(0, std::memory_order_release);
  {
    // Empty critical section pairs with the barrier wait's predicate
    // check, closing the check-then-sleep window.
    std::lock_guard<std::mutex> lock(barrier_mutex_);
  }
  barrier_cv_.notify_all();
}

void Reactor::handle_conn_event(IoThread& io, Id id, std::uint32_t events) {
  std::shared_ptr<Conn> conn = find_and_begin(io, id);
  if (!conn) return;
  if ((events & EPOLLOUT) != 0) {
    std::unique_lock<std::mutex> lock(conn->arm_mutex);
    if (conn->channel->flush_pending_writes() &&
        conn->channel->queued_write_bytes() == 0) {
      conn->armed_out = false;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
      ev.data.u64 = conn->id;
      ::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0) {
    pump(io, *conn);
  }
  end_processing(io);
}

void Reactor::pump(IoThread& io, Conn& conn) {
  if (conn.dead) return;
  for (;;) {
    if (conn.paused.load(std::memory_order_acquire)) break;
    auto read = conn.channel->try_read(io.chunk.get(), kReadChunk);
    if (!read.is_ok()) {
      die(conn, read.status());
      return;
    }
    const TryReadResult result = read.value();
    if (result.n > 0) {
      bytes_read_.fetch_add(result.n, std::memory_order_relaxed);
      Status decoded =
          deliver(conn, std::span<std::uint8_t>(io.chunk.get(), result.n));
      if (!decoded.is_ok()) {
        die(conn, decoded);
        return;
      }
      if (conn.dead) {  // a frame callback closed us re-entrantly
        release_tail(conn);
        return;
      }
    }
    if (result.eof) {
      die(conn, Status(ErrorCode::kUnavailable, "connection closed by peer"));
      return;
    }
    if (result.would_block) break;
  }
}

Status Reactor::deliver(Conn& conn, std::span<std::uint8_t> bytes) {
  const auto sink = [this, &conn](BytesView frame) {
    if (conn.dead) return;
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (conn.callbacks.on_frame) conn.callbacks.on_frame(frame);
  };
  std::size_t pos = 0;
  if (conn.tail.empty()) {
    // The common case: whole frames decode straight from the chunk, and
    // only an incomplete last frame is copied aside.
    PG_RETURN_IF_ERROR(conn.decoder->decode(bytes, pos, sink));
    if (pos < bytes.size() && !conn.dead) {
      conn.tail = pool_.acquire();
      conn.tail.insert(conn.tail.end(), bytes.begin() + pos, bytes.end());
    }
    return Status::ok();
  }
  // A frame is pending: complete it (and decode whatever follows) in the
  // tail. Frames larger than the chunk accumulate here.
  conn.tail.insert(conn.tail.end(), bytes.begin(), bytes.end());
  PG_RETURN_IF_ERROR(conn.decoder->decode(conn.tail, pos, sink));
  if (pos == conn.tail.size()) {
    release_tail(conn);
  } else if (pos > 0) {
    conn.tail.erase(conn.tail.begin(),
                    conn.tail.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  return Status::ok();
}

void Reactor::release_tail(Conn& conn) {
  if (conn.tail.empty()) return;
  pool_.release(std::move(conn.tail));
  conn.tail = Bytes();
}

void Reactor::die(Conn& conn, const Status& reason) {
  release_tail(conn);
  if (conn.dead) return;
  conn.dead = true;
  if (conn.fd >= 0) {
    ::epoll_ctl(io_threads_[conn.io_index]->epoll_fd, EPOLL_CTL_DEL, conn.fd,
                nullptr);
  }
  if (conn.callbacks.on_closed) conn.callbacks.on_closed(reason);
}

void Reactor::drain_ready(IoThread& io) {
  {
    std::lock_guard<std::mutex> lock(io.ready_mutex);
    io.draining.swap(io.ready);
  }
  for (const Id id : io.draining) {
    std::shared_ptr<Conn> conn = find_and_begin(io, id);
    if (!conn) continue;
    // Clear before pumping so a write landing mid-pump re-queues; the pump
    // drains everything anyway, so the extra pass is a cheap no-op.
    conn->ready_queued.store(false, std::memory_order_release);
    pump(io, *conn);
    end_processing(io);
  }
  io.draining.clear();
}

int Reactor::next_timer_timeout_ms() {
  std::lock_guard<std::mutex> lock(timer_mutex_);
  TimeMicros best = -1;
  for (const auto& [id, entry] : timers_)
    if (best < 0 || entry.deadline < best) best = entry.deadline;
  if (best < 0) return -1;  // idle: sleep until a registration wakes us
  const TimeMicros now = steady_micros();
  if (best <= now) return 0;
  const TimeMicros delta = best - now;
  // Round up so we never spin on a deadline a fraction of a ms away.
  return static_cast<int>((delta + kMicrosPerMilli - 1) / kMicrosPerMilli);
}

void Reactor::fire_due_timers() {
  const TimeMicros now = steady_micros();
  std::vector<TimerId> due;
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    for (const auto& [id, entry] : timers_)
      if (entry.deadline <= now) due.push_back(id);
  }
  static telemetry::Counter& fired = telemetry::MetricRegistry::global().counter(
      "pg_reactor_timers_fired_total", "Reactor timer callbacks executed");
  for (const TimerId id : due) {
    // Claimed one at a time, so a callback that cancels a later timer of
    // this batch keeps it from running.
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(timer_mutex_);
      auto it = timers_.find(id);
      if (it == timers_.end()) continue;
      it->second.running = true;
      fn = std::move(it->second.fn);
    }
    fn();
    {
      std::lock_guard<std::mutex> lock(timer_mutex_);
      timers_.erase(id);
    }
    timer_cv_.notify_all();
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    fired.increment();
  }
}

bool Reactor::on_io_thread() { return t_on_io_thread; }

void Reactor::io_loop(std::size_t index) {
  t_on_io_thread = true;
  if (index == 0) t_timer_owner = this;
  IoThread& io = *io_threads_[index];
  t_io_loop = &io;
  std::vector<epoll_event> events(256);
  auto& registry = telemetry::MetricRegistry::global();
  auto& wakeup_counter = registry.counter(
      "pg_reactor_io_wakeups_total",
      "Reactor event-loop wakeups (polls for self-queued work excluded)");
  auto& frames_counter = registry.counter(
      "pg_reactor_frames_total", "Complete frames decoded by the reactor");
  auto& bytes_counter = registry.counter(
      "pg_reactor_read_bytes_total", "Bytes read by reactor I/O threads");
  std::uint64_t last_frames = 0;
  std::uint64_t last_bytes = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    // Work this thread queued for itself (a frame an inline handler wrote
    // to a channel this thread serves) runs next, after a zero-timeout poll
    // that still gives fd events and timers their turn. Otherwise only
    // thread 0 owns the timer wheel; everyone else sleeps until an fd or an
    // eventfd wakeup arrives — zero periodic syscalls when idle.
    bool self_queued = false;
    {
      std::lock_guard<std::mutex> lock(io.ready_mutex);
      self_queued = !io.ready.empty();
    }
    const int timeout_ms =
        self_queued ? 0 : index == 0 ? next_timer_timeout_ms() : -1;
    const int n = ::epoll_wait(io.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (!self_queued || n > 0) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      wakeup_counter.increment();
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (tag == kWakeupTag) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(io.event_fd, &drained, sizeof(drained));
        continue;
      }
      handle_conn_event(io, tag, mask);
    }
    drain_ready(io);
    if (index == 0) {
      fire_due_timers();
      // Mirror hot-path counters into the registry in batches (the atomics
      // are the source of truth; the registry is for scraping). Thread 0
      // only, so deltas against the global totals are not double-counted.
      const std::uint64_t frames_now = frames_.load(std::memory_order_relaxed);
      const std::uint64_t bytes_now =
          bytes_read_.load(std::memory_order_relaxed);
      if (frames_now != last_frames) {
        frames_counter.increment(frames_now - last_frames);
        last_frames = frames_now;
      }
      if (bytes_now != last_bytes) {
        bytes_counter.increment(bytes_now - last_bytes);
        last_bytes = bytes_now;
      }
    }
  }
}

PeriodicTimer::PeriodicTimer(TimeMicros interval, std::function<void()> fn)
    : interval_(interval), fn_(std::move(fn)) {
  if (interval_ > 0) arm();
}

void PeriodicTimer::arm() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return;
  // The reactor timer runs on I/O thread 0, so it only hands the tick off.
  timer_ = Reactor::global().schedule_timer(interval_, [this] {
    std::lock_guard<std::mutex> fired(mutex_);
    if (!stopped_) tick_ = ThreadCache::run([this] { tick(); });
  });
}

void PeriodicTimer::tick() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    tick_thread_ = std::this_thread::get_id();
  }
  fn_();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tick_thread_ = std::thread::id();
  }
  arm();
}

void PeriodicTimer::stop() {
  Reactor::TimerId timer = 0;
  ThreadCache::Handle tick;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    std::swap(timer, timer_);
    // From inside the tick, waiting for it would deadlock.
    if (tick_thread_ != std::this_thread::get_id()) tick = tick_;
  }
  // Once stopped_ is set, a firing timer hands off no new tick, so the
  // handle taken above covers the only tick that may still run.
  if (timer != 0) Reactor::global().cancel_timer(timer);
  tick.wait();
}

}  // namespace pg::net
