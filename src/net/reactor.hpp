// Reactor — the event-driven proxy core (ROADMAP item 2).
//
// A small, fixed set of I/O threads owns every registered channel: each
// thread runs an epoll loop (edge-triggered for fd-backed channels, a
// callback readiness shim for in-process ones), reads into its own 64 KiB
// chunk, runs the link's incremental frame decoder in place on whatever
// bytes arrived, and hands complete messages to the registration's
// on_frame callback — which must never block. Only the bytes of an
// incomplete trailing frame are copied, into a tail buffer borrowed from
// the pool until the frame completes. Connection runs every envelope's
// handler to completion right there; the few handlers whose work blocks
// hand it to the process ThreadCache (Connection::offload). Writes that
// cannot complete immediately queue inside the channel and are drained
// here on EPOLLOUT; a write issued on an I/O thread never waits for that
// queue to shrink (Reactor::on_io_thread).
//
// Self-wake rule: a readiness notification raised on the very I/O thread
// that serves the channel (an inline handler writing to an in-process
// channel of the same loop) only queues the channel on that thread's ready
// list; it writes no eventfd. The loop polls with a zero timeout while its
// ready list is non-empty, so fd events and timers still get a turn on
// every iteration, and a chain of inline hops costs no wakeups.
//
// Timers: every schedule_timer callback runs on I/O thread 0, between
// event batches, so it must not block either. The reactor starts no thread
// besides its I/O threads; work that may block (a PeriodicTimer tick, an
// offloaded handler) runs on the process ThreadCache.
//
// This replaces the thread-per-connection reader model: one proxy holds
// 10k+ concurrent connections on its io_threads alone
// (bench/bench_connections.cpp proves the claim).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/thread_cache.hpp"
#include "net/buffer_pool.hpp"
#include "net/channel.hpp"
#include "net/frame_decoder.hpp"

namespace pg::net {

struct ReactorOptions {
  /// Event-loop threads. One suffices for tens of thousands of mostly-idle
  /// connections; bump for multi-core hot paths.
  std::size_t io_threads = 1;
};

class Reactor {
 public:
  using Id = std::uint64_t;
  using TimerId = std::uint64_t;

  struct Callbacks {
    /// One complete message; runs on an I/O thread — must not block.
    std::function<void(BytesView)> on_frame;
    /// Stream death (EOF, read error, decode error); I/O thread, at most
    /// once, with frames delivered before it. Must not block.
    std::function<void(const Status&)> on_closed;
  };

  struct Stats {
    std::uint64_t connections = 0;  // currently registered
    std::uint64_t frames = 0;
    std::uint64_t bytes_read = 0;
    /// Reads that ended inside a frame with none pending, so its bytes
    /// were copied to a pooled tail buffer.
    std::uint64_t partial_tails = 0;
    std::uint64_t timers_fired = 0;
    /// Event-loop wakeups: epoll_wait returns, not counting a zero-timeout
    /// poll for work the thread queued itself that finds no event.
    std::uint64_t wakeups = 0;
  };

  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The process-wide reactor every Connection registers with. Sized from
  /// PG_REACTOR_IO_THREADS when set. Never destroyed
  /// (connections may close during static teardown).
  static Reactor& global();

  /// Registers a channel: the reactor becomes the channel's single reader
  /// and drives `decoder` over incoming bytes. Channel and decoder must
  /// stay valid until remove_channel(id) returns. Fails when the channel
  /// cannot enter event mode.
  Result<Id> add_channel(Channel& channel, FrameDecoder& decoder,
                         Callbacks callbacks);

  /// Detaches a channel. On return no callback for it is running or will
  /// run again (barrier over the owning I/O thread), so the caller may
  /// destroy the channel. Safe to call with an id that already died.
  void remove_channel(Id id);

  /// Read-side flow control: a paused channel's bytes stay in the kernel
  /// socket buffer (true TCP backpressure) or the in-process pipe until
  /// resume_reads. Pausing is edge-safe: resume re-queues a pump.
  void pause_reads(Id id);
  void resume_reads(Id id);

  /// One-shot timer after `delay`. The callback runs on I/O thread 0
  /// itself, between event batches, and must not block: it costs no thread
  /// handoff, which matters for timers that fire every millisecond under
  /// load. Periodic work that may block uses PeriodicTimer.
  TimerId schedule_timer(TimeMicros delay, std::function<void()> fn);

  /// Cancels a timer. True when its callback had not started, even when
  /// it was due in the batch whose earlier callback cancels it; when the
  /// callback is already running, blocks until it finishes (unless called
  /// from the callback itself) and returns false.
  bool cancel_timer(TimerId id);

  /// True on an event-loop thread of any Reactor. Such a thread must never
  /// wait on write backpressure: it is the thread that drains the queue.
  static bool on_io_thread();

  std::size_t io_thread_count() const { return io_threads_.size(); }
  Stats stats() const;

 private:
  struct Conn;
  struct IoThread;
  struct TimerEntry;

  void io_loop(std::size_t index);
  void wake(IoThread& io);
  /// Atomically resolves `id` and marks it in-flight on `io` — the other
  /// half of remove_channel's barrier.
  std::shared_ptr<Conn> find_and_begin(IoThread& io, Id id);
  void end_processing(IoThread& io);
  void notify_readable(Id id);
  void mark_want_write(const std::shared_ptr<Conn>& conn);
  void handle_conn_event(IoThread& io, Id id, std::uint32_t events);
  /// Reads `conn` into the thread's chunk until it would block, and
  /// delivers every complete frame. Runs only from io_loop, never nested.
  void pump(IoThread& io, Conn& conn);
  /// Decodes freshly read bytes: in place from the chunk when no partial
  /// frame is pending, else appended to and decoded from the pooled tail.
  Status deliver(Conn& conn, std::span<std::uint8_t> bytes);
  void release_tail(Conn& conn);
  void die(Conn& conn, const Status& reason);
  void drain_ready(IoThread& io);
  int next_timer_timeout_ms();
  /// Runs every due timer's callback on this thread (I/O thread 0).
  void fire_due_timers();

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  BufferPool pool_;

  mutable std::mutex conns_mutex_;
  std::unordered_map<Id, std::shared_ptr<Conn>> conns_;
  std::atomic<Id> next_id_{1};

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::map<TimerId, TimerEntry> timers_;
  std::atomic<TimerId> next_timer_id_{1};

  std::atomic<bool> stop_{false};

  // Aggregate counters, mirrored into pg_reactor_* registry metrics.
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> wakeups_{0};
};

/// A self-rearming timer on the global reactor: runs `fn` every `interval`
/// until stop() or destruction. Inert when `interval` <= 0. The one place a
/// periodic tick may block: the reactor timer only hands the tick to the
/// ThreadCache, which re-arms the timer once `fn` returns, so ticks never
/// overlap. Holds no thread between ticks.
class PeriodicTimer {
 public:
  PeriodicTimer(TimeMicros interval, std::function<void()> fn);
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Cancels the timer; a tick already running finishes first (unless
  /// stop() is called from it) and does not re-arm. No tick starts after
  /// stop() returns. Idempotent.
  void stop();

 private:
  void arm();
  /// The ThreadCache task of one tick: runs `fn_`, then re-arms.
  void tick();

  const TimeMicros interval_;
  const std::function<void()> fn_;
  std::mutex mutex_;
  bool stopped_ = false;         // guarded by mutex_
  Reactor::TimerId timer_ = 0;   // guarded by mutex_
  ThreadCache::Handle tick_;     // the last tick handed off; guarded by mutex_
  std::thread::id tick_thread_;  // the thread inside fn_; guarded by mutex_
};

}  // namespace pg::net
