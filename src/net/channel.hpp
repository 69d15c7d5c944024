// Reliable byte-stream abstraction (paper layer "UDP/TCP").
//
// Everything above this line — framing, GSSL, the inter-proxy protocol —
// only sees a Channel, so the same middleware runs over in-process pipes
// (tests, benchmarks, the simulated grid) and real TCP sockets (examples).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace pg::net {

/// Traffic counters every channel keeps; experiments read these to attribute
/// bytes to link classes (intra-site vs inter-site).
struct ChannelStats {
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};
  /// Event-mode slow-peer accounting: writes that queued instead of going
  /// straight to the wire, and writer stalls on a full send queue.
  std::atomic<std::uint64_t> queued_writes{0};
  std::atomic<std::uint64_t> backpressure_waits{0};
};

/// Outcome of a non-blocking read attempt (see Channel::try_read).
struct TryReadResult {
  std::size_t n = 0;        // bytes placed in the buffer
  bool eof = false;         // peer closed cleanly (only when n == 0)
  bool would_block = false; // no data right now (only when n == 0)
};

/// A bidirectional, reliable, ordered byte stream.
///
/// Blocking semantics: read() waits for at least one byte or EOF/close;
/// write() either accepts the whole buffer or fails. Both ends may be used
/// from different threads, but each direction must have a single reader and
/// a single writer.
///
/// Event-driven extension: channels that support the reactor core
/// (net/reactor.hpp) additionally implement enter_event_mode() plus either
/// event_fd() (fd-backed, epoll-able) or watch_readable() (in-process,
/// callback-based). In event mode the reactor is the single reader and uses
/// try_read(); writes may queue internally, drained by the reactor via
/// flush_pending_writes() when the peer can accept more.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Reads up to `max` bytes into `buf`. Returns the count read; 0 means
  /// the peer closed cleanly (EOF).
  virtual Result<std::size_t> read(std::uint8_t* buf, std::size_t max) = 0;

  /// Writes the whole buffer or returns an error. In event mode the bytes
  /// may be queued and the call still means "accepted for delivery in
  /// order". The queue is bounded: a caller blocks on a full queue, unless
  /// it is a reactor I/O thread or the channel's writers pace themselves
  /// (pace_writes_externally).
  virtual Status write(BytesView data) = 0;

  /// Closes both directions; concurrent blocked reads wake with EOF, and
  /// writers blocked on event-mode backpressure wake with an error.
  virtual void close() = 0;

  virtual const ChannelStats& stats() const = 0;

  /// Reads exactly n bytes (looping over read); error on early EOF.
  Status read_exact(std::uint8_t* buf, std::size_t n);

  // ---- event-driven extension (net/reactor.hpp) ------------------------

  /// Switches the channel into event mode. `on_want_write` is invoked
  /// (from any writer thread) when the internal send queue transitions
  /// from empty to non-empty, i.e. when the reactor should start watching
  /// writability. Returns false when the channel cannot be event-driven.
  virtual bool enter_event_mode(std::function<void()> on_want_write) {
    (void)on_want_write;
    return false;
  }

  /// The epoll-able file descriptor, or -1 for in-process channels (which
  /// must support watch_readable instead).
  virtual int event_fd() const { return -1; }

  /// Non-blocking read attempt; only meaningful in event mode.
  virtual Result<TryReadResult> try_read(std::uint8_t* buf, std::size_t max) {
    (void)buf;
    (void)max;
    return error(ErrorCode::kInternal,
                 "channel does not support non-blocking reads");
  }

  /// fd-less channels: `cb` fires whenever bytes (or EOF) become readable.
  /// Pass an empty function to clear. The callback may be invoked from the
  /// writer's thread and must not block.
  virtual void watch_readable(std::function<void()> cb) { (void)cb; }

  /// Drains internally queued event-mode writes now that the peer is
  /// writable. Returns true once the queue is empty (or the channel
  /// failed) — i.e. when the reactor can stop watching writability.
  virtual bool flush_pending_writes() { return true; }

  /// Bytes currently queued for asynchronous delivery.
  virtual std::size_t queued_write_bytes() const { return 0; }

  /// From now on write() never waits on a full event-mode queue: the owner
  /// calls wait_writable() *before* taking the lock that serializes its
  /// writes, so no writer ever sleeps holding that lock while a reactor
  /// I/O thread (which must drain the queue) waits for it.
  virtual void pace_writes_externally() {}

  /// Blocks while the event-mode send queue is over its bound, until it
  /// drains or the channel closes. Returns at once on a reactor I/O thread.
  virtual void wait_writable() {}
};

using ChannelPtr = std::unique_ptr<Channel>;

}  // namespace pg::net
