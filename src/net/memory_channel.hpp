// In-process channel pair backed by two byte queues.
//
// This is how the simulated grid wires nodes, proxies and sites together:
// real threads, real bytes, real crypto — only the physical network is
// replaced. Deterministic byte accounting makes the overhead experiments
// (E2/E3/E4) exactly reproducible.
//
// Each direction is one contiguous buffer: a write appends its bytes with
// one copy and a read copies them out with another, the pair of copies a
// kernel socket makes too. The buffer keeps its capacity up to 1 MiB, so
// a steady stream of writes and reads allocates nothing, and a drained
// pipe does not pin a burst's worth of memory.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>

#include "net/channel.hpp"

namespace pg::net {

/// Creates two connected channel ends. Data written to one end is read from
/// the other, FIFO, with no size limit (the grid's flow control lives at the
/// protocol layer, as it did over 2003-era TCP buffers).
struct ChannelPair {
  ChannelPtr a;
  ChannelPtr b;
};
ChannelPair make_memory_channel_pair();

namespace internal {

/// One direction of the pipe: a mutex-guarded contiguous byte queue,
/// data_[head_, data_.size()) unread.
class PipeBuffer {
 public:
  /// Blocks for at least one byte; returns 0 only once the pipe is closed
  /// and drained (EOF).
  std::size_t read(std::uint8_t* buf, std::size_t max);
  /// Non-blocking variant: the reactor's readiness shim for in-process
  /// channels.
  TryReadResult try_read(std::uint8_t* buf, std::size_t max);
  void write(BytesView data);
  void close();
  bool closed() const;
  /// Bytes the buffer holds, the consumed prefix not yet compacted away
  /// included.
  std::size_t held_bytes() const;
  /// Registers a readability callback, invoked under the pipe lock after
  /// every write and on close (so clearing it with an empty function
  /// guarantees no further invocations once set_notify returns).
  void set_notify(std::function<void()> notify);

 private:
  /// Copies up to `max` unread bytes out; resets the buffer when the
  /// reader catches up (freeing it past 1 MiB) and compacts it once the
  /// consumed prefix passes half of it. Requires mutex_.
  std::size_t take(std::uint8_t* buf, std::size_t max);

  mutable std::mutex mutex_;
  std::condition_variable readable_;
  Bytes data_;
  std::size_t head_ = 0;  // first unread byte of data_
  bool closed_ = false;
  std::function<void()> notify_;  // guarded by mutex_
};

}  // namespace internal

}  // namespace pg::net
