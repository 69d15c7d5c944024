// Matching mailbox: the per-rank receive queue with MPI matching semantics
// (filter by source and tag, wildcards allowed, FIFO within a match).
//
// Wakeups are targeted: deliver() signals only the blocked receivers whose
// (src, tag) predicate can match the new message, so a fan-out delivery to
// a mailbox with many selective receivers does not stampede them all. It
// signals them after releasing the mailbox lock: a receiver that runs at
// once (one CPU, or a woken thread that preempts the deliverer) then finds
// the lock free instead of blocking on it straight away.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "mpi/message.hpp"

namespace pg::mpi {

class Mailbox {
 public:
  /// Enqueues a message and wakes matching receivers. Fails after close().
  Status deliver(MpiMessage message);

  /// Blocks until a message matching (src, tag) arrives (wildcards:
  /// kAnySource / kAnyTag), then removes and returns the earliest match.
  Result<MpiMessage> recv(std::int32_t src, std::int32_t tag);

  /// Non-blocking variant: kNotFound when nothing matches right now.
  Result<MpiMessage> try_recv(std::int32_t src, std::int32_t tag);

  /// Wakes all blocked receivers with kUnavailable and rejects future
  /// deliveries. Messages already queued are still receivable.
  void close();

  std::size_t pending() const;

 private:
  /// One blocked recv(): its match predicate plus a private condition
  /// variable, registered in `waiters_` for the duration of the wait.
  /// Shared, so a deliverer signalling it after unlocking never touches a
  /// waiter that has already returned.
  struct Waiter {
    std::int32_t src;
    std::int32_t tag;
    std::condition_variable wake;
  };

  bool matches(const MpiMessage& m, std::int32_t src, std::int32_t tag) const {
    return (src == kAnySource || m.src == static_cast<std::uint32_t>(src)) &&
           (tag == kAnyTag || m.tag == static_cast<std::uint32_t>(tag));
  }

  mutable std::mutex mutex_;
  std::deque<MpiMessage> queue_;
  std::vector<std::shared_ptr<Waiter>> waiters_;
  bool closed_ = false;
};

}  // namespace pg::mpi
