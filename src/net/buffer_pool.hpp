// BufferPool — recycled partial-frame buffers for the reactor core.
//
// The reactor reads into one chunk per I/O thread and decodes whole frames
// straight from it; only the bytes of an incomplete trailing frame need a
// home until the rest arrives. A connection borrows a buffer from this
// pool for that tail and returns it as soon as the frame completes, so ten
// thousand idle connections pin no buffers at all. The pool keeps a
// bounded free list of warmed-up buffers (capacity already grown to the
// working frame size), so reassembly allocates nothing in steady state.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"

namespace pg::net {

class BufferPool {
 public:
  /// `max_pooled` bounds the free list; `reserve_bytes` is the capacity a
  /// freshly created buffer starts with (64 KiB default matches the
  /// reactor's read chunk).
  explicit BufferPool(std::size_t max_pooled = 64,
                      std::size_t reserve_bytes = 64 * 1024);

  /// Borrows a buffer (empty, capacity >= reserve_bytes).
  Bytes acquire();

  /// Returns a buffer to the pool. Cleared here; oversized free lists just
  /// drop the buffer on the floor.
  void release(Bytes buffer);

  std::size_t pooled() const;
  /// Buffers handed out by acquire() so far.
  std::uint64_t acquires() const;

 private:
  const std::size_t max_pooled_;
  const std::size_t reserve_bytes_;
  mutable std::mutex mutex_;
  std::vector<Bytes> free_;    // guarded by mutex_
  std::uint64_t acquires_ = 0;  // guarded by mutex_
};

}  // namespace pg::net
