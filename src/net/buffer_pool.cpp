#include "net/buffer_pool.hpp"

namespace pg::net {

BufferPool::BufferPool(std::size_t max_pooled, std::size_t reserve_bytes)
    : max_pooled_(max_pooled), reserve_bytes_(reserve_bytes) {}

Bytes BufferPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++acquires_;
    if (!free_.empty()) {
      Bytes buffer = std::move(free_.back());
      free_.pop_back();
      return buffer;
    }
  }
  Bytes buffer;
  buffer.reserve(reserve_bytes_);
  return buffer;
}

void BufferPool::release(Bytes buffer) {
  buffer.clear();
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() < max_pooled_) free_.push_back(std::move(buffer));
}

std::size_t BufferPool::pooled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

std::uint64_t BufferPool::acquires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return acquires_;
}

}  // namespace pg::net
