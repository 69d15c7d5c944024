#include "net/memory_channel.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace pg::net {

namespace internal {

namespace {
constexpr std::size_t kMaxIdleCapacity = 1024 * 1024;
}  // namespace

std::size_t PipeBuffer::take(std::uint8_t* buf, std::size_t max) {
  const std::size_t n = std::min(max, data_.size() - head_);
  if (n == 0) return 0;
  std::memcpy(buf, data_.data() + head_, n);
  head_ += n;
  if (head_ == data_.size()) {
    // Caught up: keep a working-size buffer, not a burst's high-water mark.
    if (data_.capacity() > kMaxIdleCapacity) {
      data_ = Bytes();
    } else {
      data_.clear();
    }
    head_ = 0;
  } else if (head_ > data_.size() / 2) {
    // A lagging reader: drop the consumed prefix so the buffer stays
    // within twice the unread bytes.
    data_.erase(data_.begin(),
                data_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return n;
}

std::size_t PipeBuffer::read(std::uint8_t* buf, std::size_t max) {
  std::unique_lock<std::mutex> lock(mutex_);
  readable_.wait(lock, [this] { return head_ < data_.size() || closed_; });
  return take(buf, max);  // 0 only when closed and drained => EOF
}

TryReadResult PipeBuffer::try_read(std::uint8_t* buf, std::size_t max) {
  std::lock_guard<std::mutex> lock(mutex_);
  TryReadResult result;
  if (head_ == data_.size()) {
    if (closed_) {
      result.eof = true;
    } else {
      result.would_block = true;
    }
    return result;
  }
  result.n = take(buf, max);
  return result;
}

void PipeBuffer::write(BytesView data) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    data_.insert(data_.end(), data.begin(), data.end());
    if (notify_) notify_();
  }
  readable_.notify_one();
}

void PipeBuffer::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    if (notify_) notify_();
  }
  readable_.notify_all();
}

bool PipeBuffer::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t PipeBuffer::held_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_.size();
}

void PipeBuffer::set_notify(std::function<void()> notify) {
  std::lock_guard<std::mutex> lock(mutex_);
  notify_ = std::move(notify);
}

}  // namespace internal

namespace {

class MemoryChannel final : public Channel {
 public:
  MemoryChannel(std::shared_ptr<internal::PipeBuffer> incoming,
                std::shared_ptr<internal::PipeBuffer> outgoing)
      : incoming_(std::move(incoming)), outgoing_(std::move(outgoing)) {}

  ~MemoryChannel() override {
    incoming_->set_notify({});
    close();
  }

  Result<std::size_t> read(std::uint8_t* buf, std::size_t max) override {
    const std::size_t n = incoming_->read(buf, max);
    stats_.bytes_received.fetch_add(n, std::memory_order_relaxed);
    stats_.reads.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  Status write(BytesView data) override {
    if (outgoing_->closed())
      return error(ErrorCode::kUnavailable, "channel closed");
    outgoing_->write(data);
    stats_.bytes_sent.fetch_add(data.size(), std::memory_order_relaxed);
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
  }

  void close() override {
    // Closing either end tears down both directions, like TCP RST:
    // blocked readers on both sides wake with EOF.
    incoming_->close();
    outgoing_->close();
  }

  const ChannelStats& stats() const override { return stats_; }

  // ---- event-driven extension: in-process writes never block, so event
  // mode only needs the readiness shim.

  bool enter_event_mode(std::function<void()> on_want_write) override {
    (void)on_want_write;  // writes complete synchronously; never queued
    return true;
  }

  Result<TryReadResult> try_read(std::uint8_t* buf, std::size_t max) override {
    TryReadResult result = incoming_->try_read(buf, max);
    if (result.n > 0) {
      stats_.bytes_received.fetch_add(result.n, std::memory_order_relaxed);
      stats_.reads.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }

  void watch_readable(std::function<void()> cb) override {
    incoming_->set_notify(std::move(cb));
  }

 private:
  std::shared_ptr<internal::PipeBuffer> incoming_;
  std::shared_ptr<internal::PipeBuffer> outgoing_;
  ChannelStats stats_;
};

}  // namespace

ChannelPair make_memory_channel_pair() {
  auto a_to_b = std::make_shared<internal::PipeBuffer>();
  auto b_to_a = std::make_shared<internal::PipeBuffer>();
  ChannelPair pair;
  pair.a = std::make_unique<MemoryChannel>(b_to_a, a_to_b);
  pair.b = std::make_unique<MemoryChannel>(a_to_b, b_to_a);
  return pair;
}

}  // namespace pg::net
