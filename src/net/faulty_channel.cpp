#include "net/faulty_channel.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

namespace pg::net {

FaultInjector::Decision FaultInjector::decide(bool forward) {
  Decision d;
  std::lock_guard<std::mutex> lock(mutex_);
  ++write_index_;
  writes_seen_.fetch_add(1, std::memory_order_relaxed);
  if (auto it = scheduled_drops_.find(write_index_);
      it != scheduled_drops_.end()) {
    scheduled_drops_.erase(it);
    d.drop = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (policy_.partition_forward && forward) {
    d.drop = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  // Draw every rate even when unused so the random stream — and therefore
  // the whole fault schedule — depends only on the seed and write order,
  // not on which rates happen to be zero.
  const double r_drop = rng_.next_double();
  const double r_dup = rng_.next_double();
  const double r_corrupt = rng_.next_double();
  const double r_delay = rng_.next_double();
  const std::uint64_t salt = rng_.next_u64();
  if (policy_.delay_rate > 0.0 && r_delay < policy_.delay_rate &&
      policy_.max_delay > 0) {
    d.delay = static_cast<TimeMicros>(
        salt % static_cast<std::uint64_t>(policy_.max_delay));
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r_drop < policy_.drop_rate) {
    d.drop = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  if (r_corrupt < policy_.corrupt_rate) {
    d.corrupt = true;
    d.corrupt_salt = static_cast<std::size_t>(salt);
    corrupted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (r_dup < policy_.duplicate_rate) {
    d.duplicate = true;
    duplicated_.fetch_add(1, std::memory_order_relaxed);
  }
  return d;
}

namespace {

class FaultyChannel : public Channel {
 public:
  FaultyChannel(ChannelPtr inner, FaultInjectorPtr injector,
                FaultDirection direction)
      : inner_(std::move(inner)),
        injector_(std::move(injector)),
        forward_(direction == FaultDirection::kForward) {}

  Result<std::size_t> read(std::uint8_t* buf, std::size_t max) override {
    return inner_->read(buf, max);
  }

  Status write(BytesView data) override {
    const auto d = injector_->decide(forward_);
    if (d.delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(d.delay));
    }
    if (d.drop) {
      // A dropped write still "succeeds" from the sender's point of
      // view, like a datagram swallowed by the network.
      return Status::ok();
    }
    if (d.corrupt && !data.empty()) {
      scratch_.assign(data.begin(), data.end());
      scratch_[d.corrupt_salt % scratch_.size()] ^= 0x40;
      data = BytesView(scratch_.data(), scratch_.size());
    }
    PG_RETURN_IF_ERROR(inner_->write(data));
    if (d.duplicate) {
      return inner_->write(data);
    }
    return Status::ok();
  }

  void close() override { inner_->close(); }

  const ChannelStats& stats() const override { return inner_->stats(); }

  // ---- event-driven extension: decorate writes, forward everything else.
  // Fault decisions happen in write() above before the inner channel
  // queues anything. Delays sleep on the writer's thread, which is a
  // reactor I/O thread when an inline data handler writes: the injected
  // stall then holds that thread's other connections too.

  bool enter_event_mode(std::function<void()> on_want_write) override {
    return inner_->enter_event_mode(std::move(on_want_write));
  }

  int event_fd() const override { return inner_->event_fd(); }

  Result<TryReadResult> try_read(std::uint8_t* buf, std::size_t max) override {
    return inner_->try_read(buf, max);
  }

  void watch_readable(std::function<void()> cb) override {
    inner_->watch_readable(std::move(cb));
  }

  bool flush_pending_writes() override {
    return inner_->flush_pending_writes();
  }

  std::size_t queued_write_bytes() const override {
    return inner_->queued_write_bytes();
  }

  void pace_writes_externally() override { inner_->pace_writes_externally(); }

  void wait_writable() override { inner_->wait_writable(); }

 private:
  ChannelPtr inner_;
  FaultInjectorPtr injector_;
  bool forward_;
  std::vector<std::uint8_t> scratch_;  // single-writer per direction
};

}  // namespace

ChannelPtr make_faulty_channel(ChannelPtr inner, FaultInjectorPtr injector,
                               FaultDirection direction) {
  return std::make_unique<FaultyChannel>(std::move(inner), std::move(injector),
                                         direction);
}

}  // namespace pg::net
