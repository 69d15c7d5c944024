#include "mpi/mailbox.hpp"

#include <algorithm>

namespace pg::mpi {

Status Mailbox::deliver(MpiMessage message) {
  std::vector<std::shared_ptr<Waiter>> woken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
      return error(ErrorCode::kUnavailable, "mailbox closed");
    queue_.push_back(std::move(message));
    const MpiMessage& arrived = queue_.back();
    // Wake every waiter whose predicate can match — only one will take the
    // message, but several may be eligible and FIFO order is theirs to race.
    for (const auto& w : waiters_) {
      if (matches(arrived, w->src, w->tag)) woken.push_back(w);
    }
  }
  for (const auto& w : woken) w->wake.notify_one();
  return Status::ok();
}

Result<MpiMessage> Mailbox::recv(std::int32_t src, std::int32_t tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::shared_ptr<Waiter> self;
  const auto unregister = [&] {
    if (self) waiters_.erase(std::find(waiters_.begin(), waiters_.end(), self));
  };
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, src, tag)) {
        MpiMessage out = std::move(*it);
        queue_.erase(it);
        unregister();
        return out;
      }
    }
    if (closed_) {
      unregister();
      return error(ErrorCode::kUnavailable, "mailbox closed");
    }
    if (!self) {
      self = std::make_shared<Waiter>();
      self->src = src;
      self->tag = tag;
      waiters_.push_back(self);
    }
    self->wake.wait(lock);
  }
}

Result<MpiMessage> Mailbox::try_recv(std::int32_t src, std::int32_t tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, src, tag)) {
      MpiMessage out = std::move(*it);
      queue_.erase(it);
      return out;
    }
  }
  if (closed_) return error(ErrorCode::kUnavailable, "mailbox closed");
  return error(ErrorCode::kNotFound, "no matching message");
}

void Mailbox::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  for (const auto& w : waiters_) w->wake.notify_one();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace pg::mpi
