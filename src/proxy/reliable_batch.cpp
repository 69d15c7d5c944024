#include "proxy/reliable_batch.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/reactor.hpp"

namespace pg::proxy {

namespace {

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(steady_micros());
}

/// Lane split: small frames (barriers, control-sized payloads) jump ahead
/// of bulk transfers already waiting on the same link.
bool latency_lane(const proto::MpiFrame& frame) {
  return frame.payload.size() <= kLatencyLaneBytes;
}

}  // namespace

// ---------------------------------------------------------------- sender

ReliableBatchSender::ReliableBatchSender(std::string origin,
                                         SenderWindowConfig config,
                                         Resolve resolve,
                                         BatchSenderInstruments instruments,
                                         TimeMicros retry_interval)
    : origin_(std::move(origin)),
      config_(config),
      resolve_(std::move(resolve)),
      instruments_(std::move(instruments)),
      retry_interval_(static_cast<std::uint64_t>(retry_interval)) {}

ReliableBatchSender::~ReliableBatchSender() { shutdown(); }

std::shared_ptr<SenderWindow> ReliableBatchSender::window(
    const BatchLink& link) {
  std::lock_guard<std::mutex> lock(mutex_);
  return link_locked(link).window;
}

ReliableBatchSender::Link& ReliableBatchSender::link_locked(
    const BatchLink& key) {
  Link& link = links_[key];
  if (link.window == nullptr)
    link.window = std::make_shared<SenderWindow>(config_);
  return link;
}

Status ReliableBatchSender::enqueue(const BatchLink& key,
                                   std::vector<proto::MpiFrame> frames) {
  std::unique_lock<std::mutex> lock(mutex_);
  const OwedAcks overdue = take_overdue_acks_locked(now_micros());
  Link& link = link_locked(key);
  for (proto::MpiFrame& frame : frames) {
    std::deque<proto::MpiFrame>& lane =
        latency_lane(frame) ? link.latency : link.bulk;
    lane.push_back(std::move(frame));
  }
  const bool link_down =
      drain(lock, key, link, FlushReason::kImmediate).link_down;
  lock.unlock();
  send_acks(overdue);
  if (!link_down) return Status::ok();
  return error(ErrorCode::kUnavailable, "no live connection to " + key.name);
}

ReliableBatchSender::Drained ReliableBatchSender::drain(
    std::unique_lock<std::mutex>& lock, const BatchLink& key, Link& link,
    FlushReason trigger) {
  if (link.draining || link.empty()) return {};
  link.draining = true;
  link.retry_at = 0;
  const std::shared_ptr<SenderWindow> window = link.window;
  const auto park = [&] {
    link.draining = false;
    link.retry_at = now_micros() + retry_interval_;
    arm_locked(link.retry_at);
  };
  Drained drained;
  bool first = true;
  for (;;) {
    if (link.empty()) {
      link.draining = false;
      return drained;
    }
    if (!window->can_send(1)) {
      // Congestion: in-flight bytes exceed the link's AIMD budget. An ack
      // (on_ack) or the retry timer resumes the queue.
      park();
      return drained;
    }

    // Carve one envelope's worth of frames off the front, latency lane
    // first. The byte budget shrinks to the window's current chunk size.
    const std::size_t max_bytes =
        std::min(kBatchMaxBytes, window->budget_bytes());
    std::vector<proto::MpiFrame> chunk;
    BatchFlush flush;
    bool bytes_full = false;
    const auto carve = [&](std::deque<proto::MpiFrame>& lane) {
      while (!lane.empty() && chunk.size() < kBatchMaxFrames) {
        const std::size_t size = lane.front().payload.size();
        if (!chunk.empty() && flush.bytes + size > max_bytes) {
          bytes_full = true;
          break;
        }
        flush.bytes += size;
        chunk.push_back(std::move(lane.front()));
        lane.pop_front();
      }
    };
    carve(link.latency);
    flush.latency_frames = chunk.size();
    if (!bytes_full) carve(link.bulk);
    flush.frames = chunk.size();
    flush.reason = bytes_full                       ? FlushReason::kBytes
                   : chunk.size() >= kBatchMaxFrames ? FlushReason::kFrames
                   : first                          ? trigger
                                                    : FlushReason::kCombine;
    first = false;
    // Held acks ride this envelope. If the link turns out to be down they
    // are lost with it; the far end's retransmission is acked at once.
    std::vector<proto::MpiBatchAck> acks =
        take_acks_locked(link, now_micros());

    // Network I/O happens outside the lock; the `draining` flag keeps this
    // thread the queue's only drainer meanwhile.
    lock.unlock();
    Connection* conn = resolve_(key);
    if (conn == nullptr || !conn->alive()) {
      lock.lock();
      if (trigger == FlushReason::kTeardown) {
        // Nobody retries after teardown: a send to a dead link vanishes.
        drained.dropped += chunk.size();
        continue;
      }
      // Put the chunk back at the front of its lanes and retry later, by
      // which time a reconnect may have revived the link.
      for (auto it = chunk.rbegin(); it != chunk.rend(); ++it) {
        std::deque<proto::MpiFrame>& lane =
            latency_lane(*it) ? link.latency : link.bulk;
        lane.push_front(std::move(*it));
      }
      drained.link_down = true;
      park();
      return drained;
    }
    const std::uint64_t deadline = send_chunk(
        key, *window, *conn, std::move(chunk), std::move(acks), flush);
    lock.lock();
    arm_locked(deadline);
  }
}

std::uint64_t ReliableBatchSender::send_chunk(
    const BatchLink& key, SenderWindow& window, Connection& conn,
    std::vector<proto::MpiFrame> chunk, std::vector<proto::MpiBatchAck> acks,
    const BatchFlush& flush) {
  proto::MpiBatch batch;
  batch.origin = origin_;
  batch.seq = window.next_seq();
  std::map<std::uint64_t, std::size_t> frames_per_app;
  for (const proto::MpiFrame& frame : chunk) ++frames_per_app[frame.app_id];
  batch.frames = std::move(chunk);
  batch.acks = std::move(acks);
  const Bytes wire = batch.serialize();
  // Tracked before the send: the ack may race back on another thread. A
  // retransmission resends these wire bytes verbatim, piggybacked acks
  // included. That is harmless: acks are cumulative, so an old one covers
  // nothing new, and apply_ack ignores seqs already released.
  const std::uint64_t deadline =
      window.track(batch.seq, wire, std::move(frames_per_app), now_micros(),
                   static_cast<std::uint64_t>(kMaxAckDelay));
  add_inflight(static_cast<std::int64_t>(wire.size()));
  (void)conn.notify(proto::OpCode::kMpiBatch, wire);
  if (instruments_.flushed) instruments_.flushed(key, flush);
  return deadline;
}

std::size_t ReliableBatchSender::on_ack(const BatchLink& link,
                                        BytesView payload) {
  Result<proto::MpiBatchAck> ack = proto::MpiBatchAck::parse(payload);
  return ack.is_ok() ? apply_ack(link, ack.value()) : 0;
}

std::size_t ReliableBatchSender::apply_ack(const BatchLink& link,
                                           const proto::MpiBatchAck& ack) {
  if (ack.origin != origin_) return 0;
  std::shared_ptr<SenderWindow> link_window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = links_.find(link);
    if (it == links_.end()) return 0;
    link_window = it->second.window;
  }
  const AckOutcome out = link_window->on_ack(ack.cumulative, ack.selective,
                                             now_micros(), ack.ack_delay_us);
  add_inflight(-static_cast<std::int64_t>(out.released_bytes));
  for (const std::uint64_t rtt : out.rtt_samples)
    instruments_.ack_rtt.observe(static_cast<double>(rtt));
  if (out.released > 0) {
    // Released window space may unblock a queue parked by congestion.
    std::unique_lock<std::mutex> lock(mutex_);
    (void)drain(lock, link, links_.at(link), FlushReason::kWindow);
  }
  return out.released;
}

void ReliableBatchSender::owe_ack(const BatchLink& key,
                                  const std::string& origin,
                                  AckCoverage coverage, bool immediate) {
  const std::uint64_t now = now_micros();
  std::unique_lock<std::mutex> lock(mutex_);
  Link& link = link_locked(key);
  Link::HeldAck& held = link.held_acks[origin];
  held.coverage = std::move(coverage);
  held.newest_at = now;
  if (link.held_batches++ == 0) {
    link.ack_due = now + static_cast<std::uint64_t>(kMaxAckDelay);
    if (ack_due_min_ == 0 || link.ack_due < ack_due_min_)
      ack_due_min_ = link.ack_due;
  }
  OwedAcks owed = take_overdue_acks_locked(now);
  if (immediate || link.held_batches >= kAckEveryBatches) {
    owed.emplace_back(key, take_acks_locked(link, now));
  } else {
    arm_locked(link.ack_due);
  }
  lock.unlock();
  send_acks(owed);
}

std::vector<proto::MpiBatchAck> ReliableBatchSender::take_acks_locked(
    Link& link, std::uint64_t now) {
  std::vector<proto::MpiBatchAck> acks;
  acks.reserve(link.held_acks.size());
  for (auto& [origin, held] : link.held_acks) {
    proto::MpiBatchAck ack;
    ack.origin = origin;
    ack.cumulative = held.coverage.cumulative;
    ack.selective = std::move(held.coverage.selective);
    ack.ack_delay_us = now > held.newest_at ? now - held.newest_at : 0;
    acks.push_back(std::move(ack));
  }
  link.held_acks.clear();
  link.held_batches = 0;
  link.ack_due = 0;
  return acks;
}

ReliableBatchSender::OwedAcks ReliableBatchSender::take_overdue_acks_locked(
    std::uint64_t now) {
  OwedAcks overdue;
  if (ack_due_min_ == 0 || now < ack_due_min_) return overdue;
  ack_due_min_ = 0;
  for (auto& [key, link] : links_) {
    if (link.ack_due == 0) continue;
    if (link.ack_due <= now) {
      overdue.emplace_back(key, take_acks_locked(link, now));
    } else if (ack_due_min_ == 0 || link.ack_due < ack_due_min_) {
      ack_due_min_ = link.ack_due;
    }
  }
  return overdue;
}

void ReliableBatchSender::send_acks(const OwedAcks& owed) {
  for (const auto& [key, acks] : owed) {
    if (acks.empty()) continue;
    Connection* conn = resolve_(key);
    if (conn == nullptr) continue;
    for (const proto::MpiBatchAck& ack : acks)
      (void)conn->notify(proto::OpCode::kMpiBatchAck, ack.serialize());
  }
}

std::size_t ReliableBatchSender::drop_app(std::uint64_t app_id) {
  std::vector<std::shared_ptr<SenderWindow>> windows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, link] : links_) windows.push_back(link.window);
  }
  std::size_t frames = 0;
  for (const auto& window : windows) {
    const SenderWindow::DropOutcome dropped = window->drop_app(app_id);
    frames += dropped.frames;
    add_inflight(-static_cast<std::int64_t>(dropped.bytes));
  }
  return frames;
}

std::size_t ReliableBatchSender::teardown_flush() {
  std::size_t dropped = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& [key, link] : links_)
    dropped += drain(lock, key, link, FlushReason::kTeardown).dropped;
  return dropped;
}

void ReliableBatchSender::shutdown() {
  std::vector<std::uint64_t> timers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    for (const auto& [token, armed] : armed_) timers.push_back(armed.timer);
    armed_.clear();
  }
  // Waits out a callback that is already running; it sees stopped_ and
  // does not re-arm.
  for (const std::uint64_t timer : timers)
    net::Reactor::global().cancel_timer(timer);
}

void ReliableBatchSender::arm_locked(std::uint64_t due) {
  if (stopped_ || due == 0) return;
  for (const auto& [token, armed] : armed_)
    if (armed.due <= due) return;
  const std::uint64_t now = now_micros();
  const std::uint64_t token = next_token_++;
  // fire() never blocks, as a reactor timer must not: under steady traffic
  // the ack deadline re-arms it every kMaxAckDelay, on the I/O thread.
  armed_[token] = Armed{
      net::Reactor::global().schedule_timer(
          due > now ? static_cast<TimeMicros>(due - now) : TimeMicros{1},
          [this, token] { fire(token); }),
      due};
}

void ReliableBatchSender::fire(std::uint64_t token) {
  std::vector<std::pair<BatchLink, std::shared_ptr<SenderWindow>>> windows;
  std::vector<BatchLink> parked;
  OwedAcks overdue;
  const std::uint64_t now = now_micros();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_.erase(token);
    if (stopped_) return;
    for (const auto& [key, link] : links_) {
      windows.emplace_back(key, link.window);
      if (link.retry_at != 0 && link.retry_at <= now) parked.push_back(key);
    }
    overdue = take_overdue_acks_locked(now);
  }
  send_acks(overdue);
  for (const auto& [key, window] : windows) {
    const std::vector<Retransmit> due = window->take_due(now);
    if (due.empty()) continue;
    // Resolved at fire time, so a resend after a reconnect takes the fresh
    // connection.
    Connection* conn = resolve_(key);
    if (conn == nullptr || !conn->alive()) continue;
    for (const Retransmit& r : due) {
      instruments_.retransmits.increment();
      (void)conn->notify(proto::OpCode::kMpiBatch, r.wire);
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (const BatchLink& key : parked)
    (void)drain(lock, key, links_.at(key), FlushReason::kInterval);
  // Re-arm for whatever is still in flight or parked.
  std::uint64_t next = 0;
  const auto consider = [&next](std::uint64_t due) {
    if (due != 0 && (next == 0 || due < next)) next = due;
  };
  for (const auto& [key, link] : links_) {
    consider(link.window->next_deadline());
    consider(link.retry_at);
    consider(link.ack_due);
  }
  arm_locked(next);
}

void ReliableBatchSender::add_inflight(std::int64_t bytes) {
  if (instruments_.inflight_bytes != nullptr && bytes != 0)
    instruments_.inflight_bytes->add(bytes);
}

}  // namespace pg::proxy
