#include "proxy/reliable_batch.hpp"

#include <utility>
#include <vector>

#include "net/reactor.hpp"

namespace pg::proxy {

namespace {

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(steady_micros());
}

}  // namespace

// ---------------------------------------------------------------- sender

ReliableBatchSender::ReliableBatchSender(std::string origin,
                                         SenderWindowConfig config,
                                         Resolve resolve,
                                         BatchSenderInstruments instruments)
    : origin_(std::move(origin)),
      config_(config),
      resolve_(std::move(resolve)),
      instruments_(instruments) {}

ReliableBatchSender::~ReliableBatchSender() { shutdown(); }

std::shared_ptr<SenderWindow> ReliableBatchSender::window(
    const BatchLink& link) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<SenderWindow>& window = windows_[link];
  if (window == nullptr) window = std::make_shared<SenderWindow>(config_);
  return window;
}

Status ReliableBatchSender::send(
    const BatchLink& link, Connection& conn, proto::MpiBatch batch,
    std::map<std::uint64_t, std::size_t> frames_per_app) {
  const std::shared_ptr<SenderWindow> link_window = window(link);
  batch.origin = origin_;
  batch.seq = link_window->next_seq();
  const Bytes wire = batch.serialize();
  link_window->track(batch.seq, wire, std::move(frames_per_app),
                     now_micros());
  add_inflight(static_cast<std::int64_t>(wire.size()));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    arm_locked();
  }
  return conn.notify(proto::OpCode::kMpiBatch, wire);
}

std::size_t ReliableBatchSender::on_ack(const BatchLink& link,
                                        BytesView payload) {
  Result<proto::MpiBatchAck> ack = proto::MpiBatchAck::parse(payload);
  if (!ack.is_ok() || ack.value().origin != origin_) return 0;
  std::shared_ptr<SenderWindow> link_window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = windows_.find(link);
    if (it == windows_.end()) return 0;
    link_window = it->second;
  }
  const AckOutcome out = link_window->on_ack(
      ack.value().cumulative, ack.value().selective, now_micros());
  add_inflight(-static_cast<std::int64_t>(out.released_bytes));
  for (const std::uint64_t rtt : out.rtt_samples)
    instruments_.ack_rtt.observe(static_cast<double>(rtt));
  return out.released;
}

std::size_t ReliableBatchSender::drop_app(std::uint64_t app_id) {
  std::vector<std::shared_ptr<SenderWindow>> windows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [link, window] : windows_) windows.push_back(window);
  }
  std::size_t frames = 0;
  for (const auto& window : windows) {
    const SenderWindow::DropOutcome dropped = window->drop_app(app_id);
    frames += dropped.frames;
    add_inflight(-static_cast<std::int64_t>(dropped.bytes));
  }
  return frames;
}

void ReliableBatchSender::shutdown() {
  std::uint64_t timer = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    timer = timer_;
    timer_ = 0;
    armed_ = false;
  }
  // Waits out a callback that is already running; it sees stopped_ and
  // does not re-arm.
  if (timer != 0) net::Reactor::global().cancel_timer(timer);
}

void ReliableBatchSender::arm_locked() {
  if (armed_ || stopped_) return;
  std::uint64_t next = 0;
  for (const auto& [link, window] : windows_) {
    const std::uint64_t deadline = window->next_deadline();
    if (deadline != 0 && (next == 0 || deadline < next)) next = deadline;
  }
  if (next == 0) return;  // nothing in flight, no timer needed
  const std::uint64_t now = now_micros();
  armed_ = true;
  timer_ = net::Reactor::global().schedule_timer(
      next > now ? static_cast<TimeMicros>(next - now) : TimeMicros{1},
      [this] { fire(); });
}

void ReliableBatchSender::fire() {
  std::vector<std::pair<BatchLink, std::shared_ptr<SenderWindow>>> windows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
    timer_ = 0;
    if (stopped_) return;
    windows.assign(windows_.begin(), windows_.end());
  }
  const std::uint64_t now = now_micros();
  for (const auto& [link, window] : windows) {
    const std::vector<Retransmit> due = window->take_due(now);
    if (due.empty()) continue;
    // Resolved at fire time, so a resend after a reconnect takes the fresh
    // connection.
    Connection* conn = resolve_(link);
    if (conn == nullptr || !conn->alive()) continue;
    for (const Retransmit& r : due) {
      instruments_.retransmits.increment();
      (void)conn->notify(proto::OpCode::kMpiBatch, r.wire);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  arm_locked();
}

void ReliableBatchSender::add_inflight(std::int64_t bytes) {
  if (instruments_.inflight_bytes != nullptr && bytes != 0)
    instruments_.inflight_bytes->add(bytes);
}

// -------------------------------------------------------------- receiver

void ReliableBatchReceiver::ack(const std::string& origin, std::uint64_t seq,
                                Connection& conn) {
  const AckCoverage coverage = coverage_.record(origin, seq);
  proto::MpiBatchAck ack;
  ack.origin = origin;
  ack.cumulative = coverage.cumulative;
  ack.selective = coverage.selective;
  (void)conn.notify(proto::OpCode::kMpiBatchAck, ack.serialize());
}

}  // namespace pg::proxy
