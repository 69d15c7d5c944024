// Unit tests for the proxy building blocks: Connection (request/response
// correlation), the reliable kMpiBatch stream (ReliableBatchSender and
// ReliableBatchReceiver over a live connection), PeerTable (the link table:
// insert rules, close accounting, heartbeat liveness), AppRouting
// (virtual-slave tables), the inline control path (node-agent app
// teardown, offloaded tunnel services) and logins (the latency histogram,
// offloaded remote logins: their trace and shutdown).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "grid/grid.hpp"
#include "mpi/runtime.hpp"
#include "net/memory_channel.hpp"
#include "net/reactor.hpp"
#include "proto/messages.hpp"
#include "proxy/app_routing.hpp"
#include "proxy/connection.hpp"
#include "proxy/job_manager.hpp"
#include "proxy/node_agent.hpp"
#include "proxy/peer_table.hpp"
#include "proxy/reliable_batch.hpp"
#include "tls/link.hpp"

namespace pg::proxy {
namespace {

/// Builds a connected pair of Connections over plaintext links.
struct ConnPair {
  net::ChannelPair channels;
  ConnectionPtr a;
  ConnectionPtr b;
};

ConnPair make_conn_pair(Connection::EnvelopeHandler handler_a,
                   Connection::EnvelopeHandler handler_b) {
  ConnPair out;
  out.channels = net::make_memory_channel_pair();
  // Each Connection owns its channel end; move out of the pair.
  auto chan_a = std::move(out.channels.a);
  auto chan_b = std::move(out.channels.b);
  auto link_a = tls::make_plain_link(*chan_a);
  auto link_b = tls::make_plain_link(*chan_b);
  out.a = std::make_unique<Connection>("peer-b", std::move(chan_a),
                                       std::move(link_a), true,
                                       std::move(handler_a));
  out.b = std::make_unique<Connection>("peer-a", std::move(chan_b),
                                       std::move(link_b), false,
                                       std::move(handler_b));
  out.a->start();
  out.b->start();
  return out;
}

Connection::EnvelopeHandler echo_handler() {
  return [](const proto::Envelope& env, Connection& conn) {
    if (env.op == proto::OpCode::kPing) {
      (void)conn.respond(env, proto::OpCode::kPong, env.payload);
    }
  };
}

Connection::EnvelopeHandler null_handler() {
  return [](const proto::Envelope&, Connection&) {};
}

TEST(Connection, CallRoundTrip) {
  ConnPair pair = make_conn_pair(null_handler(), echo_handler());
  Result<proto::Envelope> response =
      pair.a->call(proto::OpCode::kPing, to_bytes("payload"));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().op, proto::OpCode::kPong);
  EXPECT_EQ(to_string(response.value().payload), "payload");
}

TEST(Connection, ManySequentialCalls) {
  ConnPair pair = make_conn_pair(null_handler(), echo_handler());
  for (int i = 0; i < 50; ++i) {
    const std::string payload = "call-" + std::to_string(i);
    Result<proto::Envelope> response =
        pair.a->call(proto::OpCode::kPing, to_bytes(payload));
    ASSERT_TRUE(response.is_ok());
    EXPECT_EQ(to_string(response.value().payload), payload);
  }
}

TEST(Connection, ConcurrentCallsCorrelateCorrectly) {
  ConnPair pair = make_conn_pair(null_handler(), echo_handler());
  std::vector<std::thread> callers;
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&pair, t] {
      for (int i = 0; i < 20; ++i) {
        std::string payload = "t";
        payload += std::to_string(t) + "-i" + std::to_string(i);
        Result<proto::Envelope> response =
            pair.a->call(proto::OpCode::kPing, to_bytes(payload));
        ASSERT_TRUE(response.is_ok());
        EXPECT_EQ(to_string(response.value().payload), payload);
      }
    });
  }
  for (auto& t : callers) t.join();
}

TEST(Connection, BidirectionalCallsDoNotCollide) {
  // Both sides call each other simultaneously; id parity keeps the pending
  // tables disjoint.
  ConnPair pair = make_conn_pair(echo_handler(), echo_handler());
  std::thread other([&pair] {
    for (int i = 0; i < 20; ++i) {
      Result<proto::Envelope> r =
          pair.b->call(proto::OpCode::kPing, to_bytes("from-b"));
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(to_string(r.value().payload), "from-b");
    }
  });
  for (int i = 0; i < 20; ++i) {
    Result<proto::Envelope> r =
        pair.a->call(proto::OpCode::kPing, to_bytes("from-a"));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value().payload), "from-a");
  }
  other.join();
}

TEST(Connection, NotifyReachesHandler) {
  std::atomic<int> received{0};
  ConnPair pair = make_conn_pair(
      null_handler(),
      [&received](const proto::Envelope& env, Connection&) {
        if (env.op == proto::OpCode::kMpiBatch) ++received;
      });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatch, to_bytes("x")).is_ok());
  }
  // Notifications are async; poll briefly.
  for (int i = 0; i < 100 && received.load() < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(received.load(), 10);
}

TEST(Connection, CallTimesOutWhenPeerSilent) {
  ConnPair pair = make_conn_pair(null_handler(), null_handler());  // b never responds
  Result<proto::Envelope> response = pair.a->call(
      proto::OpCode::kPing, {}, /*timeout=*/50 * kMicrosPerMilli);
  EXPECT_EQ(response.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(Connection, CallFailsFastWhenPeerCloses) {
  ConnPair pair = make_conn_pair(null_handler(), null_handler());
  std::thread closer([&pair] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pair.b->close();
  });
  Result<proto::Envelope> response =
      pair.a->call(proto::OpCode::kPing, {}, 10 * kMicrosPerSecond);
  closer.join();
  EXPECT_EQ(response.status().code(), ErrorCode::kUnavailable);
}

TEST(Connection, SendAfterCloseFails) {
  ConnPair pair = make_conn_pair(null_handler(), null_handler());
  pair.a->close();
  EXPECT_FALSE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  EXPECT_FALSE(pair.a->alive());
}

TEST(Connection, MalformedEnvelopeIsDroppedNotFatal) {
  // 100 frames that are not envelopes are counted and dropped, and the
  // connection keeps serving calls behind them.
  net::ChannelPair channels = net::make_memory_channel_pair();
  net::Channel& raw_a = *channels.a;
  auto link_a = tls::make_plain_link(*channels.a);
  auto link_b = tls::make_plain_link(*channels.b);
  ConnectionPtr a =
      std::make_shared<Connection>("peer-b", std::move(channels.a),
                                   std::move(link_a), true, null_handler());
  ConnectionPtr b = std::make_shared<Connection>(
      "peer-a", std::move(channels.b), std::move(link_b), false,
      echo_handler());
  a->start();
  b->start();
  // A second framer on a's channel writes well-framed garbage: the frames
  // decode, the envelopes inside them do not (bad protocol version).
  tls::MessageLinkPtr garbage = tls::make_plain_link(raw_a);
  telemetry::Counter& malformed = telemetry::MetricRegistry::global().counter(
      "pg_connection_malformed_envelopes_total");
  const std::uint64_t before = malformed.value();
  for (int i = 0; i < 100; ++i) {
    const Bytes junk = {0xee, static_cast<std::uint8_t>(i), 0x01};
    ASSERT_TRUE(garbage->send(junk).is_ok());
  }
  // The call's envelope follows the garbage on the same byte stream, so
  // every junk frame was handled once its answer is back.
  const Result<proto::Envelope> response =
      a->call(proto::OpCode::kPing, to_bytes("still-alive"));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(to_string(response.value().payload), "still-alive");
  EXPECT_EQ(malformed.value() - before, 100u);
  EXPECT_TRUE(b->alive());
}

/// Polls `done` for up to two seconds.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 2000 && !done(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return done();
}

proto::MpiBatch one_frame_batch(std::uint64_t app_id) {
  proto::MpiBatch batch;
  proto::MpiFrame frame;
  frame.app_id = app_id;
  frame.dst_ranks = {1};
  frame.payload = to_bytes("data");
  batch.frames.push_back(std::move(frame));
  return batch;
}

/// A ReliableBatchReceiver at connection end b, owing its acks to end a
/// through a sender "b" whose link resolves to b. End a records every
/// standalone kMpiBatchAck and every kMpiBatch that comes back to it.
class AckHarness {
 public:
  AckHarness()
      : pair_(make_conn_pair(
            [this](const proto::Envelope& env, Connection&) { record(env); },
            null_handler())),
        sender_("b", SenderWindowConfig{},
                [this](const BatchLink&) { return pair_.b.get(); },
                BatchSenderInstruments{
                    telemetry::MetricRegistry::global().counter(
                        "pg_test_retransmits"),
                    telemetry::MetricRegistry::global().histogram(
                        "pg_test_ack_rtt")}) {}

  ~AckHarness() {
    sender_.shutdown();
    pair_.a->close();
    pair_.b->close();
  }

  /// Hands batch (origin "x", `seq`) to the receiver as if it arrived on
  /// b. `on_deliver` runs inside the delivery, where a proxy forwards the
  /// batch and may enqueue traffic back.
  BatchReceipt receive(std::uint64_t seq,
                       const std::function<void()>& on_deliver = {}) {
    proto::MpiBatch batch = one_frame_batch(7);
    batch.origin = "x";
    batch.seq = seq;
    return receive(batch, on_deliver);
  }
  BatchReceipt receive(const proto::MpiBatch& batch,
                       const std::function<void()>& on_deliver = {}) {
    return receiver_.receive(batch.serialize(), link_, sender_,
                             [&](proto::MpiBatch&) {
                               ++delivered_;
                               if (on_deliver) on_deliver();
                             });
  }

  /// Sends one frame from b back to a, carrying whatever acks b holds.
  Status reply() { return sender_.enqueue(link_, one_frame_batch(7).frames); }

  std::vector<proto::MpiBatchAck> standalone() {
    std::lock_guard<std::mutex> lock(mutex_);
    return standalone_;
  }
  std::vector<proto::MpiBatch> replies() {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_;
  }
  int delivered() const { return delivered_.load(); }
  std::size_t inflight_batches() {
    return sender_.window(link_)->inflight_batches();
  }

 private:
  void record(const proto::Envelope& env) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (env.op == proto::OpCode::kMpiBatchAck) {
      Result<proto::MpiBatchAck> ack = proto::MpiBatchAck::parse(env.payload);
      ASSERT_TRUE(ack.is_ok());
      standalone_.push_back(ack.value());
    } else if (env.op == proto::OpCode::kMpiBatch) {
      Result<proto::MpiBatch> batch = proto::MpiBatch::parse(env.payload);
      ASSERT_TRUE(batch.is_ok());
      replies_.push_back(batch.value());
    }
  }

  ConnPair pair_;
  const BatchLink link_{LinkKind::kSite, "a"};
  ReliableBatchSender sender_;
  ReliableBatchReceiver receiver_;
  std::atomic<int> delivered_{0};
  std::mutex mutex_;
  std::vector<proto::MpiBatchAck> standalone_;
  std::vector<proto::MpiBatch> replies_;
};

TEST(ReliableBatch, ReceiverDeliversOnceAndAcksEveryCopy) {
  // A retransmitted copy of a batch whose ack was lost: the first copy's
  // ack is held, the duplicate is delivered no more and acked at once,
  // which also sends the held ack. The duplicate must arrive within
  // kMaxAckDelay of the first copy, or the held ack goes out alone first.
  // A test thread preempted for longer (a loaded sanitizer run) shows
  // nothing either way; such an attempt runs again, up to kAttempts times.
  constexpr int kAttempts = 10;
  for (int attempt = 1;; ++attempt) {
    AckHarness h;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(h.receive(1), BatchReceipt::kDelivered);
    EXPECT_EQ(h.receive(1), BatchReceipt::kDuplicate);
    const bool in_time = std::chrono::steady_clock::now() - start <
                         std::chrono::microseconds(kMaxAckDelay);
    if (!in_time && attempt < kAttempts) continue;
    ASSERT_TRUE(eventually([&] { return !h.standalone().empty(); }));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::vector<proto::MpiBatchAck> acks = h.standalone();
    ASSERT_EQ(acks.size(), 1u)
        << "the held first-copy ack went out on its own";
    EXPECT_EQ(acks[0].origin, "x");
    EXPECT_EQ(acks[0].cumulative, 1u);
    EXPECT_LT(acks[0].ack_delay_us, static_cast<std::uint64_t>(kMaxAckDelay));
    EXPECT_EQ(h.delivered(), 1);
    return;
  }
}

TEST(ReliableBatch, HeldAckRidesNextReverseBatch) {
  // The reply is enqueued from the delivery, right after the ack is owed,
  // as the proxy does. It can carry the ack only if it is enqueued within
  // kMaxAckDelay of the receive. A test thread preempted for longer (a
  // loaded sanitizer run) sees the held ack go out alone; such an attempt
  // shows nothing either way and runs again, up to kAttempts times.
  constexpr int kAttempts = 10;
  for (int attempt = 1;; ++attempt) {
    AckHarness h;
    Status replied = error(ErrorCode::kInternal, "batch not delivered");
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(h.receive(1, [&] { replied = h.reply(); }),
              BatchReceipt::kDelivered);
    const bool in_time = std::chrono::steady_clock::now() - start <
                         std::chrono::microseconds(kMaxAckDelay);
    ASSERT_TRUE(replied.is_ok());
    if (!in_time && attempt < kAttempts) continue;
    ASSERT_TRUE(eventually([&] { return h.replies().size() == 1; }));
    const proto::MpiBatch reply = h.replies()[0];
    ASSERT_EQ(reply.acks.size(), 1u);
    EXPECT_EQ(reply.acks[0].origin, "x");
    EXPECT_EQ(reply.acks[0].cumulative, 1u);
    EXPECT_LT(reply.acks[0].ack_delay_us,
              static_cast<std::uint64_t>(kMaxAckDelay));
    // Carried, so nothing is left for the ack timer to send.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(h.standalone().empty());
    return;
  }
}

TEST(ReliableBatch, HeldAckGoesOutAloneAfterMaxDelay) {
  AckHarness h;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(h.receive(1), BatchReceipt::kDelivered);
  ASSERT_TRUE(eventually([&] { return !h.standalone().empty(); }));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::microseconds(kMaxAckDelay));
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  const proto::MpiBatchAck ack = h.standalone()[0];
  EXPECT_EQ(ack.cumulative, 1u);
  // Held for the whole delay, and it says so.
  EXPECT_GE(ack.ack_delay_us, static_cast<std::uint64_t>(kMaxAckDelay));
}

TEST(ReliableBatch, DuplicateOfAckedBatchIsAckedAtOnce) {
  AckHarness h;
  EXPECT_EQ(h.receive(1), BatchReceipt::kDelivered);
  ASSERT_TRUE(eventually([&] { return h.standalone().size() == 1; }));
  // Nothing is held now; a duplicate must not wait for the ack timer.
  EXPECT_EQ(h.receive(1), BatchReceipt::kDuplicate);
  ASSERT_TRUE(eventually([&] { return h.standalone().size() == 2; }));
  const proto::MpiBatchAck ack = h.standalone()[1];
  EXPECT_EQ(ack.cumulative, 1u);
  EXPECT_LT(ack.ack_delay_us, static_cast<std::uint64_t>(kMaxAckDelay));
  EXPECT_EQ(h.delivered(), 1);
}

TEST(ReliableBatch, SecondUnackedBatchForcesAck) {
  AckHarness h;
  EXPECT_EQ(h.receive(1), BatchReceipt::kDelivered);
  EXPECT_EQ(h.receive(2), BatchReceipt::kDelivered);
  ASSERT_TRUE(eventually([&] { return !h.standalone().empty(); }));
  const proto::MpiBatchAck ack = h.standalone().back();
  EXPECT_EQ(ack.cumulative, 2u);
  EXPECT_LT(ack.ack_delay_us, static_cast<std::uint64_t>(kMaxAckDelay));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(h.standalone().size(), 1u);
  EXPECT_EQ(h.delivered(), 2);
}

TEST(ReliableBatch, BulkBatchIsAckedAtOnce) {
  AckHarness h;
  proto::MpiBatch bulk = one_frame_batch(7);
  bulk.origin = "x";
  bulk.seq = 1;
  bulk.frames[0].payload = Bytes(kLatencyLaneBytes + 1, 0xab);
  EXPECT_EQ(h.receive(bulk), BatchReceipt::kDelivered);
  ASSERT_TRUE(eventually([&] { return !h.standalone().empty(); }));
  const proto::MpiBatchAck ack = h.standalone()[0];
  EXPECT_EQ(ack.cumulative, 1u);
  EXPECT_LT(ack.ack_delay_us, static_cast<std::uint64_t>(kMaxAckDelay));
}

TEST(ReliableBatch, PiggybackedAckReleasesSenderWindow) {
  // b's batch to a is acked by the batch a sends back, not by a
  // standalone ack.
  AckHarness h;
  ASSERT_TRUE(h.reply().is_ok());
  ASSERT_TRUE(eventually([&] { return h.replies().size() == 1; }));
  EXPECT_TRUE(h.replies()[0].acks.empty());
  EXPECT_EQ(h.inflight_batches(), 1u);
  proto::MpiBatch back = one_frame_batch(7);
  back.origin = "x";
  back.seq = 1;
  // Acks for another origin in the same batch are ignored.
  back.acks.push_back(proto::MpiBatchAck{"someone-else", 9, {}, 0});
  back.acks.push_back(proto::MpiBatchAck{"b", 1, {}, 0});
  EXPECT_EQ(h.receive(back), BatchReceipt::kDelivered);
  EXPECT_EQ(h.inflight_batches(), 0u);
}

TEST(ReliableBatch, SenderAppliesOnlyItsOwnAcks) {
  ConnPair pair = make_conn_pair(null_handler(), null_handler());
  ReliableBatchSender batch_sender(
      "a", SenderWindowConfig{}, [&](const BatchLink&) { return pair.a.get(); },
      BatchSenderInstruments{
          telemetry::MetricRegistry::global().counter("pg_test_retransmits"),
          telemetry::MetricRegistry::global().histogram("pg_test_ack_rtt")});
  const BatchLink link{LinkKind::kNode, "b"};
  ASSERT_TRUE(batch_sender.enqueue(link, one_frame_batch(7).frames).is_ok());
  proto::MpiBatchAck ack;
  ack.origin = "someone-else";
  ack.cumulative = 1;
  EXPECT_EQ(batch_sender.on_ack(link, ack.serialize()), 0u);
  ack.origin = "a";
  // Same name, other kind of link: not the window the batch went out on.
  EXPECT_EQ(batch_sender.on_ack({LinkKind::kSite, "b"}, ack.serialize()), 0u);
  EXPECT_EQ(batch_sender.on_ack(link, ack.serialize()), 1u);
  EXPECT_EQ(batch_sender.window(link)->inflight_batches(), 0u);
  batch_sender.shutdown();
  pair.a->close();
  pair.b->close();
}

/// A ReliableBatchSender whose link "b" resolves to `live` (null: no
/// connection), with every kMpiBatch frame arriving at the far end and
/// every flushed envelope recorded in order.
class UnifiedSender {
 public:
  explicit UnifiedSender(SenderWindowConfig config = {},
                         TimeMicros retry_interval = 5 * kMicrosPerMilli)
      : pair_(make_conn_pair(null_handler(),
                             [this](const proto::Envelope& env, Connection&) {
                               record_arrival(env);
                             })),
        sender_(
            "a", config, [this](const BatchLink&) { return live_.load(); },
            BatchSenderInstruments{
                telemetry::MetricRegistry::global().counter(
                    "pg_test_retransmits"),
                telemetry::MetricRegistry::global().histogram(
                    "pg_test_ack_rtt"),
                nullptr,
                [this](const BatchLink&, const BatchFlush& flush) {
                  std::lock_guard<std::mutex> lock(mutex_);
                  flushes_.push_back(flush);
                }},
            retry_interval) {}

  ~UnifiedSender() {
    sender_.shutdown();
    pair_.a->close();
    pair_.b->close();
  }

  static proto::MpiFrame frame(std::int32_t tag, std::size_t bytes = 8) {
    proto::MpiFrame out;
    out.app_id = 7;
    out.tag = tag;
    out.dst_ranks = {1};
    out.payload = Bytes(bytes, 0xab);
    return out;
  }

  Status enqueue(std::vector<proto::MpiFrame> frames) {
    return sender_.enqueue(link_, std::move(frames));
  }
  Status enqueue(proto::MpiFrame one) {
    std::vector<proto::MpiFrame> frames;
    frames.push_back(std::move(one));
    return enqueue(std::move(frames));
  }

  void go_live() { live_ = pair_.a.get(); }
  ReliableBatchSender& sender() { return sender_; }
  const BatchLink& link() const { return link_; }

  /// Tags of the frames that reached the far end, in arrival order.
  std::vector<std::int32_t> arrived() {
    std::lock_guard<std::mutex> lock(mutex_);
    return arrived_;
  }
  std::vector<BatchFlush> flushes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return flushes_;
  }

 private:
  void record_arrival(const proto::Envelope& env) {
    if (env.op != proto::OpCode::kMpiBatch) return;
    Result<proto::MpiBatch> batch = proto::MpiBatch::parse(env.payload);
    ASSERT_TRUE(batch.is_ok());
    std::lock_guard<std::mutex> lock(mutex_);
    for (const proto::MpiFrame& f : batch.value().frames)
      arrived_.push_back(f.tag);
  }

  ConnPair pair_;
  std::atomic<Connection*> live_{nullptr};
  std::mutex mutex_;
  std::vector<std::int32_t> arrived_;
  std::vector<BatchFlush> flushes_;
  const BatchLink link_{LinkKind::kNode, "b"};
  ReliableBatchSender sender_;
};

TEST(ReliableBatch, ParkedFramesFlushInOrderOnTimerRetry) {
  UnifiedSender s;
  for (std::int32_t tag = 1; tag <= 3; ++tag)
    EXPECT_EQ(s.enqueue(UnifiedSender::frame(tag)).code(),
              ErrorCode::kUnavailable);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(s.arrived().empty());
  EXPECT_TRUE(s.flushes().empty());

  s.go_live();
  ASSERT_TRUE(eventually([&] { return s.arrived().size() == 3; }));
  EXPECT_EQ(s.arrived(), (std::vector<std::int32_t>{1, 2, 3}));
  const std::vector<BatchFlush> flushes = s.flushes();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kInterval);
  EXPECT_EQ(flushes[0].frames, 3u);
}

TEST(ReliableBatch, FullWindowQueueDrainsWhenAckFreesSpace) {
  // A 64-byte budget that one 100-byte frame already fills; the RTO and
  // the parked-queue retry are far away, so only an ack can move the queue.
  SenderWindowConfig config;
  config.budget_floor_bytes = 64;
  config.budget_max_bytes = 64;
  config.rto_initial_micros = 60 * kMicrosPerSecond;
  config.rto_max_micros = 60 * kMicrosPerSecond;
  UnifiedSender s(config, 60 * kMicrosPerSecond);
  s.go_live();
  ASSERT_TRUE(s.enqueue(UnifiedSender::frame(1, 100)).is_ok());
  ASSERT_TRUE(s.enqueue(UnifiedSender::frame(2, 100)).is_ok());
  ASSERT_TRUE(eventually([&] { return s.arrived().size() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(s.arrived(), (std::vector<std::int32_t>{1}));

  proto::MpiBatchAck ack;
  ack.origin = "a";
  ack.cumulative = 1;
  EXPECT_EQ(s.sender().on_ack(s.link(), ack.serialize()), 1u);
  ASSERT_TRUE(eventually([&] { return s.arrived().size() == 2; }));
  EXPECT_EQ(s.arrived(), (std::vector<std::int32_t>{1, 2}));
  const std::vector<BatchFlush> flushes = s.flushes();
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].reason, FlushReason::kImmediate);
  EXPECT_EQ(flushes[1].reason, FlushReason::kWindow);
}

TEST(ReliableBatch, LatencyLaneOvertakesBulkOnParkedLink) {
  UnifiedSender s;
  EXPECT_EQ(s.enqueue(UnifiedSender::frame(1, kLatencyLaneBytes + 1)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(s.enqueue(UnifiedSender::frame(2, 16)).code(),
            ErrorCode::kUnavailable);
  s.go_live();
  ASSERT_TRUE(eventually([&] { return s.arrived().size() == 2; }));
  EXPECT_EQ(s.arrived(), (std::vector<std::int32_t>{2, 1}));
  const std::vector<BatchFlush> flushes = s.flushes();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].latency_frames, 1u);
  EXPECT_EQ(flushes[0].frames, 2u);
}

TEST(ReliableBatch, TeardownFlushDropsFramesOfDeadLink) {
  UnifiedSender s(SenderWindowConfig{}, 60 * kMicrosPerSecond);
  std::vector<proto::MpiFrame> two;
  two.push_back(UnifiedSender::frame(1));
  two.push_back(UnifiedSender::frame(2));
  EXPECT_EQ(s.enqueue(std::move(two)).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(s.enqueue(UnifiedSender::frame(3, kLatencyLaneBytes + 1)).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(s.sender().teardown_flush(), 3u);
  EXPECT_EQ(s.sender().teardown_flush(), 0u);
  EXPECT_TRUE(s.flushes().empty());
  s.go_live();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(s.arrived().empty());
}

/// A memory link for a PeerTable: `near` is not started (the table starts
/// it); `far` is started and runs `far_handler`.
struct TableLink {
  ConnectionPtr near;
  ConnectionPtr far;
};

TableLink make_table_link(
    Connection::EnvelopeHandler far_handler = null_handler()) {
  net::ChannelPair channels = net::make_memory_channel_pair();
  auto link_a = tls::make_plain_link(*channels.a);
  auto link_b = tls::make_plain_link(*channels.b);
  TableLink out;
  out.near = std::make_unique<Connection>("far", std::move(channels.a),
                                          std::move(link_a), true,
                                          null_handler());
  out.far = std::make_unique<Connection>("near", std::move(channels.b),
                                         std::move(link_b), false,
                                         std::move(far_handler));
  out.far->start();
  return out;
}

/// Records every PeerTable down callback.
class DownLog {
 public:
  PeerTable::DownHandler handler() {
    return [this](const BatchLink& link, const Status& reason) {
      std::lock_guard<std::mutex> lock(mutex_);
      downs_.emplace_back(link, reason);
    };
  }
  std::size_t count(const BatchLink& link) {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(downs_.begin(), downs_.end(),
                      [&](const auto& down) { return down.first == link; }));
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return downs_.size();
  }
  /// Reason of the first down callback for `link`; Ok when none fired.
  Status reason(const BatchLink& link) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [down, why] : downs_)
      if (down == link) return why;
    return Status::ok();
  }

 private:
  std::mutex mutex_;
  std::vector<std::pair<BatchLink, Status>> downs_;
};

TEST(PeerTable, DuplicateNodeLinkIsRejectedWithoutDownCallback) {
  DownLog log;
  ProxyInstruments instruments("peer-table-dup-node");
  PeerTable table("peer-table-dup-node", instruments, log.handler());
  const BatchLink node{LinkKind::kNode, "n1"};
  TableLink first = make_table_link();
  TableLink duplicate = make_table_link();
  Connection* kept = first.near.get();

  ASSERT_TRUE(table.add(node, std::move(first.near)).is_ok());
  EXPECT_EQ(table.add(node, std::move(duplicate.near)).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(table.get(node), kept);
  EXPECT_EQ(table.live(node), kept);
  // A site link of the same name is a different link.
  EXPECT_EQ(table.get({LinkKind::kSite, "n1"}), nullptr);
  EXPECT_EQ(instruments.open_connections.value(), 1);
  EXPECT_EQ(instruments.shard_owned_keys.value(), 1);
  // The rejected connection was destroyed without firing anything.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(log.size(), 0u);

  // Unlike a site link, a dead node link is not replaced either.
  kept->close();
  EXPECT_EQ(log.count(node), 1u);
  TableLink again = make_table_link();
  EXPECT_EQ(table.add(node, std::move(again.near)).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(table.get(node), kept);
  EXPECT_EQ(table.live(node), nullptr);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(instruments.open_connections.value(), 0);
  EXPECT_EQ(instruments.shard_owned_keys.value(), 0);
}

TEST(PeerTable, SiteLinkReplacesDeadConnectionAndRejectsLiveOne) {
  DownLog log;
  ProxyInstruments instruments("peer-table-replace");
  PeerTable table("peer-table-replace", instruments, log.handler());
  const BatchLink site{LinkKind::kSite, "s1"};
  TableLink first = make_table_link();
  TableLink second = make_table_link();
  TableLink third = make_table_link();
  Connection* old = first.near.get();
  Connection* fresh = second.near.get();

  ASSERT_TRUE(table.add(site, std::move(first.near)).is_ok());
  old->close();
  EXPECT_EQ(log.count(site), 1u);
  EXPECT_EQ(table.get(site), old);
  EXPECT_EQ(table.live(site), nullptr);

  // Reconnect: the dead connection is retired without a second callback.
  ASSERT_TRUE(table.add(site, std::move(second.near)).is_ok());
  EXPECT_EQ(table.live(site), fresh);
  EXPECT_EQ(log.count(site), 1u);
  EXPECT_EQ(instruments.open_connections.value(), 1);

  EXPECT_EQ(table.add(site, std::move(third.near)).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(table.live(site), fresh);
  EXPECT_EQ(log.count(site), 1u);

  table.close_all();
  EXPECT_EQ(log.count(site), 2u);
  EXPECT_EQ(instruments.open_connections.value(), 0);
}

TEST(PeerTable, HeartbeatClosesSilentSiteLinkAndKeepsChattyOne) {
  DownLog log;
  ProxyInstruments instruments("peer-table-heartbeat");
  const TimeMicros interval = 50 * 1000;
  PeerTable table("peer-table-heartbeat", instruments, log.handler(),
                  interval, /*miss_threshold=*/3);
  const BatchLink silent{LinkKind::kSite, "silent"};
  const BatchLink chatty{LinkKind::kSite, "chatty"};
  TableLink silent_link = make_table_link();
  TableLink chatty_link = make_table_link();
  ASSERT_TRUE(table.add(silent, std::move(silent_link.near)).is_ok());
  ASSERT_TRUE(table.add(chatty, std::move(chatty_link.near)).is_ok());

  std::atomic<bool> stop{false};
  std::thread chatter([&] {
    while (!stop.load()) {
      (void)chatty_link.far->notify(proto::OpCode::kHeartbeat, {});
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  EXPECT_TRUE(eventually([&] { return log.count(silent) == 1; }));
  EXPECT_NE(log.reason(silent).message().find("heartbeat timeout"),
            std::string::npos)
      << log.reason(silent).to_string();
  EXPECT_GE(instruments.snapshot().heartbeat_missed, 1u);
  EXPECT_NE(table.live(chatty), nullptr);
  EXPECT_EQ(log.count(chatty), 0u);
  stop = true;
  chatter.join();

  table.stop();
  table.close_all();
  EXPECT_EQ(instruments.open_connections.value(), 0);
}

TEST(PeerTable, CloseAllFiresEveryDownPathAndRestoresGauges) {
  DownLog log;
  ProxyInstruments instruments("peer-table-close-all");
  const std::int64_t open_before = instruments.open_connections.value();
  PeerTable table("peer-table-close-all", instruments, log.handler());
  const std::vector<BatchLink> links = {{LinkKind::kSite, "s2"},
                                        {LinkKind::kNode, "n1"},
                                        {LinkKind::kSite, "s1"},
                                        {LinkKind::kNode, "n2"}};
  std::vector<TableLink> ends;
  for (const BatchLink& link : links) {
    ends.push_back(make_table_link());
    ASSERT_TRUE(table.add(link, std::move(ends.back().near)).is_ok());
  }
  EXPECT_EQ(instruments.open_connections.value(), open_before + 4);
  EXPECT_EQ(table.names(LinkKind::kSite),
            (std::vector<std::string>{"s1", "s2"}));
  EXPECT_EQ(table.names(LinkKind::kNode),
            (std::vector<std::string>{"n1", "n2"}));
  const std::vector<LinkReport> report = table.report();
  ASSERT_EQ(report.size(), 4u);
  EXPECT_EQ(report[0].peer, "s1");
  EXPECT_TRUE(report[0].inter_site);
  EXPECT_EQ(report[2].peer, "n1");
  EXPECT_FALSE(report[2].inter_site);

  table.close_all();
  EXPECT_EQ(log.size(), 4u);
  for (const BatchLink& link : links) {
    EXPECT_EQ(log.count(link), 1u) << link.name;
    EXPECT_EQ(table.live(link), nullptr) << link.name;
  }
  EXPECT_EQ(instruments.open_connections.value(), open_before);
  EXPECT_EQ(instruments.shard_owned_keys.value(), 0);
  EXPECT_EQ(instruments.snapshot().disconnects, 4u);
}

TEST(AppRouting, PlacementLookups) {
  AppRouting routing;
  routing.app_id = 1;
  routing.world_size = 5;
  routing.placements = {{0, "siteA", "n0"},
                        {1, "siteA", "n1"},
                        {2, "siteB", "n0"},
                        {3, "siteB", "n0"},
                        {4, "siteC", "n2"}};

  ASSERT_NE(routing.placement_of(2), nullptr);
  EXPECT_EQ(routing.placement_of(2)->site, "siteB");
  EXPECT_EQ(routing.placement_of(99), nullptr);

  EXPECT_EQ(routing.sites(),
            (std::vector<std::string>{"siteA", "siteB", "siteC"}));
  EXPECT_EQ(routing.ranks_on_site("siteB"),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(routing.ranks_on_node("siteB", "n0"),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(routing.nodes_on_site("siteA"),
            (std::vector<std::string>{"n0", "n1"}));
  EXPECT_EQ(routing.virtual_slave_count("siteA"), 3u);
  EXPECT_EQ(routing.virtual_slave_count("siteC"), 4u);
}

TEST(AppRouting, IndexedLookupsMatchScans) {
  // build_index() precomputes what placement_of/sites/ranks_on_site/
  // nodes_on_site otherwise derive per call; results must be identical.
  AppRouting routing;
  routing.app_id = 2;
  routing.world_size = 5;
  routing.placements = {{0, "siteA", "n0"},
                        {1, "siteA", "n1"},
                        {2, "siteB", "n0"},
                        {3, "siteB", "n0"},
                        {4, "siteC", "n2"}};
  EXPECT_FALSE(routing.indexed());
  routing.build_index();
  ASSERT_TRUE(routing.indexed());

  ASSERT_NE(routing.placement_of(2), nullptr);
  EXPECT_EQ(routing.placement_of(2)->site, "siteB");
  EXPECT_EQ(routing.placement_of(2)->node, "n0");
  EXPECT_EQ(routing.placement_of(99), nullptr);

  EXPECT_EQ(routing.sites(),
            (std::vector<std::string>{"siteA", "siteB", "siteC"}));
  EXPECT_EQ(routing.ranks_on_site("siteB"),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(routing.ranks_on_site("nowhere"), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(routing.ranks_on_node("siteB", "n0"),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(routing.nodes_on_site("siteA"),
            (std::vector<std::string>{"n0", "n1"}));
  EXPECT_EQ(routing.virtual_slave_count("siteA"), 3u);
  EXPECT_EQ(routing.virtual_slave_count("siteC"), 4u);
}

TEST(JobManager, FinishedRecordsStayBounded) {
  constexpr std::size_t kJobs = 10000;
  WallClock clock;
  ThreadPool pool(2);
  telemetry::Gauge& retained = telemetry::MetricRegistry::global().gauge(
      "pg_jobs_retained", "", {{"site", "bounded"}});
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  {
    JobManager jobs(pool, clock, 1, "bounded");
    const JobManager::Runner zero_cost = [](const JobRecord&) {
      return JobManager::RunOutcome{};
    };
    for (std::size_t i = 0; i < kJobs; ++i) {
      last = jobs.submit("user", "noop", 1, sched::Policy::kLoadBalanced,
                         zero_cost);
      if (i == 0) first = last;
      if ((i + 1) % 1000 == 0) {
        pool.drain();
        ASSERT_LE(jobs.list().size(), JobManager::kMaxFinishedJobs) << i;
      }
    }
    pool.drain();

    EXPECT_EQ(jobs.list().size(), JobManager::kMaxFinishedJobs);
    EXPECT_EQ(retained.value(),
              static_cast<std::int64_t>(JobManager::kMaxFinishedJobs));
    EXPECT_EQ(jobs.info(first).status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(jobs.wait(first, kMicrosPerSecond).status().code(),
              ErrorCode::kNotFound);
    const Result<JobRecord> newest = jobs.wait(last, kMicrosPerSecond);
    ASSERT_TRUE(newest.is_ok()) << newest.status().to_string();
    EXPECT_EQ(newest.value().state, JobState::kSucceeded);
  }
  EXPECT_EQ(retained.value(), 0);
}

// ------------------------------------------------------ inline control path

/// Gate the "proxy_test.held" app waits on after its rank 0 sent one frame
/// to rank 1 on another node.
struct HeldAppGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;

  /// Waits up to `limit` for release(), then releases anyway.
  void release_after(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, limit, [this] { return released; });
    released = true;
    cv.notify_all();
  }
  void reset() {
    std::lock_guard<std::mutex> lock(mutex);
    released = false;
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

HeldAppGate& held_gate() {
  static HeldAppGate gate;
  return gate;
}

void register_test_apps() {
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "proxy_test.held", [](mpi::Comm& comm) -> Status {
          if (comm.rank() != 0) return Status::ok();
          PG_RETURN_IF_ERROR(comm.send(1, 7, to_bytes("unacked")));
          HeldAppGate& gate = held_gate();
          std::unique_lock<std::mutex> lock(gate.mutex);
          gate.cv.wait(lock, [&gate] { return gate.released; });
          return Status::ok();
        });
    mpi::AppRegistry::instance().register_app(
        "proxy_test.noop", [](mpi::Comm&) -> Status { return Status::ok(); });
    return true;
  }();
  (void)registered;
}

/// A NodeAgent on node "n0" of `site`, whose proxy end is a bare
/// Connection that records the data batches it gets and never acks them.
struct AgentHarness {
  std::unique_ptr<NodeAgent> agent;
  ConnectionPtr proxy;
  std::mutex mutex;
  std::condition_variable cv;
  int batches = 0;
  std::string site;

  explicit AgentHarness(std::string site_name) : site(std::move(site_name)) {
    register_test_apps();
    held_gate().reset();
    net::ChannelPair channels = net::make_memory_channel_pair();
    auto proxy_channel = std::move(channels.b);
    auto link = tls::make_plain_link(*proxy_channel);
    proxy = std::make_shared<Connection>(
        "n0", std::move(proxy_channel), std::move(link), false,
        [this](const proto::Envelope& env, Connection&) {
          if (env.op != proto::OpCode::kMpiBatch) return;
          std::lock_guard<std::mutex> lock(mutex);
          ++batches;
          cv.notify_all();
        });
    proxy->start();
    NodeAgentConfig config;
    config.node_name = "n0";
    config.site = site;
    Result<std::unique_ptr<NodeAgent>> created =
        NodeAgent::create(std::move(config), std::move(channels.a));
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
    if (created.is_ok()) agent = created.take();
  }
  AgentHarness(const AgentHarness&) = delete;
  AgentHarness& operator=(const AgentHarness&) = delete;
  ~AgentHarness() {
    held_gate().release();
    agent.reset();
    proxy->close();
  }

  /// Opens and starts app 7 (rank 0 here, rank 1 on "n1") and waits until
  /// its rank sent the frame the proxy end leaves unacked.
  void launch_held_app() {
    proto::MpiOpen open;
    open.app_id = 7;
    open.executable = "proxy_test.held";
    open.world_size = 2;
    open.placements = {{0, site, "n0"}, {1, site, "n1"}};
    Result<proto::Envelope> ack =
        proxy->call(proto::OpCode::kMpiOpen, open.serialize(),
                    5 * kMicrosPerSecond);
    ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
    Result<proto::MpiOpenAck> parsed =
        proto::MpiOpenAck::parse(ack.value().payload);
    ASSERT_TRUE(parsed.is_ok() && parsed.value().ok);
    ASSERT_TRUE(
        proxy->notify(proto::OpCode::kMpiStart, proto::MpiClose{7}.serialize())
            .is_ok());
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [this] { return batches > 0; }));
  }

  std::uint64_t dropped_frames() const {
    return telemetry::MetricRegistry::global()
        .counter("pg_mpi_frames_dropped_total", "",
                 {{"site", site}, {"sender", "n0"}, {"reason", "app_closed"}})
        .value();
  }
};

TEST(NodeAgentInline, CloseWhileRunnerRunsReturnsAtOnce) {
  AgentHarness harness("inline-close");
  ASSERT_NE(harness.agent, nullptr);
  ASSERT_NO_FATAL_FAILURE(harness.launch_held_app());

  // A close handler that waited for the runner would stall the node's I/O
  // thread, and with it the ping's deadline timer; the watchdog bounds
  // that stall.
  std::thread watchdog(
      [] { held_gate().release_after(std::chrono::seconds(5)); });
  ASSERT_TRUE(harness.proxy
                  ->notify(proto::OpCode::kMpiClose,
                           proto::MpiClose{7}.serialize())
                  .is_ok());
  // The close handler must not hold the link while the runner runs: a ping
  // behind it is answered at once.
  const auto pinged = std::chrono::steady_clock::now();
  const Result<proto::Envelope> pong = harness.proxy->call(
      proto::OpCode::kPing, {}, 2 * kMicrosPerSecond);
  EXPECT_TRUE(pong.is_ok()) << pong.status().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - pinged,
            std::chrono::seconds(2));
  EXPECT_EQ(harness.dropped_frames(), 0u) << "dropped before the runner ended";

  held_gate().release();
  watchdog.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.dropped_frames() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(harness.dropped_frames(), 1u)
      << "the app's unacked frames were not dropped once the runner ended";
}

TEST(NodeAgentInline, ShutdownWaitsForDeferredCleanup) {
  AgentHarness harness("inline-shutdown");
  ASSERT_NE(harness.agent, nullptr);
  ASSERT_NO_FATAL_FAILURE(harness.launch_held_app());
  ASSERT_TRUE(harness.proxy
                  ->notify(proto::OpCode::kMpiClose,
                           proto::MpiClose{7}.serialize())
                  .is_ok());
  ASSERT_TRUE(harness.proxy->call(proto::OpCode::kPing, {},
                                  2 * kMicrosPerSecond)
                  .is_ok());

  std::thread releaser([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    held_gate().release();
  });
  harness.agent->shutdown();
  // The cleanup ran before shutdown() returned, so destroying the agent
  // now leaves it nothing to touch.
  EXPECT_GE(harness.dropped_frames(), 1u);
  harness.agent.reset();
  releaser.join();
}

TEST(NodeAgentInline, ShutdownWaitsForRunningTunnelService) {
  AgentHarness harness("inline-service");
  ASSERT_NE(harness.agent, nullptr);
  // A service that blocks until released: it runs off the I/O thread, and
  // shutdown() must not return while it still runs.
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  bool left = false;
  harness.agent->register_service("slow", [&](BytesView request) {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
    left = true;
    return Bytes(request.begin(), request.end());
  });
  constexpr std::uint64_t kTunnel = 5;
  const Result<proto::Envelope> opened = harness.proxy->call(
      proto::OpCode::kTunnelOpen,
      proto::TunnelOpen{kTunnel, harness.site, "n0", "slow"}.serialize(),
      5 * kMicrosPerSecond);
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  ASSERT_EQ(opened.value().op, proto::OpCode::kTunnelData);
  const Bytes request = proto::TunnelData{kTunnel, to_bytes("x")}.serialize();
  ASSERT_TRUE(harness.proxy
                  ->notify(proto::OpCode::kTunnelData, request,
                           harness.proxy->allocate_request_id())
                  .is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return entered; }));
  }
  // The I/O thread is free while the service runs: a ping is answered.
  EXPECT_TRUE(harness.proxy->call(proto::OpCode::kPing, {},
                                  2 * kMicrosPerSecond)
                  .is_ok());

  std::atomic<bool> returned{false};
  bool left_at_return = false;
  std::thread stopper([&] {
    harness.agent->shutdown();
    std::lock_guard<std::mutex> lock(mutex);
    left_at_return = left;
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load()) << "shutdown() left a service running";
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
  stopper.join();
  EXPECT_TRUE(left_at_return);
}

TEST(ProxyLogin, EveryLoginObservesLoginMicros) {
  grid::GridBuilder builder;
  builder.seed(20).key_bits(768);
  builder.add_nodes("loginsite", 1);
  builder.add_user("alice", "correct-horse", {"status.query"});
  Result<std::unique_ptr<grid::Grid>> built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  std::unique_ptr<grid::Grid> grid = built.take();

  telemetry::Histogram& login_micros =
      telemetry::MetricRegistry::global().histogram(
          "pg_proxy_login_micros", "", telemetry::duration_buckets_micros(),
          {{"site", "loginsite"}});
  const telemetry::Histogram::Snapshot before = login_micros.snapshot();
  // A refused login costs the same stretch and is observed too.
  EXPECT_TRUE(grid->login("loginsite", "alice", "correct-horse").is_ok());
  EXPECT_FALSE(grid->login("loginsite", "alice", "wrong").is_ok());
  const telemetry::Histogram::Snapshot after = login_micros.snapshot();
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_GT(after.sum, before.sum);
}

std::unique_ptr<grid::Grid> two_site_login_grid(
    std::uint64_t seed, std::function<void(ProxyConfig&)> configure = {}) {
  grid::GridBuilder builder;
  builder.seed(seed).key_bits(768);
  builder.add_nodes("siteA", 1);
  builder.add_nodes("siteB", 1);
  builder.add_user("alice", "correct-horse", {"status.query"});
  if (configure) builder.configure_proxy(std::move(configure));
  Result<std::unique_ptr<grid::Grid>> built = builder.build();
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  return built.is_ok() ? built.take() : nullptr;
}

proto::AuthRequest alice_login() {
  proto::AuthRequest request;
  request.user = "alice";
  request.credential = to_bytes("correct-horse");
  return request;
}

TEST(ProxyLogin, CrossSiteLoginTraceHoldsRemoteLoginSpan) {
  // siteB runs the login off its I/O thread; the offloaded task still
  // joins the caller's trace, under the span of the hop that carried it.
  std::unique_ptr<grid::Grid> grid = two_site_login_grid(22);
  ASSERT_NE(grid, nullptr);
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  telemetry::Span session = tracer.start_span("test.cross_site_login");
  const std::uint64_t trace_id = session.context().trace_id;
  const Result<proto::AuthResponse> response =
      grid->proxy("siteA").login_at("siteB", alice_login());
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().ok) << response.value().reason;
  session.end();

  const std::vector<telemetry::SpanRecord> spans = tracer.trace(trace_id);
  std::set<std::uint64_t> ids;
  for (const telemetry::SpanRecord& span : spans) ids.insert(span.span_id);
  const auto remote_login =
      std::find_if(spans.begin(), spans.end(), [](const auto& span) {
        return span.name == "proxy.login" && span.component == "siteB";
      });
  ASSERT_NE(remote_login, spans.end()) << "remote login span missing";
  EXPECT_EQ(ids.count(remote_login->parent_span_id), 1u)
      << "remote login span is orphaned";
}

/// A wall clock that holds a caller off the reactor's I/O threads while
/// it runs under `gated_trace`, until release(): it stalls an offloaded
/// login inside its stretch.
class GatedClock final : public Clock {
 public:
  TimeMicros now() const override {
    const std::uint64_t gated = gated_trace.load();
    if (gated != 0 && !net::Reactor::on_io_thread() &&
        telemetry::Tracer::current().trace_id == gated) {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    return wall_.now();
  }
  bool wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

  std::atomic<std::uint64_t> gated_trace{0};

 private:
  WallClock wall_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

TEST(ProxyLogin, ShutdownWaitsForOffloadedRemoteLogin) {
  GatedClock clock;
  std::unique_ptr<grid::Grid> grid =
      two_site_login_grid(23, [&clock](ProxyConfig& config) {
        if (config.site == "siteB") config.clock = &clock;
      });
  ASSERT_NE(grid, nullptr);
  telemetry::Histogram& login_micros =
      telemetry::MetricRegistry::global().histogram(
          "pg_proxy_login_micros", "", telemetry::duration_buckets_micros(),
          {{"site", "siteB"}});
  const std::uint64_t logins_before = login_micros.snapshot().count;

  telemetry::Span session =
      telemetry::Tracer::global().start_span("test.held_login");
  clock.gated_trace = session.context().trace_id;
  std::thread caller([&grid, context = session.context()] {
    telemetry::ScopedTraceContext scope(context);
    // Fails once siteB is gone; only siteB's side is under test.
    (void)grid->proxy("siteA").login_at("siteB", alice_login());
  });
  ASSERT_TRUE(clock.wait_entered());

  std::atomic<bool> returned{false};
  std::uint64_t logins_at_return = 0;
  std::thread stopper([&] {
    grid->proxy("siteB").shutdown();
    logins_at_return = login_micros.snapshot().count;
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load()) << "shutdown() left a login running";
  clock.release();
  stopper.join();
  // The held login finished, and was observed, before shutdown returned.
  EXPECT_EQ(logins_at_return - logins_before, 1u);
  caller.join();
}

}  // namespace
}  // namespace pg::proxy
