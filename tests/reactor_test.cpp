// Tests for the event-driven proxy core: the epoll reactor (partial-frame
// reassembly, write backpressure, mid-read death, timers, periodic timers
// whose ticks run on the thread cache, connection churn),
// Connection's one dispatch path with its offload for blocking ops, and
// the span-export hop riding on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/memory_channel.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "proto/messages.hpp"
#include "proxy/connection.hpp"
#include "receive_path.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "tls/link.hpp"

namespace pg::net {
namespace {

using namespace std::chrono_literals;

using receive_path::plain_frame;

/// Collects frames/close events delivered by the reactor.
struct Sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Bytes> frames;
  bool closed = false;
  Status close_reason;

  Reactor::Callbacks callbacks() {
    return Reactor::Callbacks{
        [this](BytesView frame) {
          std::lock_guard<std::mutex> lock(mutex);
          frames.emplace_back(frame.begin(), frame.end());
          cv.notify_all();
        },
        [this](const Status& reason) {
          std::lock_guard<std::mutex> lock(mutex);
          closed = true;
          close_reason = reason;
          cv.notify_all();
        }};
  }

  bool wait_frames(std::size_t n, std::chrono::seconds budget = 10s) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, budget, [&] { return frames.size() >= n; });
  }

  bool wait_closed(std::chrono::seconds budget = 10s) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, budget, [&] { return closed; });
  }
};

/// One reactor-registered receive end over a connected TCP pair.
struct TcpHarness {
  ChannelPtr sender;
  ChannelPtr receiver;
  tls::MessageLinkPtr receiver_link;  // owns the frame decoder
  Sink sink;
  Reactor::Id id = 0;

  explicit TcpHarness(Reactor& reactor) { init(reactor); }

 private:
  // ASSERT_* needs a plain void function; constructors don't qualify.
  void init(Reactor& reactor) {
    auto listener = TcpListener::bind(0);
    ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
    auto client = tcp_connect("127.0.0.1", listener.value().port());
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    auto accepted = listener.value().accept();
    ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
    sender = client.take();
    receiver = accepted.take();
    receiver_link = tls::make_plain_link(*receiver);
    auto added = reactor.add_channel(*receiver, *receiver_link->decoder(),
                                     sink.callbacks());
    ASSERT_TRUE(added.is_ok()) << added.status().to_string();
    id = added.value();
  }
};

TEST(Reactor, PartialFrameReassembly) {
  Reactor reactor(ReactorOptions{1});
  TcpHarness h(reactor);
  ASSERT_NE(h.id, 0u);

  // Dribble one frame a byte at a time: every epoll wakeup sees a partial
  // frame until the last byte lands.
  const std::string payload = "reassembled-across-many-reads";
  const Bytes wire = plain_frame(payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(h.sender->write(BytesView(wire.data() + i, 1)).is_ok());
    if (i % 7 == 0) std::this_thread::sleep_for(1ms);
  }

  ASSERT_TRUE(h.sink.wait_frames(1));
  EXPECT_EQ(to_string(h.sink.frames[0]), payload);

  // A second frame split into two odd-sized writes, no flush pauses.
  const std::string second(100000, 'x');
  const Bytes wire2 = plain_frame(second);
  ASSERT_TRUE(h.sender->write(BytesView(wire2.data(), 11)).is_ok());
  ASSERT_TRUE(
      h.sender->write(BytesView(wire2.data() + 11, wire2.size() - 11))
          .is_ok());
  ASSERT_TRUE(h.sink.wait_frames(2));
  EXPECT_EQ(h.sink.frames[1].size(), second.size());

  reactor.remove_channel(h.id);
}

TEST(Reactor, BackpressureOnSlowReader) {
  Reactor reactor(ReactorOptions{1});
  TcpHarness h(reactor);
  ASSERT_NE(h.id, 0u);

  // The sender is reactor-managed too, so its overflow queue drains on
  // EPOLLOUT rather than by blocking the writer forever.
  auto sender_link = tls::make_plain_link(*h.sender);
  Sink sender_sink;
  auto sender_id = reactor.add_channel(
      *h.sender, *sender_link->decoder(), sender_sink.callbacks());
  ASSERT_TRUE(sender_id.is_ok());

  // Slow reader: reads stay paused while the writer pushes one 16 MiB
  // frame. Kernel buffers fill, then the channel's bounded send queue, and
  // the writer must stall at least once.
  reactor.pause_reads(h.id);

  constexpr std::size_t kTotal = 16 * 1024 * 1024;
  std::thread writer([&] {
    const std::string big(kTotal, 'b');
    const Bytes wire = plain_frame(big);
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t n = std::min<std::size_t>(64 * 1024,
                                                  wire.size() - offset);
      ASSERT_TRUE(h.sender->write(BytesView(wire.data() + offset, n)).is_ok());
      offset += n;
    }
  });

  // Give the writer time to hit the queue bound, then open the tap.
  std::this_thread::sleep_for(50ms);
  reactor.resume_reads(h.id);
  writer.join();

  ASSERT_TRUE(h.sink.wait_frames(1, 30s));
  EXPECT_EQ(h.sink.frames[0].size(), kTotal);
  EXPECT_GT(h.sender->stats().backpressure_waits.load(), 0u)
      << "writer never stalled: queue bound not exercised";

  reactor.remove_channel(sender_id.value());
  reactor.remove_channel(h.id);
}

TEST(Reactor, MidReadConnectionDeath) {
  Reactor reactor(ReactorOptions{1});
  TcpHarness h(reactor);
  ASSERT_NE(h.id, 0u);

  // Header promises 100 bytes; only 10 arrive before the peer dies.
  Bytes partial = plain_frame(std::string(100, 'p'));
  partial.resize(4 + 10);
  ASSERT_TRUE(h.sender->write(partial).is_ok());
  h.sender->close();

  ASSERT_TRUE(h.sink.wait_closed());
  EXPECT_TRUE(h.sink.frames.empty());
  EXPECT_FALSE(h.sink.close_reason.is_ok());

  reactor.remove_channel(h.id);  // must be safe after the channel died
}

TEST(Reactor, TimerScheduleCancelFire) {
  Reactor reactor(ReactorOptions{1});

  std::atomic<bool> late_fired{false};
  const Reactor::TimerId late = reactor.schedule_timer(
      60 * kMicrosPerSecond, [&] { late_fired.store(true); });

  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  const Reactor::TimerId soon =
      reactor.schedule_timer(5 * 1000, [&] {
        std::lock_guard<std::mutex> lock(mutex);
        fired = true;
        cv.notify_all();
      });

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired; }));
  }
  EXPECT_FALSE(reactor.cancel_timer(soon));  // already fired
  EXPECT_TRUE(reactor.cancel_timer(late));   // still pending
  EXPECT_FALSE(late_fired.load());
}

TEST(Reactor, TimerCancelledByAnEarlierTimerOfItsBatchDoesNotRun) {
  Reactor reactor(ReactorOptions{1});
  // The first timer holds I/O thread 0 until the next two are both due, so
  // they fire in one batch, the earlier id first.
  reactor.schedule_timer(1000, [] { std::this_thread::sleep_for(30ms); });
  std::atomic<Reactor::TimerId> second{0};
  std::atomic<bool> second_ran{false};
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<bool> cancelled;
  reactor.schedule_timer(5000, [&] {
    const bool result = reactor.cancel_timer(second.load());
    std::lock_guard<std::mutex> lock(mutex);
    cancelled = result;
    cv.notify_all();
  });
  second.store(reactor.schedule_timer(5000, [&] { second_ran.store(true); }));
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return cancelled.has_value(); }));
    EXPECT_TRUE(*cancelled);
  }
  // A timer scheduled now fires after the rest of that batch.
  std::atomic<bool> after{false};
  reactor.schedule_timer(0, [&] { after.store(true); });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!after.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(after.load());
  EXPECT_FALSE(second_ran.load());
}

TEST(Reactor, IoTimersRunOnTheEventLoopAndReArmFromIt) {
  Reactor reactor(ReactorOptions{1});

  std::atomic<bool> pending_fired{false};
  const Reactor::TimerId pending = reactor.schedule_timer(
      60 * kMicrosPerSecond, [&] { pending_fired.store(true); });

  // A chain of 1 ms timers, each scheduled from the previous callback on
  // the I/O thread: no wakeup is sent, and each must still fire.
  std::mutex mutex;
  std::condition_variable cv;
  int fired = 0;
  bool all_on_io = true;
  bool last_on_io = false;
  std::function<void()> tick = [&] {
    std::lock_guard<std::mutex> lock(mutex);
    all_on_io = all_on_io && Reactor::on_io_thread();
    if (++fired < 5) {
      reactor.schedule_timer(1000, tick);
    } else {
      reactor.schedule_timer(1000, [&] {
        std::lock_guard<std::mutex> inner(mutex);
        last_on_io = Reactor::on_io_thread();
        ++fired;
        cv.notify_all();
      });
    }
  };
  reactor.schedule_timer(1000, tick);

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired == 6; }));
    EXPECT_TRUE(all_on_io);
    EXPECT_TRUE(last_on_io);  // every timer runs on the event loop
  }
  EXPECT_TRUE(reactor.cancel_timer(pending));
  EXPECT_FALSE(pending_fired.load());
}

TEST(Reactor, FdLessChannelsUseReadinessShim) {
  Reactor reactor(ReactorOptions{1});
  ChannelPair pair = make_memory_channel_pair();
  auto link = tls::make_plain_link(*pair.b);
  Sink sink;
  auto id = reactor.add_channel(*pair.b, *link->decoder(), sink.callbacks());
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();

  const Bytes wire = plain_frame("through-the-shim");
  ASSERT_TRUE(pair.a->write(wire).is_ok());
  ASSERT_TRUE(sink.wait_frames(1));
  EXPECT_EQ(to_string(sink.frames[0]), "through-the-shim");

  pair.a->close();
  ASSERT_TRUE(sink.wait_closed());
  reactor.remove_channel(id.value());
}

/// Plain frames over a connected TCP pair: reads are edge-triggered and
/// the kernel, not the writer, decides where they split.
receive_path::Endpoint tcp_plain_endpoint() {
  struct Owner {
    ChannelPtr sender;
    ChannelPtr receiver;
    tls::MessageLinkPtr receiver_link;
  };
  auto owner = std::make_shared<Owner>();
  receive_path::Endpoint end;
  auto listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
  if (!listener.is_ok()) return end;
  auto client = tcp_connect("127.0.0.1", listener.value().port());
  auto accepted = listener.value().accept();
  EXPECT_TRUE(client.is_ok() && accepted.is_ok());
  if (!client.is_ok() || !accepted.is_ok()) return end;
  owner->sender = client.take();
  owner->receiver = accepted.take();
  owner->receiver_link = tls::make_plain_link(*owner->receiver);
  end.tx = owner->sender.get();
  end.rx = owner->receiver.get();
  end.decoder = owner->receiver_link->decoder();
  end.encode = [](const std::vector<std::string>& messages) {
    std::vector<Bytes> out;
    for (const std::string& m : messages) out.push_back(plain_frame(m));
    return out;
  };
  end.oversized_header = {0xff, 0xff, 0xff, 0xff};
  end.owner = owner;
  return end;
}

TEST(ReactorReceivePathTcp, FramesSplitAtEveryByteBoundary) {
  receive_path::frames_split_at_every_byte_boundary(tcp_plain_endpoint);
}

TEST(ReactorReceivePathTcp, SeveralFramesAndAPartialInOneWrite) {
  receive_path::several_frames_and_a_partial_in_one_write(tcp_plain_endpoint);
}

TEST(ReactorReceivePathTcp, FrameLargerThanTheReadChunk) {
  receive_path::frame_larger_than_the_read_chunk(tcp_plain_endpoint);
}

TEST(ReactorReceivePathTcp, OversizedLengthPrefixClosesWithError) {
  receive_path::oversized_length_prefix_closes_with_error(tcp_plain_endpoint);
}

TEST(ReactorReceivePathTcp, CallbackClosesOwnConnectionMidBatch) {
  receive_path::callback_closes_own_connection_mid_batch(tcp_plain_endpoint);
}

}  // namespace
}  // namespace pg::net

namespace pg::proxy {
namespace {

using namespace std::chrono_literals;

struct ConnPair {
  ConnectionPtr a;
  ConnectionPtr b;
};

ConnPair connect_pair(Connection::EnvelopeHandler handler_a,
                      Connection::EnvelopeHandler handler_b,
                      bool export_from_b = false) {
  net::ChannelPair channels = net::make_memory_channel_pair();
  auto chan_a = std::move(channels.a);
  auto chan_b = std::move(channels.b);
  auto link_a = tls::make_plain_link(*chan_a);
  auto link_b = tls::make_plain_link(*chan_b);
  ConnPair out;
  out.a = std::make_unique<Connection>("peer-b", std::move(chan_a),
                                       std::move(link_a), true,
                                       std::move(handler_a));
  out.b = std::make_unique<Connection>("peer-a", std::move(chan_b),
                                       std::move(link_b), false,
                                       std::move(handler_b));
  if (export_from_b) out.b->set_span_export(true, "site-b");
  out.a->start();
  out.b->start();
  return out;
}

TEST(ReactorConnection, ChurnThousandConnections) {
  // 1000 connections opened, exercised, and torn down across 4 threads on
  // the shared global reactor — the sanitizer-matrix churn test.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ok] {
      for (int i = 0; i < kPerThread; ++i) {
        ConnPair pair = connect_pair(
            [](const proto::Envelope&, Connection&) {},
            [](const proto::Envelope& env, Connection& conn) {
              if (env.op == proto::OpCode::kPing)
                (void)conn.respond(env, proto::OpCode::kPong, env.payload);
            });
        Result<proto::Envelope> response =
            pair.a->call(proto::OpCode::kPing, to_bytes("churn"),
                         10 * kMicrosPerSecond);
        if (response.is_ok() &&
            to_string(response.value().payload) == "churn") {
          ok.fetch_add(1);
        }
        // Destructors close both ends: reactor detach.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
}

TEST(ReactorConnection, ExportsSpansOfForeignTraces) {
  // Forge a trace id this process never allocated: the handler's spans
  // then count as foreign work and must flow back as kTraceExport.
  constexpr std::uint64_t kForeignTrace = 12345;
  constexpr std::uint64_t kForeignSpan = 678;

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<proto::TraceExport> exports;

  ConnPair pair = connect_pair(
      [&](const proto::Envelope& env, Connection&) {
        if (env.op != proto::OpCode::kTraceExport) return;
        Result<proto::TraceExport> parsed =
            proto::TraceExport::parse(env.payload);
        ASSERT_TRUE(parsed.is_ok());
        std::lock_guard<std::mutex> lock(mutex);
        exports.push_back(parsed.take());
        cv.notify_all();
      },
      [](const proto::Envelope& env, Connection&) {
        if (env.op != proto::OpCode::kPing) return;
        telemetry::Span span =
            telemetry::Tracer::global().start_span("test.work", "site-b");
        span.end();
      },
      /*export_from_b=*/true);

  {
    telemetry::ScopedTraceContext ctx(
        telemetry::TraceContext{kForeignTrace, kForeignSpan});
    ASSERT_TRUE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  }

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return !exports.empty(); }));
  EXPECT_EQ(exports[0].exporter_site, "site-b");
  ASSERT_FALSE(exports[0].spans.empty());
  bool found = false;
  for (const proto::ExportedSpan& span : exports[0].spans) {
    if (span.trace_id == kForeignTrace && span.name == "test.work")
      found = true;
  }
  EXPECT_TRUE(found) << "handler span missing from the export";
}

TEST(ReactorConnection, OwnTracesAreNotExported) {
  std::atomic<int> export_count{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool pinged = false;

  ConnPair pair = connect_pair(
      [&](const proto::Envelope& env, Connection&) {
        if (env.op == proto::OpCode::kTraceExport) export_count.fetch_add(1);
      },
      [&](const proto::Envelope& env, Connection&) {
        if (env.op != proto::OpCode::kPing) return;
        telemetry::Span span =
            telemetry::Tracer::global().start_span("test.local", "site-b");
        span.end();
        std::lock_guard<std::mutex> lock(mutex);
        pinged = true;
        cv.notify_all();
      },
      /*export_from_b=*/true);

  // A trace allocated by this process's tracer is not foreign: handling it
  // must not produce a kTraceExport.
  {
    telemetry::Span root =
        telemetry::Tracer::global().start_span("test.root", "site-a");
    ASSERT_TRUE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return pinged; }));
  }
  std::this_thread::sleep_for(50ms);  // give a stray export time to arrive
  EXPECT_EQ(export_count.load(), 0);
}

TEST(ReactorConnection, InlineSendNeverWaitsOnFullTcpQueue) {
  // Connection `slow` runs over TCP to a peer that never reads, and a
  // writer thread keeps its 4 MiB send queue full. An inline data handler
  // on a reactor I/O thread then sends on `slow` too: it must neither wait
  // for queue space (that I/O thread is the one that drains the queue)
  // nor for the writer's send lock.
  auto listener = net::TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = net::tcp_connect("127.0.0.1", listener.value().port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto accepted = listener.value().accept();
  ASSERT_TRUE(accepted.is_ok()) << accepted.status().to_string();
  net::ChannelPtr never_read = accepted.take();
  net::Channel* slow_channel = client.value().get();
  auto slow_link = tls::make_plain_link(*client.value());
  Connection slow("slow-peer", client.take(), std::move(slow_link), true,
                  [](const proto::Envelope&, Connection&) {});
  slow.start();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const Bytes chunk(256 * 1024, 0x5a);
    while (!stop.load() &&
           slow.notify(proto::OpCode::kHeartbeat, chunk).is_ok()) {
    }
  });
  // Wait until the writer is held at the queue bound.
  const auto full_by = std::chrono::steady_clock::now() + 20s;
  while (slow_channel->stats().backpressure_waits.load() == 0 &&
         std::chrono::steady_clock::now() < full_by)
    std::this_thread::sleep_for(1ms);
  ASSERT_GT(slow_channel->stats().backpressure_waits.load(), 0u);
  ASSERT_GT(slow_channel->queued_write_bytes(), std::size_t{4} << 20);

  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  bool sent = false;
  bool inline_run = false;
  ConnPair pair = connect_pair(
      [](const proto::Envelope&, Connection&) {},
      [&](const proto::Envelope& env, Connection&) {
        if (env.op != proto::OpCode::kMpiBatch) return;
        const bool ok =
            slow.notify(proto::OpCode::kHeartbeat, to_bytes("ack")).is_ok();
        std::lock_guard<std::mutex> lock(mutex);
        sent = ok;
        inline_run = net::Reactor::on_io_thread();
        done = true;
        cv.notify_all();
      });
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatch, {}).is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, 10s, [&] { return done; }))
        << "inline handler stuck behind a full send queue";
    EXPECT_TRUE(sent);
    EXPECT_TRUE(inline_run);
  }

  stop.store(true);
  slow.close();  // wakes the writer
  writer.join();
  never_read->close();
}

/// Records which ops a handler saw and whether it ran on an I/O thread.
/// kJobSubmit stands in for an op that blocks: it is offloaded, and the
/// task waits for a permit from release(). The op in `hold`, if any, waits
/// for a permit inline, holding the I/O thread. Owns the tasks it offloaded
/// and waits for them when it dies, so declare it before the connections.
struct DispatchLog {
  struct Event {
    proto::OpCode op;
    bool on_io_thread;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Event> events;
  int started = 0;  // offloaded tasks that began
  int permits = 0;
  std::vector<ThreadCache::Handle> tasks;
  std::optional<proto::OpCode> hold;

  DispatchLog() = default;
  DispatchLog(const DispatchLog&) = delete;
  DispatchLog& operator=(const DispatchLog&) = delete;
  ~DispatchLog() {
    release(1 << 20);
    std::vector<ThreadCache::Handle> pending;
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.swap(tasks);
    }
    for (const ThreadCache::Handle& task : pending) task.wait();
  }

  Connection::EnvelopeHandler handler() {
    return [this](const proto::Envelope& env, Connection& conn) {
      std::unique_lock<std::mutex> lock(mutex);
      events.push_back({env.op, net::Reactor::on_io_thread()});
      cv.notify_all();
      if (hold == env.op) {
        cv.wait(lock, [this] { return permits > 0; });
        --permits;
      }
      if (env.op == proto::OpCode::kPing) {
        lock.unlock();
        (void)conn.respond(env, proto::OpCode::kPong, {});
      } else if (env.op == proto::OpCode::kJobSubmit) {
        lock.unlock();
        ThreadCache::Handle task =
            conn.offload(env, [this](const proto::Envelope&, Connection&) {
              std::unique_lock<std::mutex> inner(mutex);
              ++started;
              cv.notify_all();
              cv.wait(inner, [this] { return permits > 0; });
              --permits;
            });
        lock.lock();
        tasks.push_back(std::move(task));
      }
    };
  }
  bool wait_events(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, 10s, [&] { return events.size() >= n; });
  }
  bool wait_started(int n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, 10s, [&] { return started >= n; });
  }
  void release(int n) {
    std::lock_guard<std::mutex> lock(mutex);
    permits += n;
    cv.notify_all();
  }
};

TEST(ReactorConnection, EveryOpRunsInlineInReceiveOrder) {
  // No op is declared anywhere: data, control, job and extension ops all
  // run on the I/O thread, one after another in receive order.
  DispatchLog log;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  const std::vector<proto::OpCode> ops = {
      proto::OpCode::kMpiBatch, proto::OpCode::kHeartbeat,
      proto::OpCode::kJobQuery, proto::OpCode::kExtensionBase,
      proto::OpCode::kMpiBatch};
  for (const proto::OpCode op : ops)
    ASSERT_TRUE(pair.a->notify(op, {}).is_ok());
  ASSERT_TRUE(log.wait_events(ops.size()));
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.events.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(log.events[i].op, ops[i]) << i;
    EXPECT_TRUE(log.events[i].on_io_thread) << i;
  }
}

TEST(ReactorConnection, AckAndPingRunWhileOffloadIsBlocked) {
  // An offloaded op holds no place in line: an ack and a ping behind it on
  // the same connection are handled at once, on the I/O thread.
  DispatchLog log;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
  ASSERT_TRUE(log.wait_started(1));
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatchAck, {}).is_ok());
  const Result<proto::Envelope> pong =
      pair.a->call(proto::OpCode::kPing, {}, 10 * kMicrosPerSecond);
  ASSERT_TRUE(pong.is_ok()) << pong.status().to_string();
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    ASSERT_EQ(log.events.size(), 3u);
    EXPECT_EQ(log.events[0].op, proto::OpCode::kJobSubmit);
    EXPECT_EQ(log.events[1].op, proto::OpCode::kMpiBatchAck);
    EXPECT_EQ(log.events[2].op, proto::OpCode::kPing);
    for (const DispatchLog::Event& event : log.events)
      EXPECT_TRUE(event.on_io_thread);
    ASSERT_EQ(log.tasks.size(), 1u);
    EXPECT_FALSE(log.tasks[0].done()) << "the offloaded op did not block";
  }
  log.release(1);
}

/// Releases an inline hold before the pair closes, on every exit path;
/// declare it after the connections.
struct ReleaseOnExit {
  DispatchLog& log;
  ~ReleaseOnExit() { log.release(1 << 20); }
};

// The connection's strand is its one line of handlers, run in receive order
// on its I/O thread; it is busy while a handler has not returned.

TEST(ReactorConnection, DataOpsRunInlineOnIdleStrandAndQueueBehindWork) {
  DispatchLog log;
  log.hold = proto::OpCode::kHeartbeat;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  ReleaseOnExit release_on_exit{log};

  // Idle strand: the batch runs to completion on the I/O thread.
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatch, {}).is_ok());
  ASSERT_TRUE(log.wait_events(1));

  // A control handler holds the strand; a batch arriving meanwhile must
  // wait its turn instead of overtaking it.
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kHeartbeat, {}).is_ok());
  ASSERT_TRUE(log.wait_events(2));
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatch, {}).is_ok());
  std::this_thread::sleep_for(30ms);
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(log.events.size(), 2u) << "batch overtook the busy strand";
  }
  log.release(1);
  ASSERT_TRUE(log.wait_events(3));

  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].op, proto::OpCode::kMpiBatch);
  EXPECT_EQ(log.events[1].op, proto::OpCode::kHeartbeat);
  EXPECT_EQ(log.events[2].op, proto::OpCode::kMpiBatch);
  for (const DispatchLog::Event& event : log.events)
    EXPECT_TRUE(event.on_io_thread);
}

TEST(ReactorConnection, AckRunsInlineWhileStrandIsBusy) {
  // Applying an ack commutes with everything else on the connection, so a
  // kMpiBatchAck does not wait for a blocking op that is still running.
  DispatchLog log;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
  ASSERT_TRUE(log.wait_started(1));
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kMpiBatchAck, {}).is_ok());
  EXPECT_TRUE(log.wait_events(2)) << "ack waited for the blocking op";
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[1].op, proto::OpCode::kMpiBatchAck);
  EXPECT_TRUE(log.events[1].on_io_thread);
  ASSERT_EQ(log.tasks.size(), 1u);
  EXPECT_FALSE(log.tasks[0].done()) << "the offloaded op did not block";
}

TEST(ReactorConnection, DeclaredControlOpRunsInlineOnIdleStrand) {
  // A control op needs no declaration to run inline: the ping is handled
  // and answered on the I/O thread.
  DispatchLog log;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  const Result<proto::Envelope> pong =
      pair.a->call(proto::OpCode::kPing, {}, 10 * kMicrosPerSecond);
  ASSERT_TRUE(pong.is_ok()) << pong.status().to_string();
  EXPECT_EQ(pong.value().op, proto::OpCode::kPong);
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].op, proto::OpCode::kPing);
  EXPECT_TRUE(log.events[0].on_io_thread);
}

TEST(ReactorConnection, DeclaredOpQueuesBehindBusyStrand) {
  // kJobQuery holds the strand inline; a kPing arriving meanwhile must not
  // overtake it, and runs after it, on the I/O thread.
  DispatchLog log;
  log.hold = proto::OpCode::kJobQuery;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  ReleaseOnExit release_on_exit{log};
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobQuery, {}).is_ok());
  ASSERT_TRUE(log.wait_events(1));
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  std::this_thread::sleep_for(30ms);
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(log.events.size(), 1u) << "ping overtook the busy strand";
  }
  log.release(1);
  ASSERT_TRUE(log.wait_events(2));
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.events.size(), 2u);
  EXPECT_EQ(log.events[0].op, proto::OpCode::kJobQuery);
  EXPECT_EQ(log.events[1].op, proto::OpCode::kPing);
  EXPECT_TRUE(log.events[1].on_io_thread);
}

TEST(ReactorConnection, OffloadCapPausesReadsUntilOneFinishes) {
  DispatchLog log;
  ConnPair pair =
      connect_pair([](const proto::Envelope&, Connection&) {}, log.handler());
  const int cap = static_cast<int>(Connection::kMaxOffloads);
  for (int i = 0; i < cap; ++i)
    ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
  ASSERT_TRUE(log.wait_started(cap));

  // At the cap reads are paused: neither one more offloaded op nor a ping,
  // which would be answered inline, is read.
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
  const Result<proto::Envelope> paused =
      pair.a->call(proto::OpCode::kPing, {}, 200 * kMicrosPerMilli);
  EXPECT_EQ(paused.status().code(), ErrorCode::kDeadlineExceeded)
      << "reads went on past the offload cap";
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(log.started, cap);
    EXPECT_EQ(log.events.size(), static_cast<std::size_t>(cap));
  }

  // One finishes: reads resume, and the queued op and ping are read.
  log.release(1);
  ASSERT_TRUE(log.wait_started(cap + 1));
  ASSERT_TRUE(log.wait_events(static_cast<std::size_t>(cap) + 2));
  log.release(1 << 20);
  const Result<proto::Envelope> pong =
      pair.a->call(proto::OpCode::kPing, {}, 10 * kMicrosPerSecond);
  EXPECT_TRUE(pong.is_ok()) << pong.status().to_string();
}

TEST(ReactorConnection, OffloadedWorkExportsSpansOfForeignTraces) {
  // The offloaded task runs under the trace context its handler ran
  // under, and its spans of a foreign trace flow back like an inline
  // handler's do.
  constexpr std::uint64_t kForeignTrace = 424242;
  constexpr std::uint64_t kForeignSpan = 99;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<proto::ExportedSpan> exported;
  std::vector<ThreadCache::Handle> tasks;
  {
    ConnPair pair = connect_pair(
        [&](const proto::Envelope& env, Connection&) {
          if (env.op != proto::OpCode::kTraceExport) return;
          Result<proto::TraceExport> parsed =
              proto::TraceExport::parse(env.payload);
          ASSERT_TRUE(parsed.is_ok());
          std::lock_guard<std::mutex> lock(mutex);
          for (proto::ExportedSpan& span : parsed.value().spans)
            exported.push_back(std::move(span));
          cv.notify_all();
        },
        [&](const proto::Envelope& env, Connection& conn) {
          if (env.op != proto::OpCode::kJobSubmit) return;
          ThreadCache::Handle task =
              conn.offload(env, [](const proto::Envelope&, Connection&) {
                telemetry::Span span = telemetry::Tracer::global().start_span(
                    "test.offloaded", "site-b");
              });
          std::lock_guard<std::mutex> lock(mutex);
          tasks.push_back(std::move(task));
        },
        /*export_from_b=*/true);
    {
      telemetry::ScopedTraceContext ctx(
          telemetry::TraceContext{kForeignTrace, kForeignSpan});
      ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
    }
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return !exported.empty(); }));
  }
  for (const ThreadCache::Handle& task : tasks) task.wait();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].name, "test.offloaded");
  EXPECT_EQ(exported[0].trace_id, kForeignTrace);
  EXPECT_EQ(exported[0].parent_span_id, kForeignSpan);
}

/// Live threads of this process, from /proc/self/status.
long os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::strtol(line.c_str() + 8, nullptr, 10);
  }
  return -1;
}

TEST(ReactorConnection, BurstOfUndeclaredOpsSpawnsNoThread) {
  // One kJobSubmit on each of 256 connections at once: every handler runs
  // on the reactor's own threads, so the burst starts no thread.
  constexpr int kPairs = 256;
  std::mutex mutex;
  std::condition_variable cv;
  int handled = 0;
  std::vector<ConnPair> pairs;
  pairs.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    pairs.push_back(connect_pair(
        [](const proto::Envelope&, Connection&) {},
        [&](const proto::Envelope& env, Connection&) {
          if (env.op != proto::OpCode::kJobSubmit) return;
          std::lock_guard<std::mutex> lock(mutex);
          ++handled;
          cv.notify_all();
        }));
  }
  const long before = os_thread_count();
  ASSERT_GT(before, 0);
  for (ConnPair& pair : pairs)
    ASSERT_TRUE(pair.a->notify(proto::OpCode::kJobSubmit, {}).is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 20s, [&] { return handled == kPairs; }));
  }
  EXPECT_LE(os_thread_count(), before + 2);
}

/// Two connections bouncing a kPing back and forth inline: each handler
/// writes the next hop from the I/O thread until `hops` ran or `stop`.
struct InlineChain {
  std::atomic<int> hops{0};
  std::atomic<bool> stop{false};
  int limit = 0;
  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;

  InlineChain() = default;
  InlineChain(const InlineChain&) = delete;
  InlineChain& operator=(const InlineChain&) = delete;

  Connection::EnvelopeHandler handler() {
    return [this](const proto::Envelope& env, Connection& conn) {
      if (env.op != proto::OpCode::kPing) return;
      const int hop = hops.fetch_add(1) + 1;
      if ((limit == 0 || hop < limit) && !stop.load()) {
        (void)conn.notify(proto::OpCode::kPing, {});
        return;
      }
      std::lock_guard<std::mutex> lock(mutex);
      finished = true;
      cv.notify_all();
    };
  }
  bool wait_finished() {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, 20s, [this] { return finished; });
  }
};

TEST(ReactorConnection, SelfWrittenFramesWakeNothing) {
  // Every hop after the first is written on the I/O thread to a channel
  // that same thread serves: it is queued on the thread's ready list with
  // no eventfd write, so the chain costs ~1 wakeup, not one per hop.
  net::Reactor& reactor = net::Reactor::global();
  if (reactor.io_thread_count() != 1)
    GTEST_SKIP() << "channels may land on different I/O threads";
  constexpr int kHops = 1000;
  InlineChain chain;
  chain.limit = kHops;
  ConnPair pair = connect_pair(chain.handler(), chain.handler());
  const std::uint64_t before = reactor.stats().wakeups;
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  ASSERT_TRUE(chain.wait_finished());
  const std::uint64_t wakeups = reactor.stats().wakeups - before;
  EXPECT_EQ(chain.hops.load(), kHops);
  EXPECT_LT(wakeups, static_cast<std::uint64_t>(kHops / 10))
      << "inline hops woke the I/O thread";
}

TEST(ReactorConnection, IoTimerFiresWhileInlineHopsRefillReadyList) {
  // An endless inline chain keeps the I/O thread's ready list non-empty;
  // a timer must still fire, between hops, while the chain runs.
  InlineChain chain;
  ConnPair pair = connect_pair(chain.handler(), chain.handler());
  ASSERT_TRUE(pair.a->notify(proto::OpCode::kPing, {}).is_ok());
  const auto running_by = std::chrono::steady_clock::now() + 10s;
  while (chain.hops.load() < 100 &&
         std::chrono::steady_clock::now() < running_by)
    std::this_thread::sleep_for(1ms);
  ASSERT_GE(chain.hops.load(), 100);

  std::mutex mutex;
  std::condition_variable cv;
  int hops_at_fire = -1;
  const net::Reactor::TimerId timer = net::Reactor::global().schedule_timer(
      5000,
      [&] {
        std::lock_guard<std::mutex> lock(mutex);
        hops_at_fire = chain.hops.load();
        cv.notify_all();
      });
  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, 10s, [&] { return hops_at_fire >= 0; }))
        << "timer starved by inline hops";
  }
  // The chain was still running when the timer fired, and keeps going.
  const int fired_at = hops_at_fire;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (chain.hops.load() <= fired_at &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_GT(chain.hops.load(), fired_at);
  chain.stop.store(true);
  EXPECT_TRUE(chain.wait_finished());
  net::Reactor::global().cancel_timer(timer);  // in case it never fired
}

TEST(PeriodicTimer, BlockingTickDelaysNoReactorWork) {
  // The tick runs on the thread cache: while it blocks, I/O thread 0 still
  // fires a 1 ms timer and answers a ping.
  ConnPair pair = connect_pair(
      [](const proto::Envelope&, Connection&) {},
      [](const proto::Envelope& env, Connection& conn) {
        if (env.op == proto::OpCode::kPing)
          (void)conn.respond(env, proto::OpCode::kPong, {});
      });
  std::mutex mutex;
  std::condition_variable cv;
  int ticks = 0;
  bool blocked_tick_done = false;
  bool tick_on_io = false;
  net::PeriodicTimer periodic(1000, [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      tick_on_io = tick_on_io || net::Reactor::on_io_thread();
      if (++ticks > 1) return;
      cv.notify_all();
    }
    std::this_thread::sleep_for(200ms);
    std::lock_guard<std::mutex> lock(mutex);
    blocked_tick_done = true;
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return ticks >= 1; }));
  }

  bool fired = false;
  bool fired_while_blocked = false;
  net::Reactor::global().schedule_timer(1000, [&] {
    std::lock_guard<std::mutex> lock(mutex);
    fired = true;
    fired_while_blocked = !blocked_tick_done;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired; }));
    EXPECT_TRUE(fired_while_blocked) << "the timer waited for the tick";
  }
  const Result<proto::Envelope> pong =
      pair.a->call(proto::OpCode::kPing, {}, 10 * kMicrosPerSecond);
  ASSERT_TRUE(pong.is_ok()) << pong.status().to_string();
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_FALSE(blocked_tick_done) << "the ping waited for the tick";
  }
  periodic.stop();
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_TRUE(blocked_tick_done);
  EXPECT_FALSE(tick_on_io);
}

TEST(PeriodicTimer, StopWaitsForRunningTickAndNoTickRunsAfter) {
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  int finished = 0;
  net::PeriodicTimer periodic(1000, [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
    }
    std::this_thread::sleep_for(100ms);
    std::lock_guard<std::mutex> lock(mutex);
    ++finished;
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return started > finished; }));
  }
  periodic.stop();
  int started_at_stop = 0;
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(finished, started) << "stop() returned while a tick ran";
    started_at_stop = started;
  }
  std::this_thread::sleep_for(50ms);
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(started, started_at_stop) << "a tick started after stop()";
}

TEST(PeriodicTimer, StopFromItsOwnTickReturnsAtOnceAndDoesNotReArm) {
  std::mutex mutex;
  std::condition_variable cv;
  int ticks = 0;
  bool stop_returned = false;
  std::optional<net::PeriodicTimer> periodic;
  {
    // Held while constructing, so the first tick finds `periodic` set.
    std::lock_guard<std::mutex> lock(mutex);
    periodic.emplace(1000, [&] {
      net::PeriodicTimer* self = nullptr;
      {
        std::lock_guard<std::mutex> inner(mutex);
        ++ticks;
        self = &*periodic;
      }
      self->stop();
      std::lock_guard<std::mutex> inner(mutex);
      stop_returned = true;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return stop_returned; }));
  }
  std::this_thread::sleep_for(50ms);
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(ticks, 1) << "the timer re-armed after stop()";
  }
  periodic.reset();
}

TEST(PeriodicTimer, NonPositiveIntervalNeverTicks) {
  std::atomic<int> ticks{0};
  net::PeriodicTimer zero(0, [&] { ticks.fetch_add(1); });
  net::PeriodicTimer negative(-1000, [&] { ticks.fetch_add(1); });
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(ticks.load(), 0);
}

}  // namespace
}  // namespace pg::proxy

namespace pg::telemetry {
namespace {

TEST(TracerExport, ImportDedupesAndTracksOrigin) {
  Tracer tracer;
  Span span = tracer.start_span("origin.work");
  const std::uint64_t own_trace = span.context().trace_id;
  span.end();

  EXPECT_TRUE(tracer.originated_here(own_trace));
  EXPECT_FALSE(tracer.originated_here(0xdeadbeef));

  SpanRecord remote;
  remote.trace_id = own_trace;
  remote.span_id = 99991;
  remote.name = "remote.work";
  tracer.import_span(remote);
  tracer.import_span(remote);  // duplicate export must not double-record

  std::size_t count = 0;
  for (const SpanRecord& record : tracer.trace(own_trace)) {
    if (record.span_id == remote.span_id) ++count;
  }
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace pg::telemetry
