// Tests for channels, framing and TCP.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/channel.hpp"
#include "net/framer.hpp"
#include "net/memory_channel.hpp"
#include "net/tcp.hpp"

namespace pg::net {
namespace {

TEST(MemoryChannel, RoundTripSimple) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(to_bytes("hello grid")).is_ok());

  std::uint8_t buf[64];
  Result<std::size_t> n = pair.b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(buf, buf + n.value()), "hello grid");
}

TEST(MemoryChannel, BothDirections) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(to_bytes("ping")).is_ok());
  ASSERT_TRUE(pair.b->write(to_bytes("pong")).is_ok());

  std::uint8_t buf[16];
  Result<std::size_t> n = pair.b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(buf, buf + n.value()), "ping");
  n = pair.a->read(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(buf, buf + n.value()), "pong");
}

TEST(MemoryChannel, PartialReads) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(to_bytes("abcdef")).is_ok());

  std::uint8_t buf[2];
  std::string got;
  for (int i = 0; i < 3; ++i) {
    Result<std::size_t> n = pair.b->read(buf, 2);
    ASSERT_TRUE(n.is_ok());
    got.append(buf, buf + n.value());
  }
  EXPECT_EQ(got, "abcdef");
}

TEST(MemoryChannel, CloseWakesBlockedReader) {
  ChannelPair pair = make_memory_channel_pair();
  std::thread closer([&pair] { pair.a->close(); });
  std::uint8_t buf[8];
  Result<std::size_t> n = pair.b->read(buf, sizeof(buf));
  closer.join();
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);  // EOF
}

TEST(MemoryChannel, WriteAfterCloseFails) {
  ChannelPair pair = make_memory_channel_pair();
  pair.b->close();
  EXPECT_EQ(pair.a->write(to_bytes("x")).code(), ErrorCode::kUnavailable);
}

TEST(MemoryChannel, DrainsBufferedDataBeforeEof) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(to_bytes("tail")).is_ok());
  // NOTE: close() is symmetric (like RST), so we close after the reader has
  // a chance to drain. Buffered bytes survive the writer-side close.
  std::uint8_t buf[8];
  Result<std::size_t> n = pair.b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(buf, buf + n.value()), "tail");
}

TEST(MemoryChannel, StatsCountBytes) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(Bytes(100, 0x55)).is_ok());
  std::uint8_t buf[100];
  ASSERT_TRUE(pair.b->read_exact(buf, 100).is_ok());
  EXPECT_EQ(pair.a->stats().bytes_sent.load(), 100u);
  EXPECT_EQ(pair.b->stats().bytes_received.load(), 100u);
}

TEST(MemoryChannel, ReadExactAcrossWrites) {
  ChannelPair pair = make_memory_channel_pair();
  std::thread writer([&pair] {
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(pair.a->write(Bytes(10, static_cast<std::uint8_t>(i))).is_ok());
  });
  std::uint8_t buf[100];
  ASSERT_TRUE(pair.b->read_exact(buf, 100).is_ok());
  writer.join();
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[99], 9);
}

TEST(PipeBuffer, LaggingReaderCompactsTheBuffer) {
  // 16-byte writes, 8-byte reads: the unread backlog grows by 8 bytes a
  // round, and the consumed prefix is dropped before it outgrows the
  // backlog, so the buffer never holds more than about twice what is
  // unread. Bytes come out in order throughout.
  internal::PipeBuffer pipe;
  std::uint8_t next_written = 0;
  std::uint8_t next_read = 0;
  std::size_t unread = 0;
  for (int round = 0; round < 2000; ++round) {
    std::uint8_t chunk[16];
    for (std::uint8_t& b : chunk) b = next_written++;
    pipe.write(BytesView(chunk, sizeof(chunk)));
    unread += sizeof(chunk);
    std::uint8_t out[8];
    ASSERT_EQ(pipe.read(out, sizeof(out)), sizeof(out));
    unread -= sizeof(out);
    for (const std::uint8_t b : out) ASSERT_EQ(b, next_read++);
    ASSERT_LE(pipe.held_bytes(), 2 * unread + sizeof(chunk))
        << "round " << round;
  }
  // Catching up resets the buffer.
  std::vector<std::uint8_t> rest(unread);
  TryReadResult got = pipe.try_read(rest.data(), rest.size());
  ASSERT_EQ(got.n, unread);
  for (const std::uint8_t b : rest) ASSERT_EQ(b, next_read++);
  EXPECT_EQ(pipe.held_bytes(), 0u);
  EXPECT_TRUE(pipe.try_read(rest.data(), 1).would_block);
}

TEST(PipeBuffer, BlockingReadInterleavedWithTryRead) {
  ChannelPair pair = make_memory_channel_pair();
  constexpr int kWrites = 500;
  std::thread writer([&pair] {
    for (int i = 0; i < kWrites; ++i) {
      const Bytes chunk(1 + i % 37, static_cast<std::uint8_t>(i));
      ASSERT_TRUE(pair.a->write(chunk).is_ok());
      if (i % 16 == 0) std::this_thread::yield();
    }
  });
  Bytes want;
  for (int i = 0; i < kWrites; ++i)
    want.insert(want.end(), 1 + i % 37, static_cast<std::uint8_t>(i));
  Bytes got;
  bool blocking = true;
  while (got.size() < want.size()) {
    std::uint8_t buf[29];
    if (blocking) {
      Result<std::size_t> n = pair.b->read(buf, sizeof(buf));
      ASSERT_TRUE(n.is_ok());
      ASSERT_GT(n.value(), 0u);
      got.insert(got.end(), buf, buf + n.value());
    } else {
      Result<TryReadResult> r = pair.b->try_read(buf, sizeof(buf));
      ASSERT_TRUE(r.is_ok());
      ASSERT_FALSE(r.value().eof);
      got.insert(got.end(), buf, buf + r.value().n);
    }
    blocking = !blocking;
  }
  writer.join();
  EXPECT_EQ(got, want);
}

TEST(PipeBuffer, EofOnlyAfterTheBufferDrains) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(pair.a->write(to_bytes("abc")).is_ok());
  ASSERT_TRUE(pair.a->write(to_bytes("def")).is_ok());
  pair.a->close();

  std::uint8_t buf[8];
  Result<TryReadResult> first = pair.b->try_read(buf, 2);
  ASSERT_TRUE(first.is_ok());
  EXPECT_FALSE(first.value().eof);
  EXPECT_EQ(std::string(buf, buf + first.value().n), "ab");
  Result<std::size_t> second = pair.b->read(buf, sizeof(buf));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(std::string(buf, buf + second.value()), "cdef");

  Result<TryReadResult> drained = pair.b->try_read(buf, sizeof(buf));
  ASSERT_TRUE(drained.is_ok());
  EXPECT_TRUE(drained.value().eof);
  EXPECT_EQ(drained.value().n, 0u);
  Result<std::size_t> eof = pair.b->read(buf, sizeof(buf));
  ASSERT_TRUE(eof.is_ok());
  EXPECT_EQ(eof.value(), 0u);
}

TEST(Framer, RoundTrip) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(write_frame(*pair.a, to_bytes("frame one")).is_ok());
  ASSERT_TRUE(write_frame(*pair.a, to_bytes("")).is_ok());
  ASSERT_TRUE(write_frame(*pair.a, to_bytes("three")).is_ok());

  Result<Bytes> f1 = read_frame(*pair.b);
  Result<Bytes> f2 = read_frame(*pair.b);
  Result<Bytes> f3 = read_frame(*pair.b);
  ASSERT_TRUE(f1.is_ok());
  ASSERT_TRUE(f2.is_ok());
  ASSERT_TRUE(f3.is_ok());
  EXPECT_EQ(to_string(f1.value()), "frame one");
  EXPECT_TRUE(f2.value().empty());
  EXPECT_EQ(to_string(f3.value()), "three");
}

TEST(Framer, LargeFrame) {
  ChannelPair pair = make_memory_channel_pair();
  Rng rng(1);
  const Bytes big = rng.next_bytes(1 << 20);
  std::thread writer(
      [&pair, &big] { ASSERT_TRUE(write_frame(*pair.a, big).is_ok()); });
  Result<Bytes> got = read_frame(*pair.b);
  writer.join();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), big);
}

TEST(Framer, EofAtBoundaryIsClean) {
  ChannelPair pair = make_memory_channel_pair();
  ASSERT_TRUE(write_frame(*pair.a, to_bytes("last")).is_ok());
  ASSERT_TRUE(read_frame(*pair.b).is_ok());
  pair.a->close();
  Result<Bytes> eof = read_frame(*pair.b);
  EXPECT_FALSE(eof.is_ok());
  EXPECT_EQ(eof.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(eof.status().message(), "eof");
}

TEST(Framer, OversizedFrameRejected) {
  ChannelPair pair = make_memory_channel_pair();
  // Forge a header advertising 2 GiB.
  const Bytes evil = {0x80, 0x00, 0x00, 0x00};
  ASSERT_TRUE(pair.a->write(evil).is_ok());
  Result<Bytes> got = read_frame(*pair.b);
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kProtocolError);
}

TEST(Tcp, ConnectAndEcho) {
  Result<TcpListener> listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = listener.value().port();

  std::thread server([&listener] {
    Result<ChannelPtr> conn = listener.value().accept();
    ASSERT_TRUE(conn.is_ok());
    Result<Bytes> frame = read_frame(*conn.value());
    ASSERT_TRUE(frame.is_ok());
    ASSERT_TRUE(write_frame(*conn.value(), frame.value()).is_ok());
  });

  Result<ChannelPtr> client = tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(write_frame(*client.value(), to_bytes("over tcp")).is_ok());
  Result<Bytes> echoed = read_frame(*client.value());
  server.join();
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(to_string(echoed.value()), "over tcp");
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind then immediately close to get a (very likely) dead port.
  Result<TcpListener> listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = listener.value().port();
  listener.value().close();
  Result<ChannelPtr> conn = tcp_connect("127.0.0.1", port);
  EXPECT_FALSE(conn.is_ok());
}

TEST(Tcp, CloseWakesBlockedAccept) {
  // close() races a thread blocked in accept(), as WebInterface::stop()
  // does with its serve loop; the accept must fail, not hang or read a
  // torn fd.
  Result<TcpListener> listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.is_ok());
  std::atomic<bool> returned{false};
  Status accepted;
  std::thread acceptor([&] {
    accepted = listener.value().accept().status();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.value().close();
  acceptor.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(accepted.is_ok());
  EXPECT_EQ(listener.value().native_fd(), -1);
  // A second close (the destructor's) is a no-op.
  listener.value().close();
}

TEST(Tcp, BadAddressRejected) {
  EXPECT_EQ(tcp_connect("not-an-ip", 1234).status().code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace pg::net
