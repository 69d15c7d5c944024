// Receive-path cases shared by reactor_test (plain frames over TCP) and
// tls_test (plain frames and GSSL records over memory pairs).
//
// Each case registers one channel with a private Reactor through a
// link's frame decoder, writes raw wire bytes to the other end in chosen
// pieces, and checks what on_frame and on_closed see: frames split at
// every byte boundary, several frames and a partial one in one write, a
// frame larger than the reactor's read chunk, malformed input, and a
// frame callback that closes its own connection in the middle of a batch.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/channel.hpp"
#include "net/frame_decoder.hpp"
#include "net/reactor.hpp"

namespace pg::receive_path {

using namespace std::chrono_literals;

/// One receive end under test. Bytes written to `tx` arrive at `rx`, which
/// the rig registers with its reactor through `decoder`.
struct Endpoint {
  net::Channel* tx = nullptr;
  net::Channel* rx = nullptr;
  net::FrameDecoder* decoder = nullptr;
  /// Wire form of each message, in send order. A GSSL encoder seals with
  /// advancing sequence numbers, so every encoded message must be written,
  /// in order.
  std::function<std::vector<Bytes>(const std::vector<std::string>&)> encode;
  /// A header announcing more than the decoder accepts.
  Bytes oversized_header;
  /// Owns the channels, links and sessions behind the raw pointers.
  std::shared_ptr<void> owner;
};

using EndpointFactory = std::function<Endpoint()>;

/// The plaintext link's wire form of one frame: [len u32 BE][payload].
inline Bytes plain_frame(const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  Bytes out = {static_cast<std::uint8_t>(len >> 24),
               static_cast<std::uint8_t>(len >> 16),
               static_cast<std::uint8_t>(len >> 8),
               static_cast<std::uint8_t>(len)};
  append(out, to_bytes(payload));
  return out;
}

inline Bytes concat(const std::vector<Bytes>& parts) {
  Bytes out;
  for (const Bytes& part : parts) append(out, part);
  return out;
}

/// A reactor-registered receive end that records what it is told.
class Rig {
 public:
  /// Runs inside on_frame with the index of the frame just recorded.
  using Hook = std::function<void(Rig&, std::size_t)>;

  explicit Rig(const EndpointFactory& make) : end_(make()) {}
  ~Rig() { remove(); }

  std::vector<Bytes> encode(const std::vector<std::string>& messages) {
    return end_.encode(messages);
  }
  const Bytes& oversized_header() const { return end_.oversized_header; }

  void attach(Hook hook = {}) {
    ASSERT_NE(end_.rx, nullptr) << "no endpoint to attach";
    hook_ = std::move(hook);
    net::Reactor::Callbacks callbacks{
        [this](BytesView frame) {
          std::size_t index = 0;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            frames_.emplace_back(frame.begin(), frame.end());
            index = frames_.size() - 1;
          }
          cv_.notify_all();
          if (hook_) hook_(*this, index);
        },
        [this](const Status& reason) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            reason_ = reason;
          }
          cv_.notify_all();
        }};
    auto id = reactor_.add_channel(*end_.rx, *end_.decoder,
                                   std::move(callbacks));
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    id_.store(id.value());
  }

  /// Detaches the channel; callable from a frame callback.
  void remove() {
    const net::Reactor::Id id = id_.exchange(0);
    if (id != 0) reactor_.remove_channel(id);
  }

  void write(BytesView bytes) {
    ASSERT_NE(end_.tx, nullptr) << "no endpoint to write to";
    ASSERT_TRUE(end_.tx->write(bytes).is_ok());
    written_ += bytes.size();
  }

  /// Writes `bytes` and waits until the reactor has read all of them, so
  /// the next write lands in a separate read.
  void write_and_settle(BytesView bytes) {
    write(bytes);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (reactor_.stats().bytes_read < written_) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "reactor read " << reactor_.stats().bytes_read << " of "
          << written_ << " bytes";
      std::this_thread::yield();
    }
  }

  bool wait_frames(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 30s, [&] { return frames_.size() >= n; });
  }
  bool wait_closed() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 10s, [&] { return closed_; });
  }
  std::vector<Bytes> frames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }
  bool closed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }
  Status reason() {
    std::lock_guard<std::mutex> lock(mutex_);
    return reason_;
  }

 private:
  Endpoint end_;
  // Declared after end_: destroyed first, while the channels still live.
  net::Reactor reactor_{net::ReactorOptions{1}};
  std::atomic<net::Reactor::Id> id_{0};
  Hook hook_;
  std::size_t written_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Bytes> frames_;
  bool closed_ = false;
  Status reason_;
};

inline void expect_frames(const std::vector<Bytes>& got,
                          const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(to_string(got[i]), want[i]) << "frame " << i;
}

/// Two frames written as two pieces, split at every byte offset in turn:
/// each offset inside a header, inside a body and on the boundary between
/// the frames lands the second piece in a read of its own.
inline void frames_split_at_every_byte_boundary(const EndpointFactory& make) {
  Rig rig(make);
  rig.attach();
  const std::vector<std::string> pair = {"split-frame-one", "two"};
  // Whole first; its size bounds the cuts below.
  const Bytes whole = concat(rig.encode(pair));
  rig.write(whole);
  std::vector<std::string> want = pair;
  ASSERT_TRUE(rig.wait_frames(want.size()));
  for (std::size_t cut = 1; cut < whole.size(); ++cut) {
    const Bytes wire = concat(rig.encode(pair));
    ASSERT_EQ(wire.size(), whole.size());
    rig.write_and_settle(BytesView(wire.data(), cut));
    rig.write(BytesView(wire.data() + cut, wire.size() - cut));
    want.insert(want.end(), pair.begin(), pair.end());
    ASSERT_TRUE(rig.wait_frames(want.size())) << "cut at byte " << cut;
  }
  expect_frames(rig.frames(), want);
  EXPECT_FALSE(rig.closed());
}

/// One write carries three whole frames and the head of a fourth: the
/// three are delivered at once, the fourth when its rest arrives.
inline void several_frames_and_a_partial_in_one_write(
    const EndpointFactory& make) {
  Rig rig(make);
  rig.attach();
  const std::vector<std::string> messages = {"first", "second", "third",
                                             "fourth-and-partial"};
  const std::vector<Bytes> wire = rig.encode(messages);
  Bytes batch = concat({wire[0], wire[1], wire[2]});
  const std::size_t head = wire[3].size() / 2;
  batch.insert(batch.end(), wire[3].begin(),
               wire[3].begin() + static_cast<std::ptrdiff_t>(head));
  rig.write_and_settle(batch);
  ASSERT_TRUE(rig.wait_frames(3));
  EXPECT_EQ(rig.frames().size(), 3u);
  rig.write(BytesView(wire[3].data() + head, wire[3].size() - head));
  ASSERT_TRUE(rig.wait_frames(4));
  expect_frames(rig.frames(), messages);
}

/// A 200 KiB frame between two small ones, all in one write: the big one
/// spans several reads of the 64 KiB chunk and starts mid-chunk.
inline void frame_larger_than_the_read_chunk(const EndpointFactory& make) {
  Rig rig(make);
  rig.attach();
  Rng rng(23);
  const Bytes random = rng.next_bytes(200 * 1024);
  const std::vector<std::string> messages = {
      "before", std::string(random.begin(), random.end()), "after"};
  rig.write(concat(rig.encode(messages)));
  ASSERT_TRUE(rig.wait_frames(3));
  const std::vector<Bytes> frames = rig.frames();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(to_string(frames[0]), "before");
  EXPECT_EQ(frames[1], random);
  EXPECT_EQ(to_string(frames[2]), "after");
}

/// A frame that announces more than the decoder accepts kills the stream
/// with an error, after the frame before it was delivered.
inline void oversized_length_prefix_closes_with_error(
    const EndpointFactory& make) {
  Rig rig(make);
  rig.attach();
  Bytes wire = concat(rig.encode({"good"}));
  append(wire, rig.oversized_header());
  rig.write(wire);
  ASSERT_TRUE(rig.wait_closed());
  expect_frames(rig.frames(), {"good"});
  EXPECT_EQ(rig.reason().code(), ErrorCode::kProtocolError)
      << rig.reason().to_string();
}

/// A frame callback removes its own channel in the middle of a batch, once
/// while frames decode from the read chunk and once while they decode from
/// a pending tail: no further frame or close is delivered, and nothing
/// touches freed memory.
inline void callback_closes_own_connection_mid_batch(
    const EndpointFactory& make) {
  {
    Rig rig(make);
    rig.attach([](Rig& self, std::size_t index) {
      if (index == 1) self.remove();
    });
    const std::vector<Bytes> wire =
        rig.encode({"a", "b", "c", "d", "e", "partial"});
    Bytes batch = concat({wire[0], wire[1], wire[2], wire[3], wire[4]});
    batch.insert(batch.end(), wire[5].begin(), wire[5].begin() + 3);
    rig.write(batch);
    ASSERT_TRUE(rig.wait_frames(2));
    rig.write(BytesView(wire[5].data() + 3, wire[5].size() - 3));
    std::this_thread::sleep_for(20ms);
    expect_frames(rig.frames(), {"a", "b"});
    EXPECT_FALSE(rig.closed());
  }
  {
    Rig rig(make);
    rig.attach([](Rig& self, std::size_t index) {
      if (index == 2) self.remove();
    });
    const std::vector<Bytes> wire =
        rig.encode({"pending", "b", "c", "d", "partial"});
    rig.write_and_settle(BytesView(wire[0].data(), 3));
    Bytes rest(wire[0].begin() + 3, wire[0].end());
    append(rest, concat({wire[1], wire[2], wire[3]}));
    rest.insert(rest.end(), wire[4].begin(), wire[4].begin() + 3);
    rig.write(rest);
    ASSERT_TRUE(rig.wait_frames(3));
    std::this_thread::sleep_for(20ms);
    expect_frames(rig.frames(), {"pending", "b", "c"});
    EXPECT_FALSE(rig.closed());
  }
}

}  // namespace pg::receive_path
