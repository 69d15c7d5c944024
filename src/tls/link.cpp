#include "tls/link.hpp"

#include <atomic>
#include <mutex>

#include "net/framer.hpp"
#include "tls/record.hpp"

namespace pg::tls {

namespace {

std::uint32_t load_u32_be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

class PlainLink final : public MessageLink, private net::FrameDecoder {
 public:
  explicit PlainLink(net::Channel& channel) : channel_(channel) {}

  Status send(BytesView message) override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    PG_RETURN_IF_ERROR(net::write_frame(channel_, message));
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_sent_.fetch_add(message.size(), std::memory_order_relaxed);
    wire_bytes_sent_.fetch_add(message.size() + 4, std::memory_order_relaxed);
    return Status::ok();
  }

  Result<Bytes> recv() override {
    Result<Bytes> frame = net::read_frame(channel_);
    if (frame.is_ok())
      messages_received_.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }

  void close() override { channel_.close(); }
  bool is_encrypted() const override { return false; }

  net::FrameDecoder* decoder() override { return this; }

  LinkStats stats() const override {
    LinkStats stats;
    stats.messages_sent = messages_sent_.load(std::memory_order_relaxed);
    stats.messages_received =
        messages_received_.load(std::memory_order_relaxed);
    stats.payload_bytes_sent =
        payload_bytes_sent_.load(std::memory_order_relaxed);
    stats.wire_bytes_sent = wire_bytes_sent_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  // Incremental [len u32 BE][payload] extraction — the event-mode mirror
  // of net::read_frame.
  Status decode(std::span<std::uint8_t> buf, std::size_t& pos,
                const std::function<void(BytesView)>& sink) override {
    for (;;) {
      const std::size_t available = buf.size() - pos;
      if (available < 4) return Status::ok();
      const std::uint32_t len = load_u32_be(buf.data() + pos);
      if (len > net::kMaxFrameSize)
        return error(ErrorCode::kProtocolError, "frame too large");
      if (available - 4 < len) return Status::ok();
      sink(BytesView(buf.data() + pos + 4, len));
      pos += 4 + len;
      messages_received_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  net::Channel& channel_;
  std::mutex send_mutex_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> payload_bytes_sent_{0};
  std::atomic<std::uint64_t> wire_bytes_sent_{0};
};

class SecureLink final : public MessageLink, private net::FrameDecoder {
 public:
  explicit SecureLink(GsslSessionPtr session) : session_(std::move(session)) {}

  Status send(BytesView message) override {
    return session_->send(message);
  }

  Result<Bytes> recv() override { return session_->recv(); }

  void close() override { session_->close(); }
  bool is_encrypted() const override { return true; }

  net::FrameDecoder* decoder() override { return this; }

  LinkStats stats() const override {
    const GsslStats gs = session_->stats();
    LinkStats ls;
    ls.messages_sent = gs.records_sent;
    ls.messages_received = gs.records_received;
    ls.payload_bytes_sent = gs.plaintext_bytes_sent;
    ls.wire_bytes_sent = gs.ciphertext_bytes_sent;
    ls.crypto_bytes = gs.plaintext_bytes_sent;
    ls.handshake_bytes = gs.handshake_bytes;
    return ls;
  }

 private:
  // Incremental [type u8][len u32 BE][protected payload] extraction; each
  // complete record is verified and decrypted where it lies in `buf` (its
  // bytes are consumed, so nothing reads the ciphertext again) and the
  // sink sees the plaintext in place.
  Status decode(std::span<std::uint8_t> buf, std::size_t& pos,
                const std::function<void(BytesView)>& sink) override {
    for (;;) {
      const std::size_t available = buf.size() - pos;
      if (available < internal::kRecordHeaderSize) return Status::ok();
      const std::uint8_t type = buf[pos];
      const std::uint32_t len = load_u32_be(buf.data() + pos + 1);
      if (len > internal::kMaxRecordSize)
        return error(ErrorCode::kProtocolError, "record too large");
      if (available - internal::kRecordHeaderSize < len) return Status::ok();
      const std::span<std::uint8_t> record =
          buf.subspan(pos + internal::kRecordHeaderSize, len);
      pos += internal::kRecordHeaderSize + len;
      Result<std::size_t> plain_len = session_->open_record(type, record);
      if (!plain_len.is_ok()) return plain_len.status();
      sink(BytesView(record.data(), plain_len.value()));
    }
  }

  GsslSessionPtr session_;
};

}  // namespace

MessageLinkPtr make_plain_link(net::Channel& channel) {
  return std::make_unique<PlainLink>(channel);
}

MessageLinkPtr make_secure_link(GsslSessionPtr session) {
  return std::make_unique<SecureLink>(std::move(session));
}

}  // namespace pg::tls
