#include "tls/record.hpp"

#include <cstring>

namespace pg::tls::internal {

Status write_record(net::Channel& channel, RecordType type,
                    BytesView payload) {
  if (payload.size() > kMaxRecordSize)
    return error(ErrorCode::kInvalidArgument, "record too large");

  std::uint8_t header[kRecordHeaderSize];
  header[0] = static_cast<std::uint8_t>(type);
  header[1] = static_cast<std::uint8_t>(payload.size() >> 24);
  header[2] = static_cast<std::uint8_t>(payload.size() >> 16);
  header[3] = static_cast<std::uint8_t>(payload.size() >> 8);
  header[4] = static_cast<std::uint8_t>(payload.size());

  // Small records (handshake messages, alerts) go out in one write;
  // larger payloads are written after the header rather than copied.
  std::uint8_t coalesced[kRecordHeaderSize + 1024];
  if (payload.size() <= sizeof(coalesced) - kRecordHeaderSize) {
    std::memcpy(coalesced, header, kRecordHeaderSize);
    if (!payload.empty())
      std::memcpy(coalesced + kRecordHeaderSize, payload.data(),
                  payload.size());
    return channel.write(
        BytesView(coalesced, kRecordHeaderSize + payload.size()));
  }
  PG_RETURN_IF_ERROR(channel.write(BytesView(header, kRecordHeaderSize)));
  return channel.write(payload);
}

Status read_record_into(net::Channel& channel, Record& record) {
  std::uint8_t header[kRecordHeaderSize];
  Result<std::size_t> first = channel.read(header, kRecordHeaderSize);
  if (!first.is_ok()) return first.status();
  if (first.value() == 0) return error(ErrorCode::kUnavailable, "eof");
  if (first.value() < kRecordHeaderSize) {
    PG_RETURN_IF_ERROR(channel.read_exact(header + first.value(),
                                          kRecordHeaderSize - first.value()));
  }

  const auto raw_type = header[0];
  if (raw_type < 1 || raw_type > 3)
    return error(ErrorCode::kProtocolError, "unknown record type");
  const std::uint32_t len = (static_cast<std::uint32_t>(header[1]) << 24) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 8) |
                            static_cast<std::uint32_t>(header[4]);
  if (len > kMaxRecordSize)
    return error(ErrorCode::kProtocolError, "oversized record");

  record.type = static_cast<RecordType>(raw_type);
  record.payload.resize(len);
  if (len > 0)
    PG_RETURN_IF_ERROR(channel.read_exact(record.payload.data(), len));
  return Status::ok();
}

Result<Record> read_record(net::Channel& channel) {
  Record record;
  PG_RETURN_IF_ERROR(read_record_into(channel, record));
  return record;
}

RecordCipher::RecordCipher(Bytes key, Bytes mac_key, Bytes iv)
    : key_(std::move(key)), iv_(std::move(iv)), mac_(mac_key) {}

void RecordCipher::nonce_for(
    std::uint64_t seq, std::uint8_t out[crypto::kChaChaNonceSize]) const {
  // 12-byte nonce = iv XOR (zero-padded big-endian seq), TLS 1.3 style.
  std::memcpy(out, iv_.data(), crypto::kChaChaNonceSize);
  for (int i = 0; i < 8; ++i) {
    out[crypto::kChaChaNonceSize - 1 - static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(seq >> (8 * i));
  }
}

void RecordCipher::mac_core(RecordType type, BytesView ciphertext,
                            std::uint8_t* mac_out) {
  // MAC input stream: [8-byte BE seq][1-byte type][ciphertext].
  std::uint8_t head[9];
  for (int i = 0; i < 8; ++i)
    head[i] = static_cast<std::uint8_t>(seq_ >> (56 - 8 * i));
  head[8] = static_cast<std::uint8_t>(type);
  mac_.reset();
  mac_.update(BytesView(head, sizeof(head)));
  mac_.update(ciphertext);
  mac_.finish_into(mac_out);
}

void RecordCipher::seal_core(RecordType type, BytesView plaintext,
                             std::uint8_t* ct, std::uint8_t* mac_out) {
  std::uint8_t nonce[crypto::kChaChaNonceSize];
  nonce_for(seq_, nonce);
  crypto::ChaCha20 cipher(key_, BytesView(nonce, sizeof(nonce)), 1);
  cipher.process(plaintext.data(), ct, plaintext.size());
  mac_core(type, BytesView(ct, plaintext.size()), mac_out);
}

Bytes RecordCipher::seal(RecordType type, BytesView plaintext) {
  Bytes out(plaintext.size() + kMacSize);
  seal_core(type, plaintext, out.data(), out.data() + plaintext.size());
  ++seq_;
  return out;
}

Status RecordCipher::seal_record(RecordType type, BytesView plaintext,
                                 Bytes& out) {
  const std::size_t body = plaintext.size() + kMacSize;
  if (body > kMaxRecordSize)
    return error(ErrorCode::kInvalidArgument, "record too large");
  out.resize(kRecordHeaderSize + body);
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = static_cast<std::uint8_t>(body >> 24);
  out[2] = static_cast<std::uint8_t>(body >> 16);
  out[3] = static_cast<std::uint8_t>(body >> 8);
  out[4] = static_cast<std::uint8_t>(body);
  seal_core(type, plaintext, out.data() + kRecordHeaderSize,
            out.data() + kRecordHeaderSize + plaintext.size());
  ++seq_;
  return Status::ok();
}

Result<Bytes> RecordCipher::open(RecordType type,
                                 BytesView protected_payload) {
  if (protected_payload.size() < kMacSize)
    return error(ErrorCode::kCryptoError, "record shorter than MAC");
  const BytesView ciphertext =
      protected_payload.subspan(0, protected_payload.size() - kMacSize);
  const BytesView mac = protected_payload.subspan(ciphertext.size());

  std::uint8_t expected[kMacSize];
  mac_core(type, ciphertext, expected);
  if (!constant_time_equal(mac, BytesView(expected, kMacSize)))
    return error(ErrorCode::kCryptoError, "record MAC mismatch");

  std::uint8_t nonce[crypto::kChaChaNonceSize];
  nonce_for(seq_, nonce);
  ++seq_;
  Bytes out(ciphertext.size());
  crypto::ChaCha20 cipher(key_, BytesView(nonce, sizeof(nonce)), 1);
  cipher.process(ciphertext.data(), out.data(), out.size());
  return out;
}

Result<std::size_t> RecordCipher::open_in_place(
    RecordType type, std::span<std::uint8_t> record) {
  if (record.size() < kMacSize)
    return error(ErrorCode::kCryptoError, "record shorter than MAC");
  const std::size_t clen = record.size() - kMacSize;

  std::uint8_t expected[kMacSize];
  mac_core(type, BytesView(record.data(), clen), expected);
  if (!constant_time_equal(BytesView(record.data() + clen, kMacSize),
                           BytesView(expected, kMacSize)))
    return error(ErrorCode::kCryptoError, "record MAC mismatch");

  std::uint8_t nonce[crypto::kChaChaNonceSize];
  nonce_for(seq_, nonce);
  ++seq_;
  crypto::ChaCha20 cipher(key_, BytesView(nonce, sizeof(nonce)), 1);
  cipher.process(record.data(), record.data(), clen);
  return clen;
}

}  // namespace pg::tls::internal
