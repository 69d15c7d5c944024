// GSSL handshake and session implementation.
#include "tls/gssl.hpp"

#include <atomic>
#include <mutex>

#include "common/serde.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "telemetry/metrics.hpp"
#include "tls/record.hpp"

namespace pg::tls {

namespace {

/// Registry instruments for GSSL, resolved once per process.
struct TlsInstruments {
  telemetry::Histogram& client_handshake_micros;
  telemetry::Histogram& server_handshake_micros;
  telemetry::Histogram& seal_micros;
  telemetry::Histogram& open_micros;
  telemetry::Counter& records_sealed;
  telemetry::Counter& records_opened;
  telemetry::Counter& handshakes_full;
  telemetry::Counter& handshakes_resumed;
  telemetry::Counter& handshakes_resume_rejected;

  static TlsInstruments& get() {
    auto& registry = telemetry::MetricRegistry::global();
    static TlsInstruments instruments{
        registry.histogram("pg_tls_handshake_micros",
                           "GSSL handshake duration (microseconds)",
                           telemetry::duration_buckets_micros(),
                           {{"role", "client"}}),
        registry.histogram("pg_tls_handshake_micros",
                           "GSSL handshake duration (microseconds)",
                           telemetry::duration_buckets_micros(),
                           {{"role", "server"}}),
        registry.histogram("pg_tls_record_micros",
                           "GSSL record encrypt+MAC / MAC+decrypt time "
                           "(microseconds)",
                           telemetry::duration_buckets_micros(),
                           {{"op", "seal"}}),
        registry.histogram("pg_tls_record_micros",
                           "GSSL record encrypt+MAC / MAC+decrypt time "
                           "(microseconds)",
                           telemetry::duration_buckets_micros(),
                           {{"op", "open"}}),
        registry.counter("pg_tls_records_total",
                         "GSSL data records protected/unprotected",
                         {{"op", "seal"}}),
        registry.counter("pg_tls_records_total",
                         "GSSL data records protected/unprotected",
                         {{"op", "open"}}),
        registry.counter("pg_handshake_total",
                         "GSSL handshakes completed by kind",
                         {{"kind", "full"}}),
        registry.counter("pg_handshake_total",
                         "GSSL handshakes completed by kind",
                         {{"kind", "resumed"}}),
        registry.counter("pg_handshake_total",
                         "GSSL handshakes completed by kind",
                         {{"kind", "resume_rejected"}}),
    };
    return instruments;
  }
};

using internal::Record;
using internal::RecordCipher;
using internal::RecordType;

using internal::kRecordHeaderSize;

constexpr std::size_t kNonceSize = 32;
constexpr std::size_t kPremasterSize = 48;

enum class HsType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kKeyExchange = 3,
  kCertVerify = 4,
  kFinished = 5,
  kServerHelloResume = 6,  // server accepted the offered ticket
  kNewTicket = 7,          // fresh ticket after a full handshake
};

// Hello flags: the dialing side advertises it can cache tickets, the
// accepting side that a kNewTicket message follows its Finished.
constexpr std::uint8_t kFlagResumption = 0x01;

// ---------------------------------------------------------------------
// Handshake message encoding.

Bytes encode_hello(HsType type, BytesView nonce,
                   const crypto::Certificate& cert, std::uint8_t flags,
                   BytesView ticket) {
  BufferWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_bytes(nonce);
  w.put_bytes(cert.serialize());
  w.put_u8(flags);
  w.put_bytes(ticket);
  return w.take();
}

struct Hello {
  HsType type = HsType::kClientHello;
  Bytes nonce;
  crypto::Certificate certificate;
  std::uint8_t flags = 0;
  Bytes ticket;  // offered (ClientHello) or refreshed (ServerHelloResume)
};

Result<Hello> decode_hello(BytesView payload) {
  BufferReader r(payload);
  std::uint8_t type = 0;
  PG_RETURN_IF_ERROR(r.get_u8(type));
  if (type != static_cast<std::uint8_t>(HsType::kClientHello) &&
      type != static_cast<std::uint8_t>(HsType::kServerHello) &&
      type != static_cast<std::uint8_t>(HsType::kServerHelloResume))
    return error(ErrorCode::kProtocolError, "unexpected handshake message");
  Hello hello;
  hello.type = static_cast<HsType>(type);
  Bytes cert_bytes;
  PG_RETURN_IF_ERROR(r.get_bytes(hello.nonce));
  PG_RETURN_IF_ERROR(r.get_bytes(cert_bytes));
  PG_RETURN_IF_ERROR(r.get_u8(hello.flags));
  PG_RETURN_IF_ERROR(r.get_bytes(hello.ticket));
  PG_RETURN_IF_ERROR(r.expect_end());
  if (hello.nonce.size() != kNonceSize)
    return error(ErrorCode::kProtocolError, "bad hello nonce size");
  Result<crypto::Certificate> cert =
      crypto::Certificate::deserialize(cert_bytes);
  if (!cert.is_ok()) return cert.status();
  hello.certificate = cert.take();
  return hello;
}

Bytes encode_blob(HsType type, BytesView blob) {
  BufferWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_bytes(blob);
  return w.take();
}

Result<Bytes> decode_blob(HsType expected, BytesView payload) {
  BufferReader r(payload);
  std::uint8_t type = 0;
  PG_RETURN_IF_ERROR(r.get_u8(type));
  if (type != static_cast<std::uint8_t>(expected))
    return error(ErrorCode::kProtocolError, "unexpected handshake message");
  Bytes blob;
  PG_RETURN_IF_ERROR(r.get_bytes(blob));
  PG_RETURN_IF_ERROR(r.expect_end());
  return blob;
}

// ---------------------------------------------------------------------
// Key schedule.

struct SessionKeys {
  Bytes client_key, server_key;
  Bytes client_mac, server_mac;
  Bytes client_iv, server_iv;
};

Bytes derive_master(BytesView premaster, BytesView client_nonce,
                    BytesView server_nonce) {
  Bytes salt;
  append(salt, client_nonce);
  append(salt, server_nonce);
  return crypto::hkdf(salt, premaster, to_bytes("gssl master secret"), 32);
}

SessionKeys derive_keys(BytesView master) {
  const Bytes block =
      crypto::hkdf_expand(master, to_bytes("gssl key expansion"), 152);
  SessionKeys keys;
  auto slice = [&block](std::size_t off, std::size_t len) {
    return Bytes(block.begin() + static_cast<std::ptrdiff_t>(off),
                 block.begin() + static_cast<std::ptrdiff_t>(off + len));
  };
  keys.client_key = slice(0, 32);
  keys.server_key = slice(32, 32);
  keys.client_mac = slice(64, 32);
  keys.server_mac = slice(96, 32);
  keys.client_iv = slice(128, 12);
  keys.server_iv = slice(140, 12);
  return keys;
}

// Resumption key schedule: the ticket secret plays the premaster's role.
// Both sides derive the secret from the previous session's master, and a
// fresh master from it plus both new nonces — so every resumed connection
// gets keys and IVs unrelated to any earlier connection's.
Bytes derive_resumption_master(BytesView secret, BytesView client_nonce,
                               BytesView server_nonce) {
  Bytes salt;
  append(salt, client_nonce);
  append(salt, server_nonce);
  return crypto::hkdf(salt, secret, to_bytes("gssl resumption master"), 32);
}

Bytes derive_resumption_secret(BytesView master) {
  return crypto::hkdf_expand(master, to_bytes("gssl resumption secret"), 32);
}

Bytes finished_mac(BytesView master, std::string_view label,
                   BytesView transcript) {
  Bytes input = to_bytes(label);
  append(input, crypto::sha256(transcript));
  return crypto::hmac_sha256(master, input);
}

// ---------------------------------------------------------------------
// Handshake plumbing shared by both sides.

class HandshakeIo {
 public:
  explicit HandshakeIo(net::Channel& channel) : channel_(channel) {}

  Status send(BytesView payload) {
    bytes_ += payload.size() + kRecordHeaderSize;
    append(transcript_, payload);
    return internal::write_record(channel_, RecordType::kHandshake, payload);
  }

  Result<Bytes> recv() {
    Result<Record> record = internal::read_record(channel_);
    if (!record.is_ok()) return record.status();
    if (record.value().type == RecordType::kAlert)
      return error(ErrorCode::kCryptoError,
                   "peer alert: " + to_string(record.value().payload));
    if (record.value().type != RecordType::kHandshake)
      return error(ErrorCode::kProtocolError,
                   "expected handshake record");
    bytes_ += record.value().payload.size() + kRecordHeaderSize;
    append(transcript_, record.value().payload);
    return std::move(record.value().payload);
  }

  /// Transcript of every handshake payload exchanged so far, in order.
  const Bytes& transcript() const { return transcript_; }
  std::uint64_t bytes() const { return bytes_; }

  void send_alert(const std::string& reason) {
    (void)internal::write_record(channel_, RecordType::kAlert,
                                 to_bytes(reason));
  }

 private:
  net::Channel& channel_;
  Bytes transcript_;
  std::uint64_t bytes_ = 0;
};

Status verify_peer_cert(const crypto::Certificate& cert,
                        const GsslConfig& config, const Clock& clock) {
  PG_RETURN_IF_ERROR(crypto::CertificateAuthority::verify_with_key(
      cert, config.ca_name, config.ca_key, clock.now()));
  if (!config.expected_peer.empty() && cert.subject != config.expected_peer)
    return error(ErrorCode::kCryptoError,
                 "peer subject mismatch: got " + cert.subject + ", want " +
                     config.expected_peer);
  return Status::ok();
}

// ---------------------------------------------------------------------
// Session.

class GsslSessionImpl final : public GsslSession {
 public:
  GsslSessionImpl(net::Channel& channel, RecordCipher send_cipher,
                  RecordCipher recv_cipher, crypto::Certificate peer,
                  std::uint64_t handshake_bytes, bool resumed = false)
      : channel_(channel),
        send_cipher_(std::move(send_cipher)),
        recv_cipher_(std::move(recv_cipher)),
        peer_(std::move(peer)),
        handshake_bytes_(handshake_bytes),
        resumed_(resumed) {}

  Status send(BytesView message) override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    // One reusable buffer, one write: seal_record lays out
    // [header][ciphertext][mac] in send_buf_, reusing its capacity.
    {
      telemetry::ScopedTimer timer(TlsInstruments::get().seal_micros);
      PG_RETURN_IF_ERROR(
          send_cipher_.seal_record(RecordType::kData, message, send_buf_));
    }
    PG_RETURN_IF_ERROR(channel_.write(send_buf_));
    TlsInstruments::get().records_sealed.increment();
    records_sent_.fetch_add(1, std::memory_order_relaxed);
    plaintext_bytes_sent_.fetch_add(message.size(),
                                    std::memory_order_relaxed);
    ciphertext_bytes_sent_.fetch_add(send_buf_.size(),
                                     std::memory_order_relaxed);
    return Status::ok();
  }

  Result<Bytes> recv() override {
    std::lock_guard<std::mutex> lock(recv_mutex_);
    PG_RETURN_IF_ERROR(internal::read_record_into(channel_, recv_record_));
    if (recv_record_.type == RecordType::kAlert)
      return error(ErrorCode::kCryptoError,
                   "peer alert: " + to_string(recv_record_.payload));
    if (recv_record_.type != RecordType::kData)
      return error(ErrorCode::kProtocolError,
                   "unexpected record type after handshake");
    Result<std::size_t> plain_len = [&] {
      telemetry::ScopedTimer timer(TlsInstruments::get().open_micros);
      return recv_cipher_.open_in_place(RecordType::kData, recv_record_.payload);
    }();
    if (!plain_len.is_ok()) return plain_len.status();
    TlsInstruments::get().records_opened.increment();
    records_received_.fetch_add(1, std::memory_order_relaxed);
    // The only allocation on the receive path: the caller-visible result.
    return Bytes(recv_record_.payload.begin(),
                 recv_record_.payload.begin() +
                     static_cast<std::ptrdiff_t>(plain_len.value()));
  }

  Result<std::size_t> open_record(std::uint8_t type,
                                  std::span<std::uint8_t> record) override {
    std::lock_guard<std::mutex> lock(recv_mutex_);
    if (type == static_cast<std::uint8_t>(RecordType::kAlert))
      return error(ErrorCode::kCryptoError,
                   "peer alert: " + to_string(record));
    if (type != static_cast<std::uint8_t>(RecordType::kData))
      return error(ErrorCode::kProtocolError,
                   "unexpected record type after handshake");
    Result<std::size_t> plain_len = [&] {
      telemetry::ScopedTimer timer(TlsInstruments::get().open_micros);
      return recv_cipher_.open_in_place(RecordType::kData, record);
    }();
    if (!plain_len.is_ok()) return plain_len;
    TlsInstruments::get().records_opened.increment();
    records_received_.fetch_add(1, std::memory_order_relaxed);
    return plain_len;
  }

  void close() override { channel_.close(); }

  const crypto::Certificate& peer_certificate() const override {
    return peer_;
  }

  GsslStats stats() const override {
    GsslStats stats;
    stats.records_sent = records_sent_.load(std::memory_order_relaxed);
    stats.records_received = records_received_.load(std::memory_order_relaxed);
    stats.plaintext_bytes_sent =
        plaintext_bytes_sent_.load(std::memory_order_relaxed);
    stats.ciphertext_bytes_sent =
        ciphertext_bytes_sent_.load(std::memory_order_relaxed);
    stats.handshake_bytes = handshake_bytes_;
    stats.resumed = resumed_;
    return stats;
  }

 private:
  net::Channel& channel_;
  std::mutex send_mutex_;
  std::mutex recv_mutex_;
  RecordCipher send_cipher_;
  RecordCipher recv_cipher_;
  crypto::Certificate peer_;
  Bytes send_buf_;               // guarded by send_mutex_
  internal::Record recv_record_;  // guarded by recv_mutex_
  const std::uint64_t handshake_bytes_;
  const bool resumed_;
  std::atomic<std::uint64_t> records_sent_{0};
  std::atomic<std::uint64_t> records_received_{0};
  std::atomic<std::uint64_t> plaintext_bytes_sent_{0};
  std::atomic<std::uint64_t> ciphertext_bytes_sent_{0};
};

}  // namespace

Result<GsslSessionPtr> gssl_client_handshake(net::Channel& channel,
                                             const GsslConfig& config,
                                             const Clock& clock, Rng& rng) {
  telemetry::ScopedTimer timer(TlsInstruments::get().client_handshake_micros);
  HandshakeIo io(channel);

  // A cached ticket for the expected peer rides along in the ClientHello.
  // (With no expected peer there is no lookup key, so dial full.)
  ResumptionStore* store = config.resumption_store;
  std::optional<ResumptionStore::Entry> cached;
  if (store != nullptr && !config.expected_peer.empty())
    cached = store->lookup(config.expected_peer);

  // -> ClientHello
  const Bytes client_nonce = rng.next_bytes(kNonceSize);
  const std::uint8_t client_flags =
      store != nullptr ? kFlagResumption : std::uint8_t{0};
  PG_RETURN_IF_ERROR(io.send(encode_hello(
      HsType::kClientHello, client_nonce, config.identity.certificate,
      client_flags, cached ? BytesView(cached->ticket) : BytesView())));

  // <- ServerHello | ServerHelloResume
  Result<Bytes> sh_payload = io.recv();
  if (!sh_payload.is_ok()) return sh_payload.status();
  Result<Hello> server_hello = decode_hello(sh_payload.value());
  if (!server_hello.is_ok()) return server_hello.status();
  {
    const Status cert_ok =
        verify_peer_cert(server_hello.value().certificate, config, clock);
    if (!cert_ok.is_ok()) {
      io.send_alert(cert_ok.to_string());
      return cert_ok;
    }
  }

  if (server_hello.value().type == HsType::kServerHelloResume) {
    if (!cached) {
      io.send_alert("unsolicited resumption");
      return error(ErrorCode::kProtocolError,
                   "server resumed without an offered ticket");
    }
    const Bytes master = derive_resumption_master(
        cached->secret, client_nonce, server_hello.value().nonce);

    // <- Finished (server authenticates first on the abbreviated path)
    const Bytes pre_server_fin_transcript = io.transcript();
    Result<Bytes> fin_payload = io.recv();
    if (!fin_payload.is_ok()) return fin_payload.status();
    Result<Bytes> server_fin =
        decode_blob(HsType::kFinished, fin_payload.value());
    if (!server_fin.is_ok()) return server_fin.status();
    const Bytes expected_fin =
        finished_mac(master, "server finished", pre_server_fin_transcript);
    if (!constant_time_equal(server_fin.value(), expected_fin))
      return error(ErrorCode::kCryptoError, "server Finished MAC mismatch");

    // -> Finished
    const Bytes client_fin =
        finished_mac(master, "client finished", io.transcript());
    PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kFinished, client_fin)));

    // The ServerHelloResume carries a refreshed ticket for the next dial.
    if (!server_hello.value().ticket.empty()) {
      store->put(server_hello.value().certificate.subject,
                 {server_hello.value().ticket,
                  derive_resumption_secret(master)});
    }

    TlsInstruments::get().handshakes_resumed.increment();
    const SessionKeys keys = derive_keys(master);
    return GsslSessionPtr(new GsslSessionImpl(
        channel,
        RecordCipher(keys.client_key, keys.client_mac, keys.client_iv),
        RecordCipher(keys.server_key, keys.server_mac, keys.server_iv),
        server_hello.value().certificate, io.bytes(), /*resumed=*/true));
  }

  // -> KeyExchange (premaster under the server's public key)
  const Bytes premaster = rng.next_bytes(kPremasterSize);
  Result<Bytes> encrypted = crypto::rsa_encrypt(
      server_hello.value().certificate.public_key, premaster, rng);
  if (!encrypted.is_ok()) return encrypted.status();
  PG_RETURN_IF_ERROR(
      io.send(encode_blob(HsType::kKeyExchange, encrypted.value())));

  // -> CertVerify (proof of possession of the client key)
  const Bytes cv_signature = crypto::rsa_sign(
      config.identity.private_key, crypto::sha256(io.transcript()));
  PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kCertVerify, cv_signature)));

  const Bytes master =
      derive_master(premaster, client_nonce, server_hello.value().nonce);

  // -> Finished
  const Bytes client_fin =
      finished_mac(master, "client finished", io.transcript());
  PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kFinished, client_fin)));

  // <- Finished
  const Bytes pre_server_fin_transcript = io.transcript();
  Result<Bytes> fin_payload = io.recv();
  if (!fin_payload.is_ok()) return fin_payload.status();
  Result<Bytes> server_fin = decode_blob(HsType::kFinished, fin_payload.value());
  if (!server_fin.is_ok()) return server_fin.status();
  const Bytes expected_fin =
      finished_mac(master, "server finished", pre_server_fin_transcript);
  if (!constant_time_equal(server_fin.value(), expected_fin))
    return error(ErrorCode::kCryptoError, "server Finished MAC mismatch");

  // <- NewTicket (only when the server announced one in its hello)
  if ((server_hello.value().flags & kFlagResumption) != 0) {
    Result<Bytes> nt_payload = io.recv();
    if (!nt_payload.is_ok()) return nt_payload.status();
    Result<Bytes> ticket = decode_blob(HsType::kNewTicket, nt_payload.value());
    if (!ticket.is_ok()) return ticket.status();
    if (store != nullptr && !ticket.value().empty()) {
      store->put(server_hello.value().certificate.subject,
                 {ticket.take(), derive_resumption_secret(master)});
    }
  }

  TlsInstruments::get().handshakes_full.increment();
  const SessionKeys keys = derive_keys(master);
  return GsslSessionPtr(new GsslSessionImpl(
      channel,
      RecordCipher(keys.client_key, keys.client_mac, keys.client_iv),
      RecordCipher(keys.server_key, keys.server_mac, keys.server_iv),
      server_hello.value().certificate, io.bytes()));
}

Result<GsslSessionPtr> gssl_server_handshake(net::Channel& channel,
                                             const GsslConfig& config,
                                             const Clock& clock, Rng& rng) {
  telemetry::ScopedTimer timer(TlsInstruments::get().server_handshake_micros);
  HandshakeIo io(channel);

  // <- ClientHello
  Result<Bytes> ch_payload = io.recv();
  if (!ch_payload.is_ok()) return ch_payload.status();
  Result<Hello> client_hello = decode_hello(ch_payload.value());
  if (!client_hello.is_ok()) return client_hello.status();
  if (client_hello.value().type != HsType::kClientHello)
    return error(ErrorCode::kProtocolError, "unexpected handshake message");
  {
    const Status cert_ok =
        verify_peer_cert(client_hello.value().certificate, config, clock);
    if (!cert_ok.is_ok()) {
      io.send_alert(cert_ok.to_string());
      return cert_ok;
    }
  }
  const std::string& client_subject = client_hello.value().certificate.subject;
  const bool client_caches =
      (client_hello.value().flags & kFlagResumption) != 0;

  // An offered ticket that opens cleanly and matches the authenticated
  // client subject takes the abbreviated path. Any open failure (tamper,
  // expiry, rotated realm key) silently continues with the full
  // handshake — the client only ever sees a normal ServerHello.
  bool ticket_rejected = false;
  ResumptionKeeper* keeper = config.resumption;
  if (keeper != nullptr && !client_hello.value().ticket.empty()) {
    Result<ResumptionTicket> ticket =
        keeper->open(client_hello.value().ticket, clock.now());
    if (ticket.is_ok() && ticket.value().peer_subject == client_subject) {
      const Bytes server_nonce = rng.next_bytes(kNonceSize);
      const Bytes master = derive_resumption_master(
          ticket.value().secret, client_hello.value().nonce, server_nonce);

      // -> ServerHelloResume, carrying a refreshed ticket for next time.
      const Bytes next_ticket = keeper->seal(
          client_subject, derive_resumption_secret(master), clock.now(), rng);
      PG_RETURN_IF_ERROR(io.send(
          encode_hello(HsType::kServerHelloResume, server_nonce,
                       config.identity.certificate, 0, next_ticket)));

      // -> Finished
      const Bytes server_fin =
          finished_mac(master, "server finished", io.transcript());
      PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kFinished, server_fin)));

      // <- Finished (proves the client actually holds the ticket secret)
      const Bytes pre_client_fin_transcript = io.transcript();
      Result<Bytes> fin_payload = io.recv();
      if (!fin_payload.is_ok()) return fin_payload.status();
      Result<Bytes> client_fin =
          decode_blob(HsType::kFinished, fin_payload.value());
      if (!client_fin.is_ok()) return client_fin.status();
      const Bytes expected_fin =
          finished_mac(master, "client finished", pre_client_fin_transcript);
      if (!constant_time_equal(client_fin.value(), expected_fin)) {
        io.send_alert("finished mismatch");
        return error(ErrorCode::kCryptoError,
                     "client Finished MAC mismatch");
      }

      TlsInstruments::get().handshakes_resumed.increment();
      const SessionKeys keys = derive_keys(master);
      return GsslSessionPtr(new GsslSessionImpl(
          channel,
          RecordCipher(keys.server_key, keys.server_mac, keys.server_iv),
          RecordCipher(keys.client_key, keys.client_mac, keys.client_iv),
          client_hello.value().certificate, io.bytes(), /*resumed=*/true));
    }
    ticket_rejected = true;
  }

  // -> ServerHello (flag set when a NewTicket follows our Finished)
  const bool will_issue = keeper != nullptr && client_caches;
  const Bytes server_nonce = rng.next_bytes(kNonceSize);
  PG_RETURN_IF_ERROR(io.send(encode_hello(
      HsType::kServerHello, server_nonce, config.identity.certificate,
      will_issue ? kFlagResumption : std::uint8_t{0}, BytesView())));

  // <- KeyExchange
  Result<Bytes> kx_payload = io.recv();
  if (!kx_payload.is_ok()) return kx_payload.status();
  Result<Bytes> encrypted =
      decode_blob(HsType::kKeyExchange, kx_payload.value());
  if (!encrypted.is_ok()) return encrypted.status();
  const Bytes pre_cv_transcript = io.transcript();
  Result<Bytes> premaster =
      crypto::rsa_decrypt(config.identity.private_key, encrypted.value());
  if (!premaster.is_ok()) {
    io.send_alert("key exchange failed");
    return premaster.status();
  }
  if (premaster.value().size() != kPremasterSize) {
    io.send_alert("bad premaster size");
    return error(ErrorCode::kCryptoError, "bad premaster size");
  }

  // <- CertVerify
  Result<Bytes> cv_payload = io.recv();
  if (!cv_payload.is_ok()) return cv_payload.status();
  Result<Bytes> cv_signature =
      decode_blob(HsType::kCertVerify, cv_payload.value());
  if (!cv_signature.is_ok()) return cv_signature.status();
  if (!crypto::rsa_verify(client_hello.value().certificate.public_key,
                          crypto::sha256(pre_cv_transcript),
                          cv_signature.value())) {
    io.send_alert("certificate verify failed");
    return error(ErrorCode::kCryptoError,
                 "client CertVerify signature invalid");
  }

  const Bytes master = derive_master(premaster.value(),
                                     client_hello.value().nonce, server_nonce);

  // <- Finished
  const Bytes pre_client_fin_transcript = io.transcript();
  Result<Bytes> fin_payload = io.recv();
  if (!fin_payload.is_ok()) return fin_payload.status();
  Result<Bytes> client_fin =
      decode_blob(HsType::kFinished, fin_payload.value());
  if (!client_fin.is_ok()) return client_fin.status();
  const Bytes expected_fin =
      finished_mac(master, "client finished", pre_client_fin_transcript);
  if (!constant_time_equal(client_fin.value(), expected_fin)) {
    io.send_alert("finished mismatch");
    return error(ErrorCode::kCryptoError, "client Finished MAC mismatch");
  }

  // -> Finished
  const Bytes server_fin =
      finished_mac(master, "server finished", io.transcript());
  PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kFinished, server_fin)));

  // -> NewTicket: seed the client's cache so its next dial resumes.
  if (will_issue) {
    const Bytes ticket = keeper->seal(
        client_subject, derive_resumption_secret(master), clock.now(), rng);
    PG_RETURN_IF_ERROR(io.send(encode_blob(HsType::kNewTicket, ticket)));
  }

  auto& instruments = TlsInstruments::get();
  (ticket_rejected ? instruments.handshakes_resume_rejected
                   : instruments.handshakes_full)
      .increment();
  const SessionKeys keys = derive_keys(master);
  return GsslSessionPtr(new GsslSessionImpl(
      channel,
      RecordCipher(keys.server_key, keys.server_mac, keys.server_iv),
      RecordCipher(keys.client_key, keys.client_mac, keys.client_iv),
      client_hello.value().certificate, io.bytes()));
}

}  // namespace pg::tls
