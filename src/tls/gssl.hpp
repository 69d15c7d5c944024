// GSSL — the grid's SSL-like secure channel (paper layer 2 + "SSL").
//
// The paper tunnels inter-site traffic through SSL and authenticates hosts
// with certificates issued by a grid CA. GSSL reproduces that protocol role
// from scratch on top of src/crypto:
//
//   * record layer: typed, length-prefixed records; once the handshake
//     completes, records are ChaCha20-encrypted and HMAC-SHA-256
//     authenticated (encrypt-then-MAC) with per-direction keys and
//     sequence-number nonces (replay/reorder detection).
//   * handshake: mutual certificate authentication (both proxies present
//     CA-signed certificates), RSA-encrypted premaster secret, HKDF key
//     schedule, Finished MACs over the transcript.
//   * abbreviated handshake: a sealed resumption ticket (tls/resumption.hpp)
//     replaces the RSA key exchange and proof-of-possession on reconnect —
//     one round trip, zero RSA private-key operations, fresh keys per
//     connection. See docs/PROTOCOL.md "Session resumption".
//
// Threat model matches the paper: the inter-site network is untrusted;
// intra-site traffic is plaintext by default (see tls/link.hpp).
#pragma once

#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/cert.hpp"
#include "crypto/rsa.hpp"
#include "net/channel.hpp"
#include "tls/resumption.hpp"

namespace pg::tls {

/// What a host presents during the handshake.
struct GsslIdentity {
  crypto::Certificate certificate;
  crypto::RsaPrivateKey private_key;
};

/// Everything needed to run a handshake, minus the channel.
///
/// The resumption pointers are non-owning and optional. With a keeper the
/// accepting side issues tickets after full handshakes and accepts them in
/// abbreviated ones; with a store the dialing side caches and presents
/// them. Both sides still exchange and verify certificates on resumption —
/// only the RSA private-key operations and one round trip are skipped.
struct GsslConfig {
  GsslIdentity identity;
  std::string ca_name;             // trusted issuer
  crypto::RsaPublicKey ca_key;     // trusted issuer key
  std::string expected_peer;       // required peer subject; "" accepts any
  ResumptionKeeper* resumption = nullptr;        // accept + issue tickets
  ResumptionStore* resumption_store = nullptr;   // cache + present tickets
};

/// Byte counters for the overhead experiments.
struct GsslStats {
  std::uint64_t records_sent = 0;
  std::uint64_t records_received = 0;
  std::uint64_t plaintext_bytes_sent = 0;
  std::uint64_t ciphertext_bytes_sent = 0;  // includes MAC overhead
  std::uint64_t handshake_bytes = 0;
  bool resumed = false;  // established via the abbreviated handshake
};

/// An established secure session. Single reader + single writer per
/// direction (same rule as Channel).
class GsslSession {
 public:
  virtual ~GsslSession() = default;

  /// Encrypts and sends one application message.
  virtual Status send(BytesView message) = 0;

  /// Receives and decrypts one application message. MAC or sequence
  /// violations yield kCryptoError and poison the session.
  virtual Result<Bytes> recv() = 0;

  /// Event-mode receive path: verifies and decrypts one record payload in
  /// place (`record` = the wire payload after the [type u8][len u32]
  /// header, i.e. [ciphertext][mac]). On success returns the plaintext
  /// length — a prefix of `record`. Advances the receive sequence, so it
  /// is mutually exclusive with recv(): pick one receive style per
  /// session.
  virtual Result<std::size_t> open_record(std::uint8_t type,
                                          std::span<std::uint8_t> record) = 0;

  virtual void close() = 0;

  /// The authenticated peer certificate.
  virtual const crypto::Certificate& peer_certificate() const = 0;

  virtual GsslStats stats() const = 0;
};

using GsslSessionPtr = std::unique_ptr<GsslSession>;

/// Runs the client (initiating) side of the handshake over `channel`.
/// On success the session owns nothing about the channel's lifetime — the
/// caller keeps the Channel alive for as long as the session is used.
Result<GsslSessionPtr> gssl_client_handshake(net::Channel& channel,
                                             const GsslConfig& config,
                                             const Clock& clock, Rng& rng);

/// Runs the server (accepting) side of the handshake.
Result<GsslSessionPtr> gssl_server_handshake(net::Channel& channel,
                                             const GsslConfig& config,
                                             const Clock& clock, Rng& rng);

}  // namespace pg::tls
