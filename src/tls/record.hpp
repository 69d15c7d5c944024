// GSSL record layer (internal to src/tls).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "net/channel.hpp"

namespace pg::tls::internal {

enum class RecordType : std::uint8_t {
  kHandshake = 1,
  kData = 2,
  kAlert = 3,
};

/// Wire record: [type u8][len u32 BE][payload]. `len` bounds a protected
/// payload, i.e. ciphertext plus trailing MAC.
constexpr std::size_t kMaxRecordSize = 16 * 1024 * 1024;
constexpr std::size_t kRecordHeaderSize = 5;
constexpr std::size_t kMacSize = crypto::kSha256DigestSize;

struct Record {
  RecordType type;
  Bytes payload;
};

/// Writes [type u8][len u32][payload]. Payload is already protected (or
/// plaintext during the handshake).
Status write_record(net::Channel& channel, RecordType type, BytesView payload);

/// Reads one record; enforces a size bound against hostile peers.
Result<Record> read_record(net::Channel& channel);

/// Reads one record into `record`, reusing its payload capacity. The hot
/// receive path calls this with a per-session Record so steady-state reads
/// do not allocate.
Status read_record_into(net::Channel& channel, Record& record);

/// Directional record protection: ChaCha20 encryption + HMAC-SHA-256
/// (encrypt-then-MAC), nonce = iv XOR sequence number.
class RecordCipher {
 public:
  RecordCipher(Bytes key, Bytes mac_key, Bytes iv);

  /// Protects `plaintext`; increments the send sequence.
  Bytes seal(RecordType type, BytesView plaintext);

  /// Verifies and decrypts; increments the receive sequence on success.
  Result<Bytes> open(RecordType type, BytesView protected_payload);

  /// Builds the complete wire record — header, ciphertext, MAC — into
  /// `out`, reusing its capacity; increments the send sequence. One
  /// channel.write(out) then puts the record on the wire. `plaintext`
  /// must not alias `out`. Steady state performs no allocation once
  /// `out` has grown to the working record size.
  Status seal_record(RecordType type, BytesView plaintext, Bytes& out);

  /// Verifies `record` ([ciphertext][mac]) and decrypts the ciphertext in
  /// place; on success returns the plaintext length (a prefix of
  /// `record`) and increments the receive sequence.
  Result<std::size_t> open_in_place(RecordType type,
                                    std::span<std::uint8_t> record);

 private:
  void nonce_for(std::uint64_t seq,
                 std::uint8_t out[crypto::kChaChaNonceSize]) const;
  /// Encrypts plaintext into `ct` and writes the tag over
  /// [seq BE][type][ct] to `mac_out`. Does not advance the sequence.
  void seal_core(RecordType type, BytesView plaintext, std::uint8_t* ct,
                 std::uint8_t* mac_out);
  /// Recomputes the tag over [seq BE][type][ciphertext] into `mac_out`.
  void mac_core(RecordType type, BytesView ciphertext, std::uint8_t* mac_out);

  Bytes key_;
  Bytes iv_;
  crypto::HmacSha256 mac_;  // keyed once, reset per record
  std::uint64_t seq_ = 0;
};

}  // namespace pg::tls::internal
