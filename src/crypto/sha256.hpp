// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the only digest in ProxyGrid: it backs HMAC, HKDF, certificate
// fingerprints, RSA signature padding and password hashing.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace pg::crypto {

constexpr std::size_t kSha256DigestSize = 32;
constexpr std::size_t kSha256BlockSize = 64;

/// Incremental SHA-256. Reusable after finish() via reset().
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the 32-byte digest. The object must be reset()
  /// before further use.
  Bytes finish();
  /// Allocation-free finalize: writes the digest to `out` (32 bytes).
  void finish_into(std::uint8_t* out);
  /// Compresses `block`, a final block the caller has already padded, into
  /// a copy of the state and writes that digest to `out` (32 bytes; may
  /// alias `block`). This object is left unchanged. Precondition: whole
  /// blocks only have been absorbed, as in a keyed HMAC pad state.
  void finish_block_into(const std::uint8_t* block, std::uint8_t* out) const;

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kSha256BlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Bytes sha256(BytesView data);

}  // namespace pg::crypto
