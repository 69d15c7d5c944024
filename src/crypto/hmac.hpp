// HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869), from scratch.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace pg::crypto {

/// Streaming HMAC-SHA-256 context. Keying pre-hashes the ipad/opad blocks
/// once; reset() rewinds to the keyed state by copying the saved inner
/// context, so one keyed object can MAC any number of messages without
/// re-deriving the pads or touching the heap.
class HmacSha256 {
 public:
  explicit HmacSha256(BytesView key);

  /// Rewinds to the freshly keyed state.
  void reset();
  void update(BytesView data);
  /// Writes the 32-byte tag to `out` and leaves the context finalized;
  /// call reset() before the next message.
  void finish_into(std::uint8_t* out);
  Bytes finish();

  /// HMAC of a 32-byte message in two compressions and no heap use: the
  /// inner and the outer hash each finish from their keyed pad state with
  /// one prebuilt block (message, 0x80, zeros, bit length 768). For chains
  /// that MAC a previous tag, like password stretching. `out` may alias
  /// `msg`. Independent of update()/reset(): the streaming state is unused.
  void mac32_into(const std::uint8_t* msg, std::uint8_t* out) const;

 private:
  Sha256 inner_base_;  // keyed with ipad, never finalized
  Sha256 outer_base_;  // keyed with opad, never finalized
  Sha256 inner_;       // working copy of inner_base_
};

/// HMAC-SHA-256 of `data` under `key`. Any key length is accepted.
Bytes hmac_sha256(BytesView key, BytesView data);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: derives `length` bytes (<= 255*32) from PRK and info.
Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length);

/// Extract-then-expand convenience.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

}  // namespace pg::crypto
