#include "crypto/hmac.hpp"

#include <array>
#include <cassert>
#include <cstring>

namespace pg::crypto {

namespace {

/// The second half of the one block that finishes a hash over a 64-byte
/// pad block and a 32-byte message: 0x80, zeros, then the 64-bit
/// big-endian message length in bits, (64 + 32) * 8 = 768.
constexpr std::array<std::uint8_t, kSha256DigestSize> kTail32 = [] {
  std::array<std::uint8_t, kSha256DigestSize> tail{};
  tail[0] = 0x80;
  constexpr std::uint64_t bits = (kSha256BlockSize + kSha256DigestSize) * 8;
  for (int i = 0; i < 8; ++i)
    tail[24 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  return tail;
}();

}  // namespace

HmacSha256::HmacSha256(BytesView key) {
  std::uint8_t k[kSha256BlockSize] = {};
  if (key.size() > kSha256BlockSize) {
    Sha256 h;
    h.update(key);
    h.finish_into(k);
  } else if (!key.empty()) {
    // An empty key's data() may be null, which memcpy must not see.
    std::memcpy(k, key.data(), key.size());
  }

  std::uint8_t pad[kSha256BlockSize];
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) pad[i] = k[i] ^ 0x36;
  inner_base_.update(BytesView(pad, kSha256BlockSize));
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  outer_base_.update(BytesView(pad, kSha256BlockSize));

  inner_ = inner_base_;
}

void HmacSha256::reset() { inner_ = inner_base_; }

void HmacSha256::update(BytesView data) { inner_.update(data); }

void HmacSha256::finish_into(std::uint8_t* out) {
  std::uint8_t digest[kSha256DigestSize];
  inner_.finish_into(digest);
  Sha256 outer = outer_base_;
  outer.update(BytesView(digest, kSha256DigestSize));
  outer.finish_into(out);
}

Bytes HmacSha256::finish() {
  Bytes tag(kSha256DigestSize);
  finish_into(tag.data());
  return tag;
}

void HmacSha256::mac32_into(const std::uint8_t* msg, std::uint8_t* out) const {
  std::uint8_t block[kSha256BlockSize];
  std::memcpy(block, msg, kSha256DigestSize);
  std::memcpy(block + kSha256DigestSize, kTail32.data(), kTail32.size());
  // The inner digest replaces the message; the tail stays valid, since the
  // outer hash also covers one pad block and 32 bytes.
  inner_base_.finish_block_into(block, block);
  outer_base_.finish_block_into(block, out);
}

Bytes hmac_sha256(BytesView key, BytesView data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  assert(length <= 255 * kSha256DigestSize);
  Bytes okm;
  okm.reserve(length);
  Bytes t;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    t = hmac_sha256(prk, block);
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace pg::crypto
