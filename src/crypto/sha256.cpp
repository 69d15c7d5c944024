#include "crypto/sha256.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/accel.hpp"

namespace pg::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

/// Compresses `nblocks` 64-byte blocks into `state`, on SHA-NI when the CPU
/// has it, else on the scalar path.
void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t nblocks) {
  if (detail::sha256_ni_available()) {
    detail::sha256_ni_compress(state, blocks, nblocks);
    return;
  }
  for (std::size_t i = 0; i < nblocks; ++i)
    compress_scalar(state, blocks + i * kSha256BlockSize);
}

/// Writes `state` as the big-endian digest, a word at a time: GCC turned
/// the byte-at-a-time form into ~150 shuffle and extract instructions,
/// half as long as a SHA-NI compression.
void store_digest(const std::uint32_t* state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little)
      word = __builtin_bswap32(word);
    std::memcpy(out + i * 4, &word, sizeof word);
  }
}

}  // namespace

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(kSha256BlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kSha256BlockSize) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  const std::size_t full = (data.size() - offset) / kSha256BlockSize;
  if (full > 0) {
    compress(state_.data(), data.data() + offset, full);
    offset += full * kSha256BlockSize;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Sha256::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, 8-byte big-endian bit length.
  std::uint8_t pad[kSha256BlockSize * 2] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));

  update(BytesView(pad, pad_len));
  update(BytesView(len_bytes, 8));

  store_digest(state_.data(), out);
}

void Sha256::finish_block_into(const std::uint8_t* block,
                               std::uint8_t* out) const {
  assert(buffer_len_ == 0);
  std::array<std::uint32_t, 8> state = state_;
  compress(state.data(), block, 1);
  store_digest(state.data(), out);
}

Bytes Sha256::finish() {
  Bytes digest(kSha256DigestSize);
  finish_into(digest.data());
  return digest;
}

Bytes sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace pg::crypto
