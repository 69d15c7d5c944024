// Known-answer and property tests for the crypto substrate.
//
// Vectors: SHA-256 from FIPS 180-4 examples, HMAC from RFC 4231, HKDF from
// RFC 5869, ChaCha20 from RFC 8439 §2.4.2. The password-stretch vector pins
// the stored-hash format of auth::PasswordStore, which is built on HMAC.
#include <gtest/gtest.h>

#include "auth/password.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "crypto/cert.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace pg::crypto {
namespace {

Bytes from_hex(std::string_view hex) {
  Bytes out;
  EXPECT_TRUE(hex_decode(hex, out));
  return out;
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_encode(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_encode(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  // Property: arbitrary chunking never changes the digest.
  Rng rng(11);
  const Bytes data = rng.next_bytes(4096);
  const Bytes oneshot = sha256(data);
  for (std::size_t chunk : {1ULL, 3ULL, 63ULL, 64ULL, 65ULL, 1000ULL}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t n = std::min(chunk, data.size() - off);
      h.update(BytesView(data.data() + off, n));
    }
    EXPECT_EQ(h.finish(), oneshot) << "chunk=" << chunk;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("abc"));
  const Bytes first = h.finish();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(h.finish(), first);
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hex_encode(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, EmptyKeyAndMessage) {
  EXPECT_EQ(hex_encode(hmac_sha256(Bytes{}, Bytes{})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, StreamingMatchesOneShot) {
  Rng rng(11);
  const Bytes key = rng.next_bytes(32);
  const Bytes data = rng.next_bytes(500);
  const Bytes expected = hmac_sha256(key, data);

  HmacSha256 mac(key);
  // Split points cover empty updates, block boundaries, and odd sizes.
  const std::size_t splits[] = {0, 1, 63, 64, 65, 200, 500};
  std::size_t prev = 0;
  for (const std::size_t at : splits) {
    mac.update(BytesView(data.data() + prev, at - prev));
    prev = at;
  }
  EXPECT_EQ(mac.finish(), expected);
}

TEST(Hmac, ResetReusesPrecomputedPads) {
  const Bytes key(131, 0xaa);  // long key: hashed-key path
  const Bytes msg = to_bytes(
      "Test Using Larger Than Block-Size Key - Hash Key First");
  HmacSha256 mac(key);
  for (int round = 0; round < 3; ++round) {
    mac.reset();
    mac.update(msg);
    EXPECT_EQ(
        hex_encode(mac.finish()),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

TEST(Hmac, Mac32MatchesOneShotForEveryKeyLength) {
  // 65- and 100-byte keys take the hashed-key branch.
  Rng rng(12);
  for (const std::size_t key_len : {0u, 16u, 32u, 64u, 65u, 100u}) {
    const Bytes key = rng.next_bytes(key_len);
    const Bytes msg = rng.next_bytes(kSha256DigestSize);
    HmacSha256 mac(key);
    mac.update(to_bytes("streaming state the fixed-size path ignores"));
    Bytes tag(kSha256DigestSize);
    mac.mac32_into(msg.data(), tag.data());
    EXPECT_EQ(tag, hmac_sha256(key, msg)) << "key length " << key_len;
  }
}

/// Password stretching as it was before the HMAC was keyed once: a
/// one-shot HMAC per round.
Bytes per_round_stretch(std::string_view password, BytesView salt,
                        std::uint32_t rounds) {
  Bytes acc = hmac_sha256(salt, to_bytes(password));
  for (std::uint32_t i = 1; i < rounds; ++i) acc = hmac_sha256(salt, acc);
  return acc;
}

TEST(PasswordStretch, MatchesPerRoundHmacChain) {
  Rng rng(13);
  const Bytes salt = rng.next_bytes(16);
  for (const std::uint32_t rounds : {1u, 2u, 1000u}) {
    EXPECT_EQ(auth::PasswordStore::stretch("hunter2", salt, rounds),
              per_round_stretch("hunter2", salt, rounds))
        << rounds << " rounds";
  }
}

TEST(PasswordStretch, KnownAnswerPinsStoredHashFormat) {
  // Computed with the per-round chain. If this changes, every stored
  // password hash stops verifying.
  Bytes salt(16);
  for (std::size_t i = 0; i < salt.size(); ++i)
    salt[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(hex_encode(auth::PasswordStore::stretch(
                "correct horse battery staple", salt, 1000)),
            "6a1762073dc01b9fd433a643494ee589f3f9c0fca72a2308148b349280f91cbf");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  // Property: hkdf output of length n is a prefix of length n+k output.
  const Bytes prk = hkdf_extract(to_bytes("salt"), to_bytes("ikm"));
  const Bytes long_okm = hkdf_expand(prk, to_bytes("info"), 96);
  for (std::size_t n : {1ULL, 31ULL, 32ULL, 33ULL, 64ULL, 95ULL}) {
    const Bytes okm = hkdf_expand(prk, to_bytes("info"), n);
    ASSERT_EQ(okm.size(), n);
    EXPECT_TRUE(std::equal(okm.begin(), okm.end(), long_okm.begin()));
  }
}

// -------------------------------------------------------------- ChaCha20

TEST(ChaCha, Rfc8439Encryption) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const Bytes ciphertext =
      chacha20_xor(key, nonce, 1, to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha, RoundTrip) {
  Rng rng(5);
  const Bytes key = rng.next_bytes(kChaChaKeySize);
  const Bytes nonce = rng.next_bytes(kChaChaNonceSize);
  for (std::size_t len : {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1000ULL}) {
    const Bytes plain = rng.next_bytes(len);
    const Bytes cipher = chacha20_xor(key, nonce, 0, plain);
    EXPECT_EQ(chacha20_xor(key, nonce, 0, cipher), plain);
    if (len > 8) {
      EXPECT_NE(cipher, plain);
    }
  }
}

TEST(ChaCha, Rfc8439KeystreamBlock) {
  // RFC 8439 §2.3.2: block function with the standard test key/nonce at
  // counter 1. XOR against zeros exposes the raw keystream, which pins the
  // block fast path (scalar and AVX2) to the reference serialization.
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000090000004a00000000");
  const Bytes keystream = chacha20_xor(key, nonce, 1, Bytes(64, 0));
  EXPECT_EQ(hex_encode(keystream),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha, BlockBoundaryChunksMatchOneShot) {
  // Chunk sizes straddling the 64-byte block boundary exercise every path:
  // buffered-tail drain, bulk full blocks, and partial-block keystream
  // carry-over between calls.
  Rng rng(7);
  const Bytes key = rng.next_bytes(kChaChaKeySize);
  const Bytes nonce = rng.next_bytes(kChaChaNonceSize);
  const std::size_t chunks[] = {63, 64, 65, 128 + 1};
  std::size_t total = 0;
  for (const std::size_t c : chunks) total += c;
  const Bytes data = rng.next_bytes(total);

  const Bytes oneshot = chacha20_xor(key, nonce, 0, data);

  // In-place streaming.
  Bytes in_place = data;
  ChaCha20 stream1(key, nonce, 0);
  std::size_t off = 0;
  for (const std::size_t c : chunks) {
    stream1.process(in_place.data() + off, c);
    off += c;
  }
  EXPECT_EQ(in_place, oneshot);

  // Source-to-destination streaming.
  Bytes out(total);
  ChaCha20 stream2(key, nonce, 0);
  off = 0;
  for (const std::size_t c : chunks) {
    stream2.process(data.data() + off, out.data() + off, c);
    off += c;
  }
  EXPECT_EQ(out, oneshot);
}

TEST(ChaCha, StreamingMatchesOneShot) {
  Rng rng(6);
  const Bytes key = rng.next_bytes(kChaChaKeySize);
  const Bytes nonce = rng.next_bytes(kChaChaNonceSize);
  const Bytes data = rng.next_bytes(300);

  const Bytes oneshot = chacha20_xor(key, nonce, 0, data);

  ChaCha20 cipher(key, nonce, 0);
  Bytes streamed = data;
  cipher.process(streamed.data(), 100);
  cipher.process(streamed.data() + 100, 1);
  cipher.process(streamed.data() + 101, 199);
  EXPECT_EQ(streamed, oneshot);
}

TEST(ChaCha, DifferentNoncesDiffer) {
  Rng rng(8);
  const Bytes key = rng.next_bytes(kChaChaKeySize);
  const Bytes data(128, 0);
  const Bytes n1 = rng.next_bytes(kChaChaNonceSize);
  const Bytes n2 = rng.next_bytes(kChaChaNonceSize);
  EXPECT_NE(chacha20_xor(key, n1, 0, data), chacha20_xor(key, n2, 0, data));
}

// ---------------------------------------------------------------- BigInt

TEST(BigInt, BasicArithmetic) {
  const BigInt a = BigInt::from_u64(1000000007);
  const BigInt b = BigInt::from_u64(998244353);
  EXPECT_EQ((a + b).to_u64(), 1000000007ULL + 998244353ULL);
  EXPECT_EQ((a - b).to_u64(), 1000000007ULL - 998244353ULL);
  EXPECT_EQ((a * b).to_hex(),
            BigInt::from_u64(1000000007)
                .operator*(BigInt::from_u64(998244353))
                .to_hex());
}

TEST(BigInt, ZeroProperties) {
  const BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_EQ((zero + zero).to_u64(), 0u);
  EXPECT_TRUE((zero * BigInt::from_u64(123)).is_zero());
}

TEST(BigInt, BytesRoundTrip) {
  Rng rng(13);
  for (std::size_t len : {1ULL, 8ULL, 9ULL, 16ULL, 33ULL, 128ULL}) {
    Bytes raw = rng.next_bytes(len);
    raw[0] |= 1;  // avoid leading zero ambiguity
    const BigInt v = BigInt::from_bytes_be(raw);
    EXPECT_EQ(v.to_bytes_be(len), raw);
  }
}

TEST(BigInt, HexRoundTrip) {
  const auto v = BigInt::from_hex("deadbeefcafebabe0123456789abcdef");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->to_hex(), "deadbeefcafebabe0123456789abcdef");
  EXPECT_FALSE(BigInt::from_hex("xyz").has_value());
  EXPECT_FALSE(BigInt::from_hex("").has_value());
}

TEST(BigInt, ShiftInverse) {
  Rng rng(17);
  const BigInt v = BigInt::random_with_bits(200, rng);
  for (std::size_t s : {1ULL, 7ULL, 64ULL, 65ULL, 129ULL}) {
    EXPECT_EQ(((v << s) >> s), v) << "shift=" << s;
  }
}

TEST(BigInt, DivModIdentityRandom) {
  // Property: a == q*b + r with r < b, across operand widths.
  Rng rng(19);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t abits = 64 + rng.next_below(512);
    const std::size_t bbits = 1 + rng.next_below(abits);
    const BigInt a = BigInt::random_with_bits(abits, rng);
    const BigInt b = BigInt::random_with_bits(bbits, rng);
    const auto dm = BigInt::divmod(a, b);
    EXPECT_TRUE(dm.remainder < b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  }
}

TEST(BigInt, DivModKnownCase) {
  const BigInt a = *BigInt::from_hex("10000000000000000");  // 2^64
  const BigInt b = BigInt::from_u64(10);
  const auto dm = BigInt::divmod(a, b);
  EXPECT_EQ(dm.quotient.to_hex(), "1999999999999999");
  EXPECT_EQ(dm.remainder.to_u64(), 6u);
}

TEST(BigInt, ModU64MatchesMod) {
  Rng rng(23);
  const BigInt a = BigInt::random_with_bits(300, rng);
  for (std::uint64_t d : {2ULL, 3ULL, 97ULL, 65537ULL, 0xffffffffULL}) {
    EXPECT_EQ(a.mod_u64(d), a.mod(BigInt::from_u64(d)).to_u64());
  }
}

TEST(BigInt, ModExpSmallKnown) {
  // 5^117 mod 19 = 1 (since 5^9 ≡ 1 mod 19 would be false; verify directly)
  std::uint64_t expect = 1;
  for (int i = 0; i < 117; ++i) expect = expect * 5 % 19;
  EXPECT_EQ(BigInt::mod_exp(BigInt::from_u64(5), BigInt::from_u64(117),
                            BigInt::from_u64(19))
                .to_u64(),
            expect);
}

TEST(BigInt, ModExpFermat) {
  // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p, gcd(a,p)=1.
  const BigInt p = BigInt::from_u64(1000000007);
  Rng rng(29);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::from_u64(2 + rng.next_below(1000000)) ;
    EXPECT_TRUE(BigInt::mod_exp(a, p - BigInt::from_u64(1), p).is_one());
  }
}

TEST(BigInt, ModInverse) {
  Rng rng(31);
  const BigInt m = BigInt::from_u64(1000000007);  // prime modulus
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt::from_u64(1 + rng.next_below(1000000006));
    const auto inv = BigInt::mod_inverse(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_TRUE((a * *inv).mod(m).is_one());
  }
  // Non-coprime case.
  EXPECT_FALSE(
      BigInt::mod_inverse(BigInt::from_u64(6), BigInt::from_u64(9)).has_value());
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt::from_u64(48), BigInt::from_u64(36)).to_u64(),
            12u);
  EXPECT_EQ(BigInt::gcd(BigInt::from_u64(17), BigInt::from_u64(5)).to_u64(),
            1u);
}

TEST(BigInt, RandomBelowInRange) {
  Rng rng(37);
  const BigInt bound = BigInt::from_u64(1000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(BigInt::random_below(bound, rng) < bound);
  }
}

TEST(Prime, KnownPrimesAndComposites) {
  Rng rng(41);
  for (std::uint64_t p : {2ULL, 3ULL, 257ULL, 65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(is_probable_prime(BigInt::from_u64(p), 20, rng)) << p;
  }
  // 1000036000099 = 1000003 * 1000033 survives trial division, so it
  // exercises the Miller–Rabin rounds.
  for (std::uint64_t c : {1ULL, 4ULL, 255ULL, 65535ULL, 1000036000099ULL}) {
    EXPECT_FALSE(is_probable_prime(BigInt::from_u64(c), 20, rng)) << c;
  }
  // Carmichael number 561 = 3*11*17 must be rejected.
  EXPECT_FALSE(is_probable_prime(BigInt::from_u64(561), 20, rng));
}

TEST(Prime, RandomPrimeHasExactBits) {
  Rng rng(43);
  const BigInt p = random_prime(96, rng);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
}

// ------------------------------------------------------------------- RSA

class RsaFixture : public ::testing::Test {
 protected:
  // Key generation is the slow part; share one pair across tests.
  static void SetUpTestSuite() {
    Rng rng(4242);
    keys_ = new RsaKeyPair(rsa_generate(768, rng));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static RsaKeyPair* keys_;
};

RsaKeyPair* RsaFixture::keys_ = nullptr;

TEST_F(RsaFixture, SignVerify) {
  const Bytes msg = to_bytes("authenticate host proxy.siteA.grid");
  const Bytes sig = rsa_sign(keys_->priv, msg);
  EXPECT_TRUE(rsa_verify(keys_->pub, msg, sig));
}

TEST_F(RsaFixture, VerifyRejectsTamperedMessage) {
  const Bytes sig = rsa_sign(keys_->priv, to_bytes("message A"));
  EXPECT_FALSE(rsa_verify(keys_->pub, to_bytes("message B"), sig));
}

TEST_F(RsaFixture, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign(keys_->priv, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(keys_->pub, msg, sig));
}

TEST_F(RsaFixture, VerifyRejectsWrongLength) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign(keys_->priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(keys_->pub, msg, sig));
}

TEST_F(RsaFixture, EncryptDecryptRoundTrip) {
  Rng rng(47);
  for (std::size_t len : {0ULL, 1ULL, 16ULL, 32ULL, 48ULL}) {
    const Bytes plain = rng.next_bytes(len);
    const auto cipher = rsa_encrypt(keys_->pub, plain, rng);
    ASSERT_TRUE(cipher.is_ok()) << len;
    const auto back = rsa_decrypt(keys_->priv, cipher.value());
    ASSERT_TRUE(back.is_ok()) << len;
    EXPECT_EQ(back.value(), plain);
  }
}

TEST_F(RsaFixture, EncryptRejectsOversizedPlaintext) {
  Rng rng(53);
  const Bytes plain = rng.next_bytes(keys_->pub.modulus_bytes() - 10);
  EXPECT_FALSE(rsa_encrypt(keys_->pub, plain, rng).is_ok());
}

TEST_F(RsaFixture, DecryptRejectsGarbage) {
  Rng rng(59);
  const Bytes garbage = rng.next_bytes(keys_->pub.modulus_bytes());
  // Either range failure or padding failure; must not "succeed".
  EXPECT_FALSE(rsa_decrypt(keys_->priv, garbage).is_ok());
}

TEST_F(RsaFixture, EncryptionIsRandomized) {
  Rng rng(61);
  const Bytes plain = to_bytes("premaster");
  const auto c1 = rsa_encrypt(keys_->pub, plain, rng);
  const auto c2 = rsa_encrypt(keys_->pub, plain, rng);
  ASSERT_TRUE(c1.is_ok());
  ASSERT_TRUE(c2.is_ok());
  EXPECT_NE(c1.value(), c2.value());
}

TEST_F(RsaFixture, PublicKeySerializationRoundTrip) {
  const Bytes wire = keys_->pub.serialize();
  const auto back = RsaPublicKey::deserialize(wire);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), keys_->pub);
}

TEST(RsaPublicKey, DeserializeRejectsGarbage) {
  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{0xff, 0xff}).is_ok());
  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{}).is_ok());
}

// ---------------------------------------------------------- Certificates

class CertFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(777);
    ca_ = new CertificateAuthority("grid-root-ca", 768, *rng_);
    host_keys_ = new RsaKeyPair(rsa_generate(768, *rng_));
  }
  static void TearDownTestSuite() {
    delete ca_;
    delete host_keys_;
    delete rng_;
    ca_ = nullptr;
    host_keys_ = nullptr;
    rng_ = nullptr;
  }
  static Rng* rng_;
  static CertificateAuthority* ca_;
  static RsaKeyPair* host_keys_;
};

Rng* CertFixture::rng_ = nullptr;
CertificateAuthority* CertFixture::ca_ = nullptr;
RsaKeyPair* CertFixture::host_keys_ = nullptr;

TEST_F(CertFixture, IssueAndVerify) {
  const Certificate cert =
      ca_->issue("proxy.siteA.grid", host_keys_->pub, 0, 1000000);
  EXPECT_TRUE(ca_->verify(cert, 500000).is_ok());
  EXPECT_EQ(cert.subject, "proxy.siteA.grid");
  EXPECT_EQ(cert.issuer, "grid-root-ca");
}

TEST_F(CertFixture, RejectsOutsideValidityWindow) {
  const Certificate cert =
      ca_->issue("proxy.siteA.grid", host_keys_->pub, 100, 200);
  EXPECT_FALSE(ca_->verify(cert, 50).is_ok());
  EXPECT_FALSE(ca_->verify(cert, 201).is_ok());
  EXPECT_TRUE(ca_->verify(cert, 150).is_ok());
}

TEST_F(CertFixture, RejectsTamperedSubject) {
  Certificate cert = ca_->issue("proxy.siteA.grid", host_keys_->pub, 0, 1000);
  cert.subject = "proxy.evil.grid";
  EXPECT_FALSE(ca_->verify(cert, 500).is_ok());
}

TEST_F(CertFixture, RejectsWrongIssuer) {
  Rng rng(88);
  CertificateAuthority other_ca("rogue-ca", 768, rng);
  const Certificate cert =
      other_ca.issue("proxy.siteA.grid", host_keys_->pub, 0, 1000);
  EXPECT_FALSE(ca_->verify(cert, 500).is_ok());
}

TEST_F(CertFixture, RejectsKeySubstitution) {
  Rng rng(89);
  Certificate cert = ca_->issue("proxy.siteA.grid", host_keys_->pub, 0, 1000);
  const RsaKeyPair other = rsa_generate(768, rng);
  cert.public_key = other.pub;
  EXPECT_FALSE(ca_->verify(cert, 500).is_ok());
}

TEST_F(CertFixture, SerializationRoundTrip) {
  const Certificate cert =
      ca_->issue("node7.siteB.grid", host_keys_->pub, 10, 99);
  const auto back = Certificate::deserialize(cert.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().subject, cert.subject);
  EXPECT_EQ(back.value().serial, cert.serial);
  EXPECT_EQ(back.value().signature, cert.signature);
  EXPECT_EQ(back.value().fingerprint(), cert.fingerprint());
  EXPECT_TRUE(ca_->verify(back.value(), 50).is_ok());
}

TEST_F(CertFixture, SerialsAreUnique) {
  const Certificate a = ca_->issue("a", host_keys_->pub, 0, 1);
  const Certificate b = ca_->issue("b", host_keys_->pub, 0, 1);
  EXPECT_NE(a.serial, b.serial);
}

TEST(Certificate, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Certificate::deserialize(Bytes{1, 2, 3}).is_ok());
  EXPECT_FALSE(Certificate::deserialize(Bytes{}).is_ok());
}

}  // namespace
}  // namespace pg::crypto
