// GSSL handshake, record protection and link tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "crypto/cert.hpp"
#include "net/framer.hpp"
#include "net/memory_channel.hpp"
#include "net/reactor.hpp"
#include "receive_path.hpp"
#include "tls/gssl.hpp"
#include "tls/link.hpp"
#include "tls/record.hpp"

// Global heap-allocation counter so record-path tests can assert the
// steady-state seal/open cycle stays off the heap. Tests build as one
// binary per module, so the override is contained to tls_test.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Kept out of line, new and delete alike: inlined, std::free would meet
// the pointer std::malloc returned through operator new, which GCC's
// -Wmismatched-new-delete cannot tell are this file's matched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pg::tls {
namespace {

constexpr std::size_t kTestKeyBits = 768;

/// Shared PKI for all GSSL tests: one CA, two host identities.
class GsslTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(2024);
    ca_ = new crypto::CertificateAuthority("grid-ca", kTestKeyBits, *rng_);
    alice_ = new GsslIdentity(make_identity("proxy.siteA.grid"));
    bob_ = new GsslIdentity(make_identity("proxy.siteB.grid"));
  }
  static void TearDownTestSuite() {
    delete alice_;
    delete bob_;
    delete ca_;
    delete rng_;
    alice_ = bob_ = nullptr;
    ca_ = nullptr;
    rng_ = nullptr;
  }

  static GsslIdentity make_identity(const std::string& subject) {
    const crypto::RsaKeyPair keys = crypto::rsa_generate(kTestKeyBits, *rng_);
    return GsslIdentity{ca_->issue(subject, keys.pub, 0, 1'000'000'000),
                        keys.priv};
  }

  static GsslConfig config_for(const GsslIdentity& id,
                               const std::string& expected_peer = "") {
    return GsslConfig{id, ca_->name(), ca_->public_key(), expected_peer};
  }

  /// Runs both handshake halves on a memory channel pair.
  struct SessionPair {
    net::ChannelPair channels;
    GsslSessionPtr client;
    GsslSessionPtr server;
    Status client_status;
    Status server_status;
  };

  static SessionPair handshake(const GsslConfig& client_cfg,
                               const GsslConfig& server_cfg,
                               const Clock* external_clock = nullptr) {
    SessionPair out;
    out.channels = net::make_memory_channel_pair();
    ManualClock default_clock(1000);
    const Clock& clock =
        external_clock != nullptr ? *external_clock : default_clock;
    Rng client_rng(7), server_rng(8);

    auto server_future = std::async(std::launch::async, [&] {
      return gssl_server_handshake(*out.channels.b, server_cfg, clock,
                                   server_rng);
    });
    Result<GsslSessionPtr> client = gssl_client_handshake(
        *out.channels.a, client_cfg, clock, client_rng);
    Result<GsslSessionPtr> server = server_future.get();

    out.client_status = client.status();
    out.server_status = server.status();
    if (client.is_ok()) out.client = client.take();
    if (server.is_ok()) out.server = server.take();
    return out;
  }

  static Rng* rng_;
  static crypto::CertificateAuthority* ca_;
  static GsslIdentity* alice_;
  static GsslIdentity* bob_;
};

Rng* GsslTest::rng_ = nullptr;
crypto::CertificateAuthority* GsslTest::ca_ = nullptr;
GsslIdentity* GsslTest::alice_ = nullptr;
GsslIdentity* GsslTest::bob_ = nullptr;

TEST_F(GsslTest, HandshakeSucceeds) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok()) << pair.client_status.to_string();
  ASSERT_TRUE(pair.server_status.is_ok()) << pair.server_status.to_string();
  EXPECT_EQ(pair.client->peer_certificate().subject, "proxy.siteB.grid");
  EXPECT_EQ(pair.server->peer_certificate().subject, "proxy.siteA.grid");
}

TEST_F(GsslTest, DataFlowsBothWays) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());
  ASSERT_TRUE(pair.server_status.is_ok());

  ASSERT_TRUE(pair.client->send(to_bytes("from client")).is_ok());
  ASSERT_TRUE(pair.server->send(to_bytes("from server")).is_ok());

  Result<Bytes> at_server = pair.server->recv();
  Result<Bytes> at_client = pair.client->recv();
  ASSERT_TRUE(at_server.is_ok());
  ASSERT_TRUE(at_client.is_ok());
  EXPECT_EQ(to_string(at_server.value()), "from client");
  EXPECT_EQ(to_string(at_client.value()), "from server");
}

TEST_F(GsslTest, ManyMessagesKeepSequence) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());
  for (int i = 0; i < 100; ++i) {
    const std::string msg = "msg-" + std::to_string(i);
    ASSERT_TRUE(pair.client->send(to_bytes(msg)).is_ok());
    Result<Bytes> got = pair.server->recv();
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(to_string(got.value()), msg);
  }
}

TEST_F(GsslTest, CiphertextDiffersFromPlaintext) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());
  const std::uint64_t sent_before =
      pair.channels.a->stats().bytes_sent.load();
  const Bytes secret = to_bytes("TOP-SECRET-GRID-PAYLOAD");
  ASSERT_TRUE(pair.client->send(secret).is_ok());
  ASSERT_TRUE(pair.server->recv().is_ok());
  // More bytes than the plaintext must have crossed (MAC + header).
  const std::uint64_t wire_bytes =
      pair.channels.a->stats().bytes_sent.load() - sent_before;
  EXPECT_GT(wire_bytes, secret.size() + 32);
}

TEST_F(GsslTest, ExpectedPeerEnforced) {
  SessionPair pair = handshake(config_for(*alice_, "proxy.siteB.grid"),
                               config_for(*bob_, "proxy.siteA.grid"));
  EXPECT_TRUE(pair.client_status.is_ok());
  EXPECT_TRUE(pair.server_status.is_ok());

  SessionPair bad = handshake(config_for(*alice_, "proxy.siteC.grid"),
                              config_for(*bob_));
  EXPECT_EQ(bad.client_status.code(), ErrorCode::kCryptoError);
}

TEST_F(GsslTest, UntrustedClientCertificateRejected) {
  // An identity signed by a different CA must be refused by the server.
  Rng rogue_rng(99);
  crypto::CertificateAuthority rogue_ca("rogue-ca", kTestKeyBits, rogue_rng);
  const crypto::RsaKeyPair keys = crypto::rsa_generate(kTestKeyBits, rogue_rng);
  const GsslIdentity intruder{
      rogue_ca.issue("proxy.siteA.grid", keys.pub, 0, 1'000'000'000),
      keys.priv};

  SessionPair pair = handshake(config_for(intruder), config_for(*bob_));
  EXPECT_EQ(pair.server_status.code(), ErrorCode::kCryptoError);
  EXPECT_FALSE(pair.client_status.is_ok());
}

TEST_F(GsslTest, ExpiredCertificateRejected) {
  const crypto::RsaKeyPair keys = crypto::rsa_generate(kTestKeyBits, *rng_);
  // Validity window entirely in the past relative to the clock (t=1000).
  const GsslIdentity expired{
      ca_->issue("proxy.siteX.grid", keys.pub, 0, 10), keys.priv};
  SessionPair pair = handshake(config_for(expired), config_for(*bob_));
  EXPECT_EQ(pair.server_status.code(), ErrorCode::kCryptoError);
}

TEST_F(GsslTest, StolenCertificateWithoutKeyRejected) {
  // An attacker presenting alice's certificate but signing with its own key
  // must fail CertVerify.
  Rng thief_rng(123);
  const crypto::RsaKeyPair thief_keys =
      crypto::rsa_generate(kTestKeyBits, thief_rng);
  const GsslIdentity thief{alice_->certificate, thief_keys.priv};
  SessionPair pair = handshake(config_for(thief), config_for(*bob_));
  EXPECT_EQ(pair.server_status.code(), ErrorCode::kCryptoError);
}

TEST_F(GsslTest, TamperedRecordDetected) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());

  // Send through a hostile middlebox: write a data record manually with a
  // flipped ciphertext bit by intercepting at the channel level. Simplest
  // equivalent: send normally, but flip a bit in transit by writing our own
  // bogus record afterwards and checking the receiver rejects it.
  ASSERT_TRUE(pair.client->send(to_bytes("good")).is_ok());
  ASSERT_TRUE(pair.server->recv().is_ok());

  // Forge: type=data, len=40, garbage payload (wrong MAC for seq 1).
  Bytes forged = {0x02, 0x00, 0x00, 0x00, 0x28};
  forged.resize(5 + 40, 0xaa);
  ASSERT_TRUE(pair.channels.a->write(forged).is_ok());
  Result<Bytes> got = pair.server->recv();
  EXPECT_EQ(got.status().code(), ErrorCode::kCryptoError);
}

TEST_F(GsslTest, StatsAccumulate) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());
  EXPECT_GT(pair.client->stats().handshake_bytes, 500u);

  ASSERT_TRUE(pair.client->send(Bytes(1000, 1)).is_ok());
  ASSERT_TRUE(pair.server->recv().is_ok());
  const GsslStats stats = pair.client->stats();
  EXPECT_EQ(stats.records_sent, 1u);
  EXPECT_EQ(stats.plaintext_bytes_sent, 1000u);
  EXPECT_GT(stats.ciphertext_bytes_sent, 1000u);
}

TEST_F(GsslTest, PlainLinkRoundTrip) {
  net::ChannelPair channels = net::make_memory_channel_pair();
  MessageLinkPtr a = make_plain_link(*channels.a);
  MessageLinkPtr b = make_plain_link(*channels.b);

  ASSERT_TRUE(a->send(to_bytes("local traffic")).is_ok());
  Result<Bytes> got = b->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "local traffic");
  EXPECT_FALSE(a->is_encrypted());
  EXPECT_EQ(a->stats().crypto_bytes, 0u);
  EXPECT_EQ(a->stats().handshake_bytes, 0u);
}

TEST_F(GsslTest, SecureLinkRoundTrip) {
  SessionPair pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(pair.client_status.is_ok());
  MessageLinkPtr a = make_secure_link(std::move(pair.client));
  MessageLinkPtr b = make_secure_link(std::move(pair.server));

  ASSERT_TRUE(a->send(to_bytes("tunneled")).is_ok());
  Result<Bytes> got = b->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value()), "tunneled");
  EXPECT_TRUE(a->is_encrypted());
  EXPECT_GT(a->stats().crypto_bytes, 0u);
  EXPECT_GT(a->stats().handshake_bytes, 0u);
}

TEST_F(GsslTest, PlainLinkCheaperOnWire) {
  // The quantitative heart of the paper's edge-tunneling argument: a
  // plaintext hop moves fewer wire bytes than an encrypted hop for the
  // same payload.
  net::ChannelPair plain_channels = net::make_memory_channel_pair();
  MessageLinkPtr plain = make_plain_link(*plain_channels.a);
  MessageLinkPtr plain_rx = make_plain_link(*plain_channels.b);

  SessionPair secure_pair = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(secure_pair.client_status.is_ok());
  MessageLinkPtr secure = make_secure_link(std::move(secure_pair.client));
  MessageLinkPtr secure_rx = make_secure_link(std::move(secure_pair.server));

  const Bytes payload(4096, 0x42);
  ASSERT_TRUE(plain->send(payload).is_ok());
  ASSERT_TRUE(plain_rx->recv().is_ok());
  ASSERT_TRUE(secure->send(payload).is_ok());
  ASSERT_TRUE(secure_rx->recv().is_ok());

  EXPECT_LT(plain->stats().wire_bytes_sent, secure->stats().wire_bytes_sent);
}

// ---------------------------------------------------------------------
// Reactor receive path: plain frames and GSSL records written as raw bytes
// to a memory pair and decoded by a Reactor in place.

class ReactorReceivePath : public GsslTest,
                           public ::testing::WithParamInterface<bool> {
 protected:
  static receive_path::Endpoint plain_endpoint() {
    struct Owner {
      net::ChannelPair channels = net::make_memory_channel_pair();
      MessageLinkPtr rx_link = make_plain_link(*channels.b);
    };
    auto owner = std::make_shared<Owner>();
    receive_path::Endpoint end;
    end.tx = owner->channels.a.get();
    end.rx = owner->channels.b.get();
    end.decoder = owner->rx_link->decoder();
    end.encode = [](const std::vector<std::string>& messages) {
      std::vector<Bytes> out;
      for (const std::string& m : messages)
        out.push_back(receive_path::plain_frame(m));
      return out;
    };
    end.oversized_header = {0xff, 0xff, 0xff, 0xff};
    end.owner = owner;
    return end;
  }

  /// The client session seals each message onto the handshake pair, whose
  /// far end nobody reads but `encode`; the server session's link decodes
  /// what the test writes to a second pair the reactor serves.
  static receive_path::Endpoint secure_endpoint() {
    struct Owner {
      SessionPair sessions;
      MessageLinkPtr rx_link;
      net::ChannelPair wire = net::make_memory_channel_pair();
    };
    auto owner = std::make_shared<Owner>();
    owner->sessions = handshake(config_for(*alice_), config_for(*bob_));
    EXPECT_TRUE(owner->sessions.client_status.is_ok());
    EXPECT_TRUE(owner->sessions.server_status.is_ok());
    owner->rx_link = make_secure_link(std::move(owner->sessions.server));
    receive_path::Endpoint end;
    end.tx = owner->wire.a.get();
    end.rx = owner->wire.b.get();
    end.decoder = owner->rx_link->decoder();
    Owner* raw = owner.get();
    end.encode = [raw](const std::vector<std::string>& messages) {
      std::vector<Bytes> out;
      for (const std::string& m : messages) {
        EXPECT_TRUE(raw->sessions.client->send(to_bytes(m)).is_ok());
        Bytes record(internal::kRecordHeaderSize + m.size() +
                     internal::kMacSize);
        EXPECT_TRUE(raw->sessions.channels.b
                        ->read_exact(record.data(), record.size())
                        .is_ok());
        out.push_back(std::move(record));
      }
      return out;
    };
    end.oversized_header = {static_cast<std::uint8_t>(internal::RecordType::kData),
                            0xff, 0xff, 0xff, 0xff};
    end.owner = owner;
    return end;
  }

  receive_path::EndpointFactory endpoint() const {
    return GetParam() ? secure_endpoint : plain_endpoint;
  }
};

TEST_P(ReactorReceivePath, FramesSplitAtEveryByteBoundary) {
  receive_path::frames_split_at_every_byte_boundary(endpoint());
}

TEST_P(ReactorReceivePath, SeveralFramesAndAPartialInOneWrite) {
  receive_path::several_frames_and_a_partial_in_one_write(endpoint());
}

TEST_P(ReactorReceivePath, FrameLargerThanTheReadChunk) {
  receive_path::frame_larger_than_the_read_chunk(endpoint());
}

TEST_P(ReactorReceivePath, OversizedLengthPrefixClosesWithError) {
  receive_path::oversized_length_prefix_closes_with_error(endpoint());
}

TEST_P(ReactorReceivePath, CallbackClosesOwnConnectionMidBatch) {
  receive_path::callback_closes_own_connection_mid_batch(endpoint());
}

INSTANTIATE_TEST_SUITE_P(Links, ReactorReceivePath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Secure" : "Plain";
                         });

TEST_F(ReactorReceivePath, CorruptedRecordMacClosesWithError) {
  receive_path::Rig rig(secure_endpoint);
  rig.attach();
  std::vector<Bytes> wire = rig.encode({"good", "tampered"});
  wire[1].back() ^= 0x01;
  rig.write(receive_path::concat(wire));
  ASSERT_TRUE(rig.wait_closed());
  receive_path::expect_frames(rig.frames(), {"good"});
  EXPECT_EQ(rig.reason().code(), ErrorCode::kCryptoError)
      << rig.reason().to_string();
}

TEST_F(ReactorReceivePath, SteadyStateReceiveDoesNotAllocate) {
  // 64 B frames through a memory pair, the Reactor, a plain decoder and a
  // secure decoder, one at a time so every read holds one whole frame.
  // After warm-up nothing on the way allocates: not the pipe, the ready
  // list, the read, the decode, the record open nor the sender. And no
  // frame is copied: no read borrows a tail buffer, and every frame is a
  // view into the I/O thread's one read chunk, where each read starts
  // (a record's plaintext one byte further in, its header being one byte
  // longer than a plain frame's).
  struct Tally {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<const std::uint8_t*> at{nullptr};
    std::atomic<bool> moved{false};

    net::Reactor::Callbacks callbacks() {
      return {[this](BytesView frame) {
                const std::uint8_t* first = nullptr;
                if (!at.compare_exchange_strong(first, frame.data()) &&
                    first != frame.data())
                  moved.store(true);
                frames.fetch_add(1, std::memory_order_release);
              },
              {}};
    }
    void wait_for(std::uint64_t n) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (frames.load(std::memory_order_acquire) < n) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::yield();
      }
    }
  };

  net::Reactor reactor(net::ReactorOptions{1});
  net::ChannelPair plain = net::make_memory_channel_pair();
  MessageLinkPtr plain_rx = make_plain_link(*plain.b);
  SessionPair secure = handshake(config_for(*alice_), config_for(*bob_));
  ASSERT_TRUE(secure.client_status.is_ok());
  ASSERT_TRUE(secure.server_status.is_ok());
  MessageLinkPtr secure_rx = make_secure_link(std::move(secure.server));

  Tally plain_tally, secure_tally;
  auto plain_id = reactor.add_channel(*plain.b, *plain_rx->decoder(),
                                      plain_tally.callbacks());
  auto secure_id = reactor.add_channel(
      *secure.channels.b, *secure_rx->decoder(), secure_tally.callbacks());
  ASSERT_TRUE(plain_id.is_ok());
  ASSERT_TRUE(secure_id.is_ok());

  const Bytes payload(64, 0x5a);
  std::uint64_t sent = 0;
  auto exchange = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      ++sent;
      ASSERT_TRUE(net::write_frame(*plain.a, payload).is_ok());
      plain_tally.wait_for(sent);
      ASSERT_TRUE(secure.client->send(payload).is_ok());
      secure_tally.wait_for(sent);
    }
  };
  exchange(100);  // warm-up: buffers, instruments, first-use statics

  const std::uint64_t tails_before = reactor.stats().partial_tails;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  exchange(1000);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "heap allocations over 1000 frames";
  EXPECT_EQ(reactor.stats().partial_tails, tails_before);
  EXPECT_FALSE(plain_tally.moved.load()) << "a plain frame was copied";
  EXPECT_FALSE(secure_tally.moved.load()) << "a record was copied";
  EXPECT_EQ(secure_tally.at.load(), plain_tally.at.load() + 1)
      << "records are not opened where they were read";
  reactor.remove_channel(plain_id.value());
  reactor.remove_channel(secure_id.value());
}

// ---------------------------------------------------------------------
// Session resumption.

class GsslResumptionTest : public GsslTest {
 protected:
  GsslResumptionTest()
      : keeper_(to_bytes("realm-ticket-key"), 60 * kMicrosPerSecond) {}

  GsslConfig client_config() {
    GsslConfig cfg = config_for(*alice_, "proxy.siteB.grid");
    cfg.resumption_store = &store_;
    return cfg;
  }

  GsslConfig server_config() {
    GsslConfig cfg = config_for(*bob_);
    cfg.resumption = &keeper_;
    return cfg;
  }

  ResumptionKeeper keeper_;
  ResumptionStore store_;
};

TEST_F(GsslResumptionTest, SecondConnectionResumes) {
  SessionPair first = handshake(client_config(), server_config());
  ASSERT_TRUE(first.client_status.is_ok()) << first.client_status.to_string();
  EXPECT_FALSE(first.client->stats().resumed);
  // The full handshake seeded the client cache via NewTicket.
  ASSERT_EQ(store_.misses(), 1u);

  SessionPair second = handshake(client_config(), server_config());
  ASSERT_TRUE(second.client_status.is_ok())
      << second.client_status.to_string();
  ASSERT_TRUE(second.server_status.is_ok());
  EXPECT_TRUE(second.client->stats().resumed);
  EXPECT_TRUE(second.server->stats().resumed);
  EXPECT_EQ(store_.hits(), 1u);

  // Certificates still authenticated on the abbreviated path.
  EXPECT_EQ(second.client->peer_certificate().subject, "proxy.siteB.grid");
  EXPECT_EQ(second.server->peer_certificate().subject, "proxy.siteA.grid");

  // And the session carries traffic both ways.
  ASSERT_TRUE(second.client->send(to_bytes("resumed up")).is_ok());
  ASSERT_TRUE(second.server->send(to_bytes("resumed down")).is_ok());
  EXPECT_EQ(to_string(second.server->recv().value()), "resumed up");
  EXPECT_EQ(to_string(second.client->recv().value()), "resumed down");
}

TEST_F(GsslResumptionTest, RotatedKeyFallsBackToFullHandshake) {
  SessionPair first = handshake(client_config(), server_config());
  ASSERT_TRUE(first.client_status.is_ok());

  keeper_.rotate_key(to_bytes("fresh-realm-key"));

  // The stale ticket is rejected, but the connection still comes up —
  // via a full handshake, not an error.
  SessionPair second = handshake(client_config(), server_config());
  ASSERT_TRUE(second.client_status.is_ok())
      << second.client_status.to_string();
  ASSERT_TRUE(second.server_status.is_ok());
  EXPECT_FALSE(second.client->stats().resumed);
  EXPECT_FALSE(second.server->stats().resumed);

  // The fallback handshake re-seeded the cache under the new key.
  SessionPair third = handshake(client_config(), server_config());
  ASSERT_TRUE(third.client_status.is_ok());
  EXPECT_TRUE(third.client->stats().resumed);
}

TEST_F(GsslResumptionTest, ExpiredTicketFallsBackToFullHandshake) {
  ManualClock clock(1000);
  SessionPair first = handshake(client_config(), server_config(), &clock);
  ASSERT_TRUE(first.client_status.is_ok());

  clock.advance(keeper_.lifetime() + kMicrosPerSecond);
  SessionPair second = handshake(client_config(), server_config(), &clock);
  ASSERT_TRUE(second.client_status.is_ok())
      << second.client_status.to_string();
  ASSERT_TRUE(second.server_status.is_ok());
  EXPECT_FALSE(second.client->stats().resumed);
  EXPECT_FALSE(second.server->stats().resumed);
}

TEST_F(GsslResumptionTest, TamperedTicketNeverYieldsResumedSession) {
  SessionPair first = handshake(client_config(), server_config());
  ASSERT_TRUE(first.client_status.is_ok());

  // Flip one ciphertext bit in the cached ticket.
  auto entry = store_.lookup("proxy.siteB.grid");
  ASSERT_TRUE(entry.has_value());
  entry->ticket[entry->ticket.size() / 2] ^= 0x01;
  store_.put("proxy.siteB.grid", *entry);

  SessionPair second = handshake(client_config(), server_config());
  ASSERT_TRUE(second.client_status.is_ok())
      << second.client_status.to_string();
  ASSERT_TRUE(second.server_status.is_ok());
  EXPECT_FALSE(second.client->stats().resumed);
  EXPECT_FALSE(second.server->stats().resumed);
}

TEST_F(GsslResumptionTest, WrongSubjectTicketRejected) {
  // A ticket sealed for a different peer subject must not resume, even
  // though its MAC is valid.
  const Bytes secret(32, 0x5a);
  Rng rng(42);
  const Bytes foreign =
      keeper_.seal("proxy.siteC.grid", secret, 1000, rng);
  store_.put("proxy.siteB.grid", {foreign, secret});

  SessionPair pair = handshake(client_config(), server_config());
  ASSERT_TRUE(pair.client_status.is_ok()) << pair.client_status.to_string();
  EXPECT_FALSE(pair.client->stats().resumed);
}

TEST_F(GsslResumptionTest, ResumedSessionsUseFreshKeysPerConnection) {
  SessionPair first = handshake(client_config(), server_config());
  ASSERT_TRUE(first.client_status.is_ok());

  // Two further connections, both resumed, both sending the identical
  // plaintext as their first record: the ciphertext on the wire must
  // differ (fresh nonces -> fresh master -> fresh keys/IVs).
  const Bytes plaintext = to_bytes("identical first record");
  Bytes wire[2];
  for (int i = 0; i < 2; ++i) {
    SessionPair pair = handshake(client_config(), server_config());
    ASSERT_TRUE(pair.client_status.is_ok());
    ASSERT_TRUE(pair.client->stats().resumed);
    ASSERT_TRUE(pair.client->send(plaintext).is_ok());
    Result<internal::Record> record = internal::read_record(*pair.channels.b);
    ASSERT_TRUE(record.is_ok());
    wire[i] = record.value().payload;
  }
  ASSERT_EQ(wire[0].size(), wire[1].size());
  EXPECT_NE(wire[0], wire[1]);
}

TEST_F(GsslResumptionTest, ResumptionDisabledOnEitherSideStillConnects) {
  SessionPair first = handshake(client_config(), server_config());
  ASSERT_TRUE(first.client_status.is_ok());

  // Server without a keeper ignores the offered ticket.
  SessionPair no_keeper = handshake(client_config(), config_for(*bob_));
  ASSERT_TRUE(no_keeper.client_status.is_ok());
  EXPECT_FALSE(no_keeper.client->stats().resumed);

  // Client without a store never offers one.
  SessionPair no_store =
      handshake(config_for(*alice_, "proxy.siteB.grid"), server_config());
  ASSERT_TRUE(no_store.client_status.is_ok());
  EXPECT_FALSE(no_store.client->stats().resumed);
}

TEST(ResumptionKeeper, SealOpenRoundTripAndFailures) {
  Rng rng(11);
  ResumptionKeeper keeper(to_bytes("key"), 1000);
  const Bytes secret = rng.next_bytes(32);
  const Bytes sealed = keeper.seal("proxy.siteA.grid", secret, 500, rng);

  Result<ResumptionTicket> opened = keeper.open(sealed, 600);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value().peer_subject, "proxy.siteA.grid");
  EXPECT_EQ(opened.value().secret, secret);
  EXPECT_EQ(opened.value().issued_at, 500);
  EXPECT_EQ(opened.value().expires_at, 1500);

  // Expired / not-yet-valid / tampered / rotated all fail closed.
  EXPECT_FALSE(keeper.open(sealed, 2000).is_ok());
  EXPECT_FALSE(keeper.open(sealed, 10).is_ok());
  Bytes tampered = sealed;
  tampered[tampered.size() / 2] ^= 0x80;
  EXPECT_FALSE(keeper.open(tampered, 600).is_ok());
  keeper.rotate_key(to_bytes("new-key"));
  EXPECT_FALSE(keeper.open(sealed, 600).is_ok());
}

// Record cipher unit tests (below the session layer).

TEST(RecordCipher, SealOpenRoundTrip) {
  Rng rng(3);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);

  for (int i = 0; i < 10; ++i) {
    const Bytes msg = rng.next_bytes(100 + static_cast<std::size_t>(i));
    const Bytes sealed = tx.seal(internal::RecordType::kData, msg);
    Result<Bytes> opened = rx.open(internal::RecordType::kData, sealed);
    ASSERT_TRUE(opened.is_ok());
    EXPECT_EQ(opened.value(), msg);
  }
}

TEST(RecordCipher, ReplayDetected) {
  Rng rng(4);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);

  const Bytes sealed = tx.seal(internal::RecordType::kData, to_bytes("m"));
  ASSERT_TRUE(rx.open(internal::RecordType::kData, sealed).is_ok());
  // Replaying the same record fails: receiver sequence has advanced.
  EXPECT_EQ(rx.open(internal::RecordType::kData, sealed).status().code(),
            ErrorCode::kCryptoError);
}

TEST(RecordCipher, TypeConfusionDetected) {
  Rng rng(5);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);
  const Bytes sealed = tx.seal(internal::RecordType::kData, to_bytes("m"));
  EXPECT_EQ(
      rx.open(internal::RecordType::kHandshake, sealed).status().code(),
      ErrorCode::kCryptoError);
}

TEST(RecordCipher, TruncatedRecordRejected) {
  Rng rng(6);
  internal::RecordCipher rx(rng.next_bytes(32), rng.next_bytes(32),
                            rng.next_bytes(12));
  EXPECT_EQ(rx.open(internal::RecordType::kData, Bytes(10, 0)).status().code(),
            ErrorCode::kCryptoError);
}

TEST(RecordCipher, SealRecordMatchesLegacySeal) {
  // The zero-copy path must be bit-identical to the allocating one: same
  // ciphertext, same MAC, prefixed by the wire header.
  Rng rng(7);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher legacy(key, mac, iv);
  internal::RecordCipher fast(key, mac, iv);

  Bytes wire;
  for (int i = 0; i < 3; ++i) {
    const Bytes msg = rng.next_bytes(777);
    const Bytes sealed = legacy.seal(internal::RecordType::kData, msg);
    ASSERT_TRUE(
        fast.seal_record(internal::RecordType::kData, msg, wire).is_ok());
    ASSERT_EQ(wire.size(), internal::kRecordHeaderSize + sealed.size());
    EXPECT_EQ(wire[0], static_cast<std::uint8_t>(internal::RecordType::kData));
    const std::uint32_t len =
        (std::uint32_t{wire[1]} << 24) | (std::uint32_t{wire[2]} << 16) |
        (std::uint32_t{wire[3]} << 8) | std::uint32_t{wire[4]};
    EXPECT_EQ(len, sealed.size());
    EXPECT_TRUE(std::equal(sealed.begin(), sealed.end(),
                           wire.begin() + internal::kRecordHeaderSize));
  }
}

TEST(RecordCipher, WireRoundTripAcrossSizes) {
  // seal_record → memory channel → read_record_into → open_in_place, at the
  // empty, minimal, typical and maximal record sizes.
  Rng rng(8);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);
  net::ChannelPair pipe = net::make_memory_channel_pair();

  Bytes wire;
  internal::Record record;
  const std::size_t sizes[] = {0, 1, 64 * 1024,
                               internal::kMaxRecordSize - internal::kMacSize};
  for (const std::size_t n : sizes) {
    const Bytes msg = rng.next_bytes(n);
    ASSERT_TRUE(
        tx.seal_record(internal::RecordType::kData, msg, wire).is_ok());
    ASSERT_TRUE(pipe.a->write(wire).is_ok());
    ASSERT_TRUE(internal::read_record_into(*pipe.b, record).is_ok());
    ASSERT_EQ(record.type, internal::RecordType::kData);
    const Result<std::size_t> plain =
        rx.open_in_place(internal::RecordType::kData, record.payload);
    ASSERT_TRUE(plain.is_ok());
    ASSERT_EQ(plain.value(), n);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), record.payload.begin()));
  }
}

TEST(RecordCipher, SequenceSkewRejected) {
  Rng rng(9);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);

  Bytes wire;
  ASSERT_TRUE(
      tx.seal_record(internal::RecordType::kData, to_bytes("first"), wire)
          .is_ok());
  const Bytes first(wire.begin() + internal::kRecordHeaderSize, wire.end());
  ASSERT_TRUE(
      tx.seal_record(internal::RecordType::kData, to_bytes("second"), wire)
          .is_ok());
  const Bytes second(wire.begin() + internal::kRecordHeaderSize, wire.end());

  // Record #2 delivered first: the receiver MACs with seq 0, the record
  // was sealed at seq 1.
  Bytes skewed = second;
  EXPECT_EQ(
      rx.open_in_place(internal::RecordType::kData, skewed).status().code(),
      ErrorCode::kCryptoError);

  // A failed open leaves the sequence (and buffer) untouched, so the
  // in-order record still opens, and #2 opens after it.
  Bytes in_order = first;
  const Result<std::size_t> opened =
      rx.open_in_place(internal::RecordType::kData, in_order);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(Bytes(in_order.begin(), in_order.begin() + opened.value()),
            to_bytes("first"));
  skewed = second;
  EXPECT_TRUE(
      rx.open_in_place(internal::RecordType::kData, skewed).is_ok());
}

TEST(RecordCipher, SteadyStateSealOpenDoesNotAllocate) {
  Rng rng(10);
  const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
              iv = rng.next_bytes(12);
  internal::RecordCipher tx(key, mac, iv);
  internal::RecordCipher rx(key, mac, iv);
  const Bytes payload = rng.next_bytes(64 * 1024);

  Bytes wire;
  Bytes record;
  // Warm the reusable buffers: the first cycle grows them to working size.
  ASSERT_TRUE(
      tx.seal_record(internal::RecordType::kData, payload, wire).is_ok());
  record.assign(wire.begin() + internal::kRecordHeaderSize, wire.end());
  ASSERT_TRUE(rx.open_in_place(internal::RecordType::kData, record).is_ok());

  // Steady state: a full seal + open cycle performs no heap allocation.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const Status sealed =
      tx.seal_record(internal::RecordType::kData, payload, wire);
  record.assign(wire.begin() + internal::kRecordHeaderSize, wire.end());
  const Result<std::size_t> opened =
      rx.open_in_place(internal::RecordType::kData, record);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_TRUE(sealed.is_ok());
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), payload.size());
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace pg::tls
