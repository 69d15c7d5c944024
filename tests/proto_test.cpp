// Wire-protocol tests: envelope, typed messages, dispatcher, fuzz-decode.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "proto/dispatcher.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"

namespace pg::proto {
namespace {

TEST(Envelope, RoundTrip) {
  Envelope env;
  env.op = OpCode::kStatusQuery;
  env.request_id = 42;
  env.payload = to_bytes("payload");

  const auto back = Envelope::deserialize(env.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().op, OpCode::kStatusQuery);
  EXPECT_EQ(back.value().request_id, 42u);
  EXPECT_EQ(to_string(back.value().payload), "payload");
}

/// A serialized ping envelope whose version byte is `version`.
Bytes ping_with_version(std::uint8_t version) {
  Envelope env;
  env.op = OpCode::kPing;
  Bytes wire = env.serialize();
  wire[0] = version;
  return wire;
}

TEST(Envelope, RejectsBadVersion) {
  const auto back = Envelope::deserialize(ping_with_version(9));
  EXPECT_EQ(back.status().code(), ErrorCode::kProtocolError);
}

TEST(Envelope, AcceptsOnlyCurrentProtocolVersion) {
  ASSERT_EQ(kProtocolVersion, 6);
  EXPECT_TRUE(Envelope::deserialize(ping_with_version(6)).is_ok());
  // Neither the previous version nor the next one parses.
  for (const std::uint8_t version : {std::uint8_t{5}, std::uint8_t{7}}) {
    EXPECT_EQ(Envelope::deserialize(ping_with_version(version)).status().code(),
              ErrorCode::kProtocolError)
        << "version " << int{version};
  }
}

TEST(Envelope, RejectsTruncation) {
  Envelope env;
  env.op = OpCode::kPing;
  env.payload = to_bytes("data");
  Bytes wire = env.serialize();
  wire.pop_back();
  EXPECT_FALSE(Envelope::deserialize(wire).is_ok());
}

TEST(Envelope, OpcodeNamesCover) {
  for (OpCode op : {OpCode::kHello, OpCode::kHelloAck, OpCode::kPing,
                    OpCode::kPong, OpCode::kAuthRequest, OpCode::kAuthResponse,
                    OpCode::kStatusQuery, OpCode::kStatusReport,
                    OpCode::kJobSubmit, OpCode::kJobAccept,
                    OpCode::kJobComplete, OpCode::kMpiOpen,
                    OpCode::kMpiOpenAck, OpCode::kMpiBatch, OpCode::kMpiClose,
                    OpCode::kTunnelOpen, OpCode::kTunnelData,
                    OpCode::kTunnelClose, OpCode::kError}) {
    EXPECT_STRNE(opcode_name(op), "unknown");
  }
  EXPECT_STREQ(opcode_name(static_cast<OpCode>(1500)), "extension");
  EXPECT_STREQ(opcode_name(static_cast<OpCode>(500)), "unknown");
}

TEST(Messages, HelloRoundTrip) {
  Hello m{"siteA", "proxy.siteA.grid"};
  const auto back = Hello::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().site, "siteA");
  EXPECT_EQ(back.value().proxy_subject, "proxy.siteA.grid");
}

TEST(Messages, HelloAckRoundTrip) {
  HelloAck m{"siteB", true, ""};
  const auto back = HelloAck::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().accepted);
  EXPECT_EQ(back.value().site, "siteB");
}

TEST(Messages, AuthRequestRoundTrip) {
  AuthRequest m;
  m.user = "alice";
  m.method = AuthMethod::kSignature;
  m.credential = {1, 2, 3};
  m.timestamp = 12345;
  const auto back = AuthRequest::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().user, "alice");
  EXPECT_EQ(back.value().method, AuthMethod::kSignature);
  EXPECT_EQ(back.value().credential, (Bytes{1, 2, 3}));
  EXPECT_EQ(back.value().timestamp, 12345u);
}

TEST(Messages, AuthRequestRejectsUnknownMethod) {
  AuthRequest m;
  m.method = AuthMethod::kPassword;
  Bytes wire = m.serialize();
  // method byte sits right after the empty user string (1 varint byte).
  wire[1] = 7;
  EXPECT_FALSE(AuthRequest::parse(wire).is_ok());
}

TEST(Messages, NodeStatusRoundTrip) {
  NodeStatus n;
  n.name = "node3";
  n.cpu_capacity = 2.5;
  n.cpu_load = 0.75;
  n.ram_total_mb = 8192;
  n.ram_free_mb = 1024;
  n.disk_total_mb = 500000;
  n.disk_free_mb = 123456;
  n.running_processes = 7;
  n.timestamp = 99;
  const auto back = NodeStatus::parse(n.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), n);
}

TEST(Messages, StatusReportRoundTrip) {
  StatusReport report;
  report.site = "siteA";
  report.timestamp = 1000;
  for (int i = 0; i < 3; ++i) {
    NodeStatus n;
    n.name = "node" + std::to_string(i);
    n.cpu_load = 0.1 * i;
    report.nodes.push_back(n);
  }
  const auto back = StatusReport::parse(report.serialize());
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back.value().nodes.size(), 3u);
  EXPECT_EQ(back.value().nodes[2].name, "node2");
  EXPECT_EQ(back.value().site, "siteA");
}

TEST(Messages, ShardStatusRoundTrip) {
  ShardStatus m;
  m.shard = "siteA#2";
  m.lease_epoch = 7;
  m.report.site = "siteA#2";
  m.report.timestamp = 4242;
  for (int i = 0; i < 2; ++i) {
    NodeStatus n;
    n.name = "node" + std::to_string(i);
    n.cpu_load = 0.25 * (i + 1);
    n.ram_free_mb = 100 + i;
    m.report.nodes.push_back(n);
  }
  const auto back = ShardStatus::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().shard, "siteA#2");
  EXPECT_EQ(back.value().lease_epoch, 7u);
  EXPECT_EQ(back.value().report.site, "siteA#2");
  ASSERT_EQ(back.value().report.nodes.size(), 2u);
  EXPECT_EQ(back.value().report.nodes[1], m.report.nodes[1]);
}

TEST(Messages, ShardStatusRejectsTruncation) {
  ShardStatus m;
  m.shard = "siteA#1";
  m.report.site = "siteA#1";
  NodeStatus n;
  n.name = "node0";
  m.report.nodes.push_back(n);
  const Bytes wire = m.serialize();
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    BytesView truncated(wire.data(), wire.size() - cut);
    EXPECT_FALSE(ShardStatus::parse(truncated).is_ok()) << "cut=" << cut;
  }
}

TEST(Messages, StatusQueryEmptyMeansLocal) {
  StatusQuery q;
  const auto back = StatusQuery::parse(q.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().sites.empty());
  EXPECT_TRUE(back.value().include_nodes);
}

TEST(Messages, JobSubmitRoundTrip) {
  JobSubmit m;
  m.job_id = 9;
  m.user = "bob";
  m.executable = "simulate";
  m.args = {"--steps", "100"};
  m.ranks = 16;
  m.min_ram_mb = 512;
  const auto back = JobSubmit::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().args, m.args);
  EXPECT_EQ(back.value().ranks, 16u);
}

TEST(Messages, MpiOpenRoundTrip) {
  MpiOpen m;
  m.app_id = 77;
  m.executable = "cpi";
  m.world_size = 4;
  m.placements = {{0, "siteA", "n0"}, {1, "siteA", "n1"},
                  {2, "siteB", "n0"}, {3, "siteB", "n1"}};
  const auto back = MpiOpen::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().placements, m.placements);
  EXPECT_EQ(back.value().executable, "cpi");
}

TEST(Messages, MpiBatchRoundTrip) {
  MpiBatch batch;
  batch.origin = "siteA";
  batch.seq = 900;
  MpiFrame fan;
  fan.app_id = 5;
  fan.src_rank = 0;
  fan.tag = 42;
  fan.dst_ranks = {1, 2, 3};
  fan.payload = Bytes(512, 0xab);
  MpiFrame single;
  single.app_id = 5;
  single.src_rank = 3;
  single.tag = 7;
  single.dst_ranks = {0};
  single.payload = to_bytes("pt2pt");
  batch.frames = {fan, single};

  const auto back = MpiBatch::parse(batch.serialize());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().origin, "siteA");
  EXPECT_EQ(back.value().seq, 900u);
  ASSERT_EQ(back.value().frames.size(), 2u);
  EXPECT_EQ(back.value().frames[0], fan);
  EXPECT_EQ(back.value().frames[1], single);
  EXPECT_TRUE(back.value().acks.empty());
}

TEST(Messages, MpiBatchCarriesPiggybackedAcks) {
  MpiBatch batch;
  batch.origin = "siteA/n0";
  batch.seq = 3;
  batch.acks = {MpiBatchAck{"siteA", 41, {43, 47}, 250},
                MpiBatchAck{"siteB", 7, {}, 0}};
  const auto back = MpiBatch::parse(batch.serialize());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_TRUE(back.value().frames.empty());
  EXPECT_EQ(back.value().acks, batch.acks);
}

TEST(Messages, MpiBatchOpcodeNamed) {
  EXPECT_STREQ(opcode_name(OpCode::kMpiBatch), "mpi_batch");
  EXPECT_STREQ(opcode_name(OpCode::kMpiBatchAck), "mpi_batch_ack");
}

TEST(Messages, MpiBatchAckRoundTrip) {
  MpiBatchAck ack;
  ack.origin = "siteB";
  ack.cumulative = 17;
  ack.selective = {19, 23};
  ack.ack_delay_us = 987;

  const auto back = MpiBatchAck::parse(ack.serialize());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().origin, "siteB");
  EXPECT_EQ(back.value().cumulative, 17u);
  EXPECT_EQ(back.value().selective, (std::vector<std::uint64_t>{19, 23}));
  EXPECT_EQ(back.value().ack_delay_us, 987u);
}

TEST(Messages, TunnelMessagesRoundTrip) {
  TunnelOpen open{11, "siteB", "node2", "mpi"};
  const auto open_back = TunnelOpen::parse(open.serialize());
  ASSERT_TRUE(open_back.is_ok());
  EXPECT_EQ(open_back.value().target_node, "node2");

  TunnelData data{11, {9, 9, 9}};
  const auto data_back = TunnelData::parse(data.serialize());
  ASSERT_TRUE(data_back.is_ok());
  EXPECT_EQ(data_back.value().payload, (Bytes{9, 9, 9}));

  TunnelClose close{11};
  const auto close_back = TunnelClose::parse(close.serialize());
  ASSERT_TRUE(close_back.is_ok());
  EXPECT_EQ(close_back.value().tunnel_id, 11u);
}

TEST(Messages, ErrorMessageRoundTrip) {
  ErrorMessage m{static_cast<std::uint16_t>(ErrorCode::kPermissionDenied),
                 "denied"};
  const auto back = ErrorMessage::parse(m.serialize());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().message, "denied");
}

// Fuzz-style robustness: random bytes never crash any parser and either
// fail cleanly or produce a value.
TEST(Messages, FuzzDecodeSafety) {
  Rng rng(2718);
  for (int iter = 0; iter < 500; ++iter) {
    const Bytes junk = rng.next_bytes(rng.next_below(200));
    (void)Envelope::deserialize(junk);
    (void)Hello::parse(junk);
    (void)HelloAck::parse(junk);
    (void)AuthRequest::parse(junk);
    (void)AuthResponse::parse(junk);
    (void)NodeStatus::parse(junk);
    (void)StatusQuery::parse(junk);
    (void)StatusReport::parse(junk);
    (void)ShardStatus::parse(junk);
    (void)JobSubmit::parse(junk);
    (void)JobAccept::parse(junk);
    (void)JobComplete::parse(junk);
    (void)MpiOpen::parse(junk);
    (void)MpiOpenAck::parse(junk);
    (void)MpiBatch::parse(junk);
    (void)MpiBatchAck::parse(junk);
    (void)MpiClose::parse(junk);
    (void)MpiAbort::parse(junk);
    (void)TunnelOpen::parse(junk);
    (void)TunnelData::parse(junk);
    (void)TunnelClose::parse(junk);
    (void)TraceExport::parse(junk);
    (void)ErrorMessage::parse(junk);
  }
  SUCCEED();
}

// Mutation fuzz: flip bytes of a valid message's wire form. The parser must
// never crash, and whatever parses must re-serialize to something parseable.
template <typename Message>
void mutation_fuzz(const Message& sample, std::uint64_t seed) {
  const Bytes wire = sample.serialize();
  Rng rng(seed);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = wire;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    const auto parsed = Message::parse(mutated);
    if (parsed.is_ok()) {
      EXPECT_TRUE(Message::parse(parsed.value().serialize()).is_ok());
    }
  }
}

StatusReport two_node_report(const std::string& site) {
  StatusReport report;
  report.site = site;
  NodeStatus n;
  n.name = "n";
  report.nodes = {n, n};
  return report;
}

TEST(Messages, MutationFuzzStatusReport) {
  mutation_fuzz(two_node_report("siteZ"), 31415);
}

TEST(Messages, MutationFuzzMpiBatch) {
  MpiBatch batch;
  batch.origin = "s";
  MpiFrame frame;
  frame.app_id = 1;
  frame.dst_ranks = {0, 1};
  frame.payload = to_bytes("xy");
  batch.frames = {frame, frame};
  mutation_fuzz(batch, 27182);
}

TEST(Messages, MutationFuzzMpiBatchWithAcks) {
  MpiBatch batch;
  batch.origin = "s/n";
  batch.seq = 12;
  MpiFrame frame;
  frame.app_id = 1;
  frame.dst_ranks = {0};
  frame.payload = to_bytes("xy");
  batch.frames = {frame};
  batch.acks = {MpiBatchAck{"s", 10, {12, 14}, 300},
                MpiBatchAck{"t", 2, {}, 1}};
  mutation_fuzz(batch, 57721);
}

TEST(Messages, MutationFuzzMpiBatchAck) {
  mutation_fuzz(MpiBatchAck{"siteB", 17, {19, 23}, 1000}, 69314);
}

TEST(Messages, MutationFuzzShardStatus) {
  ShardStatus gossip;
  gossip.shard = "siteZ#1";
  gossip.lease_epoch = 7;
  gossip.report = two_node_report("siteZ#1");
  mutation_fuzz(gossip, 16180);
}

TEST(Messages, MutationFuzzTraceExport) {
  TraceExport out;
  out.exporter_site = "siteZ";
  ExportedSpan span;
  span.trace_id = 0x1234;
  span.span_id = 2;
  span.parent_span_id = 1;
  span.name = "peer.kMpiOpen";
  span.component = "siteZ";
  span.start_micros = 10;
  span.end_micros = 20;
  span.note = "n";
  out.spans = {span, span};
  mutation_fuzz(out, 14142);
}

TEST(Messages, MutationFuzzMpiOpen) {
  MpiOpen open;
  open.app_id = 9;
  open.executable = "pi";
  open.world_size = 2;
  open.placements = {{0, "siteA", "n0"}, {1, "siteB", "n1"}};
  open.user = "alice";
  open.token = to_bytes("ticket");
  mutation_fuzz(open, 17320);
}

TEST(Dispatcher, RoutesToHandler) {
  Dispatcher d;
  int calls = 0;
  ASSERT_TRUE(d.register_handler(OpCode::kPing, [&calls](const Envelope&) {
                 ++calls;
                 return Status::ok();
               }).is_ok());

  Envelope env;
  env.op = OpCode::kPing;
  EXPECT_TRUE(d.dispatch(env).is_ok());
  EXPECT_EQ(calls, 1);
}

TEST(Dispatcher, DuplicateRegistrationFails) {
  Dispatcher d;
  auto handler = [](const Envelope&) { return Status::ok(); };
  ASSERT_TRUE(d.register_handler(OpCode::kPing, handler).is_ok());
  EXPECT_EQ(d.register_handler(OpCode::kPing, handler).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_TRUE(d.has_handler(OpCode::kPing));
}

TEST(Dispatcher, UnknownOpFails) {
  Dispatcher d;
  Envelope env;
  env.op = OpCode::kMpiBatch;
  EXPECT_EQ(d.dispatch(env).code(), ErrorCode::kNotFound);
}

TEST(Dispatcher, FallbackCatchesUnknown) {
  Dispatcher d;
  int fallback_calls = 0;
  d.set_fallback([&fallback_calls](const Envelope&) {
    ++fallback_calls;
    return Status::ok();
  });
  Envelope env;
  env.op = static_cast<OpCode>(2000);
  EXPECT_TRUE(d.dispatch(env).is_ok());
  EXPECT_EQ(fallback_calls, 1);
}

TEST(Dispatcher, ExtensionOpCodesWork) {
  // The paper requires the protocol's code space to be expandable; register
  // a brand-new op beyond kExtensionBase and round-trip it.
  Dispatcher d;
  const OpCode custom =
      static_cast<OpCode>(static_cast<std::uint16_t>(OpCode::kExtensionBase) + 7);
  std::string seen;
  ASSERT_TRUE(d.register_handler(custom, [&seen](const Envelope& env) {
                 seen = to_string(env.payload);
                 return Status::ok();
               }).is_ok());

  Envelope env;
  env.op = custom;
  env.payload = to_bytes("new-service");
  const auto wire = Envelope::deserialize(env.serialize());
  ASSERT_TRUE(wire.is_ok());
  EXPECT_TRUE(d.dispatch(wire.value()).is_ok());
  EXPECT_EQ(seen, "new-service");
}

}  // namespace
}  // namespace pg::proto
