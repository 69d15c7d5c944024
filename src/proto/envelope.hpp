// Inter-proxy control protocol: envelope and expandable op-code space
// (paper §3: "The control communication was standardized through the
// creation of a protocol used among the proxies. The codes used in this
// protocol can be expanded to deal with a new situation.")
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace pg::proto {

/// The first byte of every envelope. Only this version is accepted: every
/// proxy and node agent of a grid runs the same build, so there is no
/// older peer to stay compatible with (see docs/PROTOCOL.md).
constexpr std::uint8_t kProtocolVersion = 6;

/// Well-known operation codes. The space is open: proxies route unknown
/// codes to registered extension handlers (see Dispatcher) instead of
/// failing, which is how the paper expects the protocol to grow.
enum class OpCode : std::uint16_t {
  // Layer 1: membership / liveness
  kHello = 1,
  kHelloAck = 2,
  kPing = 3,
  kPong = 4,
  /// Unsolicited keepalive on inter-proxy links. No payload, no reply —
  /// receipt alone refreshes the peer's liveness clock; a configurable run
  /// of missed intervals marks the site dead (docs/RESILIENCE.md).
  kHeartbeat = 5,

  // Layer 2: security
  kAuthRequest = 10,
  kAuthResponse = 11,

  // Layer 3: control & monitoring
  kStatusQuery = 20,
  kStatusReport = 21,
  /// Intra-site gossip between proxy shards of one site: a shard's
  /// partial status report plus the collector-lease epoch, so any shard
  /// can answer for the whole site and lease handoffs stay ordered.
  kShardStatus = 22,
  kJobSubmit = 30,
  kJobAccept = 31,
  kJobComplete = 32,
  /// Poll a remote batch job's state; answered with kJobComplete.
  kJobQuery = 33,

  // Layer 4: MPI support
  kMpiOpen = 40,
  kMpiOpenAck = 41,
  // 42 carried single unbatched data messages; retired, do not reuse.
  kMpiClose = 43,
  /// Second phase of application launch: sent only after every site acked
  /// kMpiOpen, so routing tables exist everywhere before any rank runs.
  kMpiStart = 44,
  /// Unsolicited completion notice (node -> proxy, remote proxy -> origin).
  kMpiDone = 45,
  /// Unsolicited failure notice (remote proxy -> origin): a site lost a
  /// node hosting ranks of the app. The origin fails the run with a
  /// retryable error so the job layer can re-dispatch it.
  kMpiAbort = 46,
  /// MPI data frames: one envelope — one sealed record on GSSL links —
  /// carrying one or more frames bound for the same destination, each
  /// addressable to multiple ranks (the site-aware collective fan-out).
  /// The only data-plane op. Payload is proto::MpiBatch.
  kMpiBatch = 47,
  /// Standalone receiver -> sender acknowledgement of kMpiBatch
  /// deliveries: cumulative + selective (origin, seq) coverage, so senders
  /// can release their in-flight window and retransmit only what was lost.
  /// Payload is proto::MpiBatchAck. Most coverage rides the next reverse
  /// kMpiBatch instead (MpiBatch::acks); this envelope goes out only when
  /// an ack cannot wait (docs/PROTOCOL.md). Unacknowledged batches
  /// retransmit on an RTO timer — the at-least-once half of the
  /// effectively-exactly-once data plane (the dedup window is the
  /// at-most-once half).
  kMpiBatchAck = 48,

  // Tunneling (explicit secure channels for site nodes)
  kTunnelOpen = 50,
  kTunnelData = 51,
  kTunnelClose = 52,

  /// Unsolicited span export (remote proxy -> origin proxy): completed
  /// trace-ring spans whose trace id was allocated elsewhere, forwarded
  /// hop-by-hop toward the proxy that originated the trace so one grid
  /// operation reads as a single connected trace there. Payload is
  /// proto::TraceExport.
  kTraceExport = 60,

  /// Generic response to an extension request: the payload layout is the
  /// extension's own. Lets new services get request/response semantics
  /// without touching the core response set.
  kReply = 98,
  kError = 99,

  // Extension codes start here; see Dispatcher::register_handler.
  kExtensionBase = 1000,
};

const char* opcode_name(OpCode op);

/// Every control message on the wire: version byte (kProtocolVersion), op,
/// correlation id, trace context, payload.
struct Envelope {
  OpCode op = OpCode::kError;
  /// Correlates responses with requests; 0 for unsolicited messages.
  std::uint64_t request_id = 0;
  /// Distributed-trace context (telemetry/trace.hpp): the sender's trace id
  /// and span id, 0/0 when the operation is untraced. The receiving proxy
  /// installs this as the handler thread's current context, which is how
  /// one grid operation yields a single cross-site trace.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  Bytes payload;

  Bytes serialize() const;
  /// Serializes into `out`, reusing its capacity (hot send path).
  void serialize_into(Bytes& out) const;
  static Result<Envelope> deserialize(BytesView data);
};

/// Serializes an envelope straight from its parts into `out`, reusing its
/// capacity. Same wire bytes as Envelope::serialize(); lets senders skip
/// building an Envelope (and copying the payload into it) entirely.
void serialize_envelope(OpCode op, std::uint64_t request_id,
                        std::uint64_t trace_id, std::uint64_t span_id,
                        BytesView payload, Bytes& out);

}  // namespace pg::proto
