// Typed payloads for the inter-proxy control protocol.
//
// Every struct serializes to the Envelope payload for its op code. All
// parsers are safe on arbitrary input (see common/serde.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace pg::proto {

// ------------------------------------------------------------ membership

struct Hello {
  std::string site;           // announcing proxy's site name
  std::string proxy_subject;  // certificate subject, for cross-checking

  Bytes serialize() const;
  static Result<Hello> parse(BytesView data);
};

struct HelloAck {
  std::string site;
  bool accepted = false;
  std::string reason;

  Bytes serialize() const;
  static Result<HelloAck> parse(BytesView data);
};

// -------------------------------------------------------------- security

enum class AuthMethod : std::uint8_t {
  kPassword = 0,   // userid + password (paper, initial phase)
  kSignature = 1,  // digital signature (paper, layer 2)
  kTicket = 2,     // Kerberos-style ticket (paper, planned evolution)
};

struct AuthRequest {
  std::string user;
  AuthMethod method = AuthMethod::kPassword;
  /// password bytes / signature over challenge material / serialized ticket.
  Bytes credential;
  /// For kSignature: the timestamp the signature covers (replay window).
  std::uint64_t timestamp = 0;

  Bytes serialize() const;
  static Result<AuthRequest> parse(BytesView data);
};

struct AuthResponse {
  bool ok = false;
  std::string reason;
  /// Session token (or serialized ticket for kPassword logins that upgrade
  /// to ticket-based sessions).
  Bytes token;

  Bytes serialize() const;
  static Result<AuthResponse> parse(BytesView data);
};

// ------------------------------------------------- control & monitoring

/// One station's state (paper layer 3: "availability of RAM memory, CPU
/// and HD").
struct NodeStatus {
  std::string name;
  double cpu_capacity = 1.0;  // relative speed; 1.0 = reference node
  double cpu_load = 0.0;      // 0..1 utilization
  std::uint64_t ram_total_mb = 0;
  std::uint64_t ram_free_mb = 0;
  std::uint64_t disk_total_mb = 0;
  std::uint64_t disk_free_mb = 0;
  std::uint32_t running_processes = 0;
  std::uint64_t timestamp = 0;

  Bytes serialize() const;
  static Result<NodeStatus> parse(BytesView data);

  friend bool operator==(const NodeStatus&, const NodeStatus&) = default;
};

struct StatusQuery {
  /// Sites whose status is wanted; empty means "the receiving site".
  std::vector<std::string> sites;
  bool include_nodes = true;

  Bytes serialize() const;
  static Result<StatusQuery> parse(BytesView data);
};

struct StatusReport {
  std::string site;
  std::vector<NodeStatus> nodes;
  std::uint64_t timestamp = 0;

  Bytes serialize() const;
  static Result<StatusReport> parse(BytesView data);
};

/// Shard-group status gossip (kShardStatus): one proxy shard's
/// partial view of its site — the nodes attached to THAT shard — plus
/// the collector-lease epoch it has observed. Siblings merge the partial
/// reports into a full site view and use the epoch to keep collector
/// handoffs ordered (a report gossiped before a handoff can never
/// overwrite one gossiped after it).
struct ShardStatus {
  std::string shard;          // sender shard id, e.g. "site1#2"
  std::uint64_t lease_epoch = 0;
  StatusReport report;        // report.site is the shard id too

  Bytes serialize() const;
  static Result<ShardStatus> parse(BytesView data);
};

struct JobSubmit {
  std::uint64_t job_id = 0;
  std::string user;
  std::string executable;
  std::vector<std::string> args;
  std::uint32_t ranks = 1;
  std::uint64_t min_ram_mb = 0;
  /// Sealed session ticket — remote submissions are re-authorized at the
  /// receiving proxy under the realm key.
  Bytes token;

  Bytes serialize() const;
  static Result<JobSubmit> parse(BytesView data);
};

struct JobAccept {
  std::uint64_t job_id = 0;
  bool accepted = false;
  std::string reason;

  Bytes serialize() const;
  static Result<JobAccept> parse(BytesView data);
};

struct JobComplete {
  std::uint64_t job_id = 0;
  std::uint32_t exit_code = 0;
  Bytes output;

  Bytes serialize() const;
  static Result<JobComplete> parse(BytesView data);
};

// ------------------------------------------------------------------ MPI

/// Where one MPI rank runs. The proxy uses this to build its virtual-slave
/// table: ranks on remote sites become virtual slaves locally.
struct RankPlacement {
  std::uint32_t rank = 0;
  std::string site;
  std::string node;

  friend bool operator==(const RankPlacement&, const RankPlacement&) = default;
};

struct MpiOpen {
  std::uint64_t app_id = 0;
  /// Name the application registered under (models the binary that is
  /// installed on every node — the paper assumes the MPI program exists at
  /// each site and is launched unmodified).
  std::string executable;
  std::uint32_t world_size = 0;
  std::vector<RankPlacement> placements;
  /// Submitting user and their sealed session ticket. The paper requires
  /// access permissions to be "validated at the originating and destination
  /// proxies" — destinations re-verify this ticket under the realm key.
  std::string user;
  Bytes token;

  Bytes serialize() const;
  static Result<MpiOpen> parse(BytesView data);
};

struct MpiOpenAck {
  std::uint64_t app_id = 0;
  bool ok = false;
  std::string reason;

  Bytes serialize() const;
  static Result<MpiOpenAck> parse(BytesView data);
};

/// One logical MPI message inside a kMpiBatch envelope. `dst_ranks` with
/// more than one entry is a fan-out frame: the payload travels the link
/// once and the receiver delivers it to every listed rank (the proxy's
/// site-aware collective multiplexing).
struct MpiFrame {
  std::uint64_t app_id = 0;
  std::uint32_t src_rank = 0;
  std::uint32_t tag = 0;
  std::vector<std::uint32_t> dst_ranks;
  Bytes payload;

  friend bool operator==(const MpiFrame&, const MpiFrame&) = default;
};

/// kMpiBatchAck payload, and one entry of MpiBatch::acks: the receiver's
/// delivery coverage for one batch origin, sent back on the link a
/// kMpiBatch arrived on. `cumulative` is the highest seq S such that every
/// batch in [1, S] from `origin` was delivered on this link; `selective`
/// lists seqs received beyond the cumulative point (out-of-order arrivals
/// whose predecessors are still missing). Senders release every covered
/// batch from their in-flight window; anything uncovered retransmits at its
/// RTO. `ack_delay_us` is how long the receiver held the ack after the
/// newest covered batch arrived; the sender subtracts it from its RTT
/// samples (RFC 9000 §13.2.5).
struct MpiBatchAck {
  std::string origin;
  std::uint64_t cumulative = 0;
  std::vector<std::uint64_t> selective;
  std::uint64_t ack_delay_us = 0;

  friend bool operator==(const MpiBatchAck&, const MpiBatchAck&) = default;

  Bytes serialize() const;
  static Result<MpiBatchAck> parse(BytesView data);
};

/// kMpiBatch payload: frames coalesced into one envelope / one sealed
/// record per link flush. (origin, seq) identifies
/// the batch so receivers can drop a duplicated or retransmitted batch
/// after the first delivery. `acks` piggybacks the coverage the sender owes
/// the far end for batches that came the other way on the same link.
struct MpiBatch {
  /// Sender identity, unique per process: a proxy uses its site name, a
  /// node agent "<site>/<node>".
  std::string origin;
  /// Monotonic per sender; receivers keep a per-origin window of seen ids.
  std::uint64_t seq = 0;
  std::vector<MpiFrame> frames;
  std::vector<MpiBatchAck> acks;

  Bytes serialize() const;
  static Result<MpiBatch> parse(BytesView data);
};

struct MpiClose {
  std::uint64_t app_id = 0;

  Bytes serialize() const;
  static Result<MpiClose> parse(BytesView data);
};

/// Sent by a site that can no longer run its share of an app (a hosting
/// node died). The origin proxy fails the run with a retryable error.
struct MpiAbort {
  std::uint64_t app_id = 0;
  std::string reason;

  Bytes serialize() const;
  static Result<MpiAbort> parse(BytesView data);
};

// ------------------------------------------------------------- tunnels

struct TunnelOpen {
  std::uint64_t tunnel_id = 0;
  std::string target_site;
  std::string target_node;
  std::string target_service;

  Bytes serialize() const;
  static Result<TunnelOpen> parse(BytesView data);
};

struct TunnelData {
  std::uint64_t tunnel_id = 0;
  Bytes payload;

  Bytes serialize() const;
  static Result<TunnelData> parse(BytesView data);
};

struct TunnelClose {
  std::uint64_t tunnel_id = 0;

  Bytes serialize() const;
  static Result<TunnelClose> parse(BytesView data);
};

// ---------------------------------------------------------------- traces

/// One completed span exported toward the trace's origin proxy. Field for
/// field a telemetry::SpanRecord; kept separate so the wire format does
/// not pin the in-memory layout.
struct ExportedSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string name;
  std::string component;
  std::int64_t start_micros = 0;
  std::int64_t end_micros = 0;
  bool ok = true;
  std::string note;

  friend bool operator==(const ExportedSpan&, const ExportedSpan&) = default;
};

/// kTraceExport payload: spans a remote proxy finished for a trace it did
/// not originate, flowing hop-by-hop back to the origin so the whole grid
/// operation renders as one connected trace there.
struct TraceExport {
  std::string exporter_site;
  std::vector<ExportedSpan> spans;

  Bytes serialize() const;
  static Result<TraceExport> parse(BytesView data);
};

// --------------------------------------------------------------- errors

struct ErrorMessage {
  std::uint16_t code = 0;  // mirrors pg::ErrorCode
  std::string message;

  Bytes serialize() const;
  static Result<ErrorMessage> parse(BytesView data);
};

}  // namespace pg::proto
