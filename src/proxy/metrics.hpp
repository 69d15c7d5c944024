// Proxy counters read by the experiment harnesses.
//
// The live counters are telemetry::Counter instruments in the process-wide
// MetricRegistry (sharded atomics — safe to bump from any proxy worker or
// reader thread). ProxyMetrics stays a plain snapshot struct so benches and
// experiments keep their `metrics().field` reads; ProxyInstruments is the
// registry-backed view that produces it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/envelope.hpp"
#include "telemetry/metrics.hpp"
#include "tls/link.hpp"

namespace pg::proxy {

/// Point-in-time snapshot of one proxy's counters (plain values).
struct ProxyMetrics {
  std::uint64_t control_calls_sent = 0;      // inter-proxy request/response
  std::uint64_t control_notifies_sent = 0;   // inter-proxy one-way
  std::uint64_t mpi_messages_local = 0;      // envelopes routed within the site
  std::uint64_t mpi_messages_remote = 0;     // envelopes routed across sites
  std::uint64_t mpi_bytes_local = 0;
  std::uint64_t mpi_bytes_remote = 0;
  std::uint64_t mpi_batch_messages = 0;      // frames coalesced into batches
  std::uint64_t mpi_batch_flushes = 0;       // batch envelopes sent, all reasons
  std::uint64_t mpi_batch_duplicates = 0;    // duplicate batches dropped
  std::uint64_t mpi_retransmits = 0;         // batches resent after an RTO
  std::uint64_t mpi_frames_dropped = 0;      // frames dropped, all reasons
  std::uint64_t mpi_fanout = 0;              // logical deliveries fanned out
  std::uint64_t handshakes = 0;              // GSSL handshakes completed
  std::uint64_t logins = 0;
  std::uint64_t apps_run = 0;
  std::uint64_t tunnels_relayed = 0;
  std::uint64_t tunnel_bytes_relayed = 0;    // TunnelData payload bytes
  std::int64_t open_tunnels = 0;             // currently routed tunnels
  std::uint64_t retries = 0;                 // control-RPC attempts retried
  std::uint64_t deadline_exceeded = 0;       // control-RPC budgets exhausted
  std::uint64_t heartbeat_missed = 0;        // intervals with a silent peer
  std::uint64_t disconnects = 0;             // peer/node connections lost
  std::int64_t open_connections = 0;         // live peer+node connections
  std::uint64_t shard_status_gossip = 0;     // kShardStatus sent to siblings
  std::int64_t shard_owned_keys = 0;         // nodes homed on this shard
};

/// Why a kMpiBatch envelope left the proxy's batcher (flush-policy label).
enum class FlushReason : std::uint8_t {
  kImmediate = 0,  // idle link, single enqueue drained itself right away
  kCombine,        // picked up by an already-active drainer
  kBytes,          // byte budget reached
  kFrames,         // frame budget reached
  kInterval,       // timer retry of frames parked on a dead link
  kTeardown,       // app close / proxy shutdown forced the flush
  kWindow,         // an ack freed congestion-window space on the link
};

const char* flush_reason_name(FlushReason reason);

/// Why the reliable data plane stopped retrying frames
/// (pg_mpi_frames_dropped_total{reason}).
enum class DropReason : std::uint8_t {
  kAppClosed = 0,  // owning app finished or aborted; nobody can receive them
  kLinkDown,       // teardown flush found the destination link dead
};

const char* drop_reason_name(DropReason reason);

/// One proxy's registry-backed instruments, labelled {site=<name>}.
///
/// The registry is process-global and counters are monotonic, so a second
/// grid reusing a site name would otherwise inherit the first grid's
/// totals; snapshot() subtracts the baseline captured at construction to
/// keep per-proxy-instance semantics.
class ProxyInstruments {
 public:
  explicit ProxyInstruments(const std::string& site);

  telemetry::Counter& control_calls_sent;
  telemetry::Counter& control_notifies_sent;
  telemetry::Counter& mpi_messages_local;
  telemetry::Counter& mpi_messages_remote;
  telemetry::Counter& mpi_bytes_local;
  telemetry::Counter& mpi_bytes_remote;
  /// Data frames coalesced into kMpiBatch envelopes (pg_mpi_batch_messages).
  telemetry::Counter& mpi_batch_messages;
  /// Duplicate kMpiBatch envelopes dropped by the dedup window.
  telemetry::Counter& mpi_batch_duplicates;
  /// Logical deliveries produced by fanning out batch frames
  /// (pg_mpi_fanout_total).
  telemetry::Counter& mpi_fanout;
  /// Sum over reasons; the per-reason breakdown lives in the registry as
  /// pg_mpi_batch_flush_total{site,reason} (see batch_flush()).
  telemetry::Counter& mpi_batch_flushes;
  /// kMpiBatch envelopes resent after a retransmission timeout
  /// (pg_mpi_retransmit_total{site,sender="proxy"}; node agents report the
  /// same family with sender=<node>).
  telemetry::Counter& mpi_retransmits;
  /// Sum over reasons; the per-reason breakdown lives in the registry as
  /// pg_mpi_frames_dropped_total{site,reason} (see frames_dropped()).
  telemetry::Counter& mpi_frames_dropped;
  /// Payload bytes transmitted but not yet acknowledged, summed across this
  /// proxy's link windows (pg_mpi_inflight_bytes).
  telemetry::Gauge& mpi_inflight_bytes;
  telemetry::Counter& handshakes;
  telemetry::Counter& logins;
  telemetry::Counter& apps_run;
  telemetry::Counter& tunnels_relayed;
  telemetry::Counter& tunnel_bytes_relayed;
  /// Tunnels with a live routing entry; +1 on open, -1 on close.
  telemetry::Gauge& open_tunnels;
  /// Live peer + node connections this proxy holds (pg_proxy_open_connections).
  /// With the reactor core this is no longer bounded by reader threads.
  telemetry::Gauge& open_connections;
  telemetry::Counter& retries;
  telemetry::Counter& deadline_exceeded;
  telemetry::Counter& heartbeat_missed;
  /// Sum over reasons; the per-reason breakdown lives in the registry as
  /// pg_proxy_disconnects_total{site,peer,reason} (see disconnect()).
  telemetry::Counter& disconnects;
  /// kShardStatus gossip envelopes this shard pushed to its siblings
  /// (pg_shard_status_gossip_total).
  telemetry::Counter& shard_status_gossip;
  /// Virtual slaves (node links) currently homed on this shard
  /// (pg_shard_owned_keys); +1 on attach, -1 on node death.
  telemetry::Gauge& shard_owned_keys;

  /// Records a lost connection: bumps `disconnects` and the reason-labelled
  /// registry counter. Cold path, so the labelled lookup happens here.
  void disconnect(const std::string& site, const std::string& peer,
                  const Status& reason);

  /// Records one flushed batch envelope: bumps `mpi_batch_flushes` and the
  /// reason-labelled registry counter (pre-resolved — safe on the hot path).
  void batch_flush(FlushReason reason);

  /// Records dropped data frames against the reason-labelled registry
  /// counter pg_mpi_frames_dropped_total{site,reason} plus the sum.
  void frames_dropped(DropReason reason, std::uint64_t count);

  /// Records a flushed envelope's lane composition
  /// (pg_mpi_lane_flush_total{site,lane}): an envelope carrying frames of
  /// both lanes counts once per lane it served.
  void lane_flush(bool latency, bool bulk);

  /// Inter-proxy envelope dispatch latency (handler run time, micros).
  telemetry::Histogram& dispatch_micros;
  /// User authentication cost, one observation per ProxyServer::login call
  /// (micros): for a password login, mostly the salted stretch.
  telemetry::Histogram& login_micros;
  /// Ack round-trip times (micros), sampled only from batches that were
  /// never retransmitted (Karn's rule keeps the estimator honest).
  telemetry::Histogram& mpi_ack_rtt_micros;
  /// Routed MPI payload sizes, split by scope.
  telemetry::Histogram& mpi_message_bytes_local;
  telemetry::Histogram& mpi_message_bytes_remote;

  /// Counter for one received op, labelled {site, op}; cheap enough for
  /// the dispatch path (pointer deref + sharded add) because the lookups
  /// happened at construction.
  telemetry::Counter& op_received(proto::OpCode op);

  ProxyMetrics snapshot() const;

 private:
  ProxyMetrics baseline_;
  std::vector<std::pair<std::uint16_t, telemetry::Counter*>> op_counters_;
  std::vector<telemetry::Counter*> flush_counters_;  // indexed by FlushReason
  std::vector<telemetry::Counter*> drop_counters_;   // indexed by DropReason
  telemetry::Counter* lane_counters_[2] = {nullptr, nullptr};  // latency, bulk
  telemetry::Counter& op_other_;
};

/// One row per connection the proxy holds.
struct LinkReport {
  std::string peer;          // site name or node name
  bool inter_site = false;   // proxy<->proxy (true) vs proxy<->node (false)
  bool encrypted = false;
  tls::LinkStats stats;
};

}  // namespace pg::proxy
