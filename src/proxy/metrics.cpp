#include "proxy/metrics.hpp"

namespace pg::proxy {

namespace {

telemetry::Counter& site_counter(const std::string& name,
                                 const std::string& help,
                                 const std::string& site) {
  return telemetry::MetricRegistry::global().counter(name, help,
                                                     {{"site", site}});
}

/// The ops a proxy receives often enough to pre-resolve a counter for.
constexpr proto::OpCode kCountedOps[] = {
    proto::OpCode::kHello,      proto::OpCode::kPing,
    proto::OpCode::kStatusQuery, proto::OpCode::kStatusReport,
    proto::OpCode::kShardStatus, proto::OpCode::kAuthRequest,
    proto::OpCode::kJobSubmit,
    proto::OpCode::kJobQuery,    proto::OpCode::kMpiOpen,
    proto::OpCode::kMpiStart,    proto::OpCode::kMpiBatch,
    proto::OpCode::kMpiBatchAck, proto::OpCode::kMpiClose,
    proto::OpCode::kMpiDone,
    proto::OpCode::kTunnelOpen,  proto::OpCode::kTunnelData,
    proto::OpCode::kTunnelClose,
};

constexpr FlushReason kFlushReasons[] = {
    FlushReason::kImmediate, FlushReason::kCombine,  FlushReason::kBytes,
    FlushReason::kFrames,    FlushReason::kInterval, FlushReason::kTeardown,
    FlushReason::kWindow,
};

constexpr DropReason kDropReasons[] = {
    DropReason::kAppClosed,
    DropReason::kLinkDown,
};

}  // namespace

const char* flush_reason_name(FlushReason reason) {
  switch (reason) {
    case FlushReason::kImmediate: return "immediate";
    case FlushReason::kCombine: return "combine";
    case FlushReason::kBytes: return "bytes";
    case FlushReason::kFrames: return "frames";
    case FlushReason::kInterval: return "interval";
    case FlushReason::kTeardown: return "teardown";
    case FlushReason::kWindow: return "window";
  }
  return "unknown";
}

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kAppClosed: return "app_closed";
    case DropReason::kLinkDown: return "link_down";
  }
  return "unknown";
}

ProxyInstruments::ProxyInstruments(const std::string& site)
    : control_calls_sent(site_counter("pg_proxy_control_calls_sent_total",
                                      "Inter-proxy request/response calls",
                                      site)),
      control_notifies_sent(
          site_counter("pg_proxy_control_notifies_sent_total",
                       "Inter-proxy one-way notifications", site)),
      mpi_messages_local(site_counter("pg_proxy_mpi_messages_local_total",
                                      "MPI messages routed within the site",
                                      site)),
      mpi_messages_remote(site_counter("pg_proxy_mpi_messages_remote_total",
                                       "MPI messages routed across sites",
                                       site)),
      mpi_bytes_local(site_counter("pg_proxy_mpi_bytes_local_total",
                                   "MPI payload bytes routed within the site",
                                   site)),
      mpi_bytes_remote(site_counter("pg_proxy_mpi_bytes_remote_total",
                                    "MPI payload bytes routed across sites",
                                    site)),
      mpi_batch_messages(site_counter(
          "pg_mpi_batch_messages",
          "MPI data frames coalesced into kMpiBatch envelopes", site)),
      mpi_batch_duplicates(site_counter(
          "pg_mpi_batch_duplicates_total",
          "Duplicate kMpiBatch envelopes dropped by the dedup window", site)),
      mpi_fanout(site_counter(
          "pg_mpi_fanout_total",
          "Logical MPI deliveries fanned out from batch frames", site)),
      mpi_batch_flushes(site_counter(
          "pg_mpi_batch_flush_sum",
          "kMpiBatch envelopes flushed (all reasons)", site)),
      mpi_retransmits(telemetry::MetricRegistry::global().counter(
          "pg_mpi_retransmit_total",
          "kMpiBatch envelopes retransmitted after an RTO",
          {{"site", site}, {"sender", "proxy"}})),
      mpi_frames_dropped(site_counter(
          "pg_mpi_frames_dropped_sum",
          "Data frames the reliability layer stopped retrying (all reasons)",
          site)),
      mpi_inflight_bytes(telemetry::MetricRegistry::global().gauge(
          "pg_mpi_inflight_bytes",
          "Payload bytes transmitted but not yet acknowledged",
          {{"site", site}, {"sender", "proxy"}})),
      handshakes(site_counter("pg_proxy_handshakes_total",
                              "GSSL handshakes completed by this proxy",
                              site)),
      logins(site_counter("pg_proxy_logins_total",
                          "User authentications served", site)),
      apps_run(site_counter("pg_proxy_apps_run_total",
                            "Grid applications launched from this proxy",
                            site)),
      tunnels_relayed(site_counter("pg_proxy_tunnels_relayed_total",
                                   "Tunnel envelopes relayed", site)),
      tunnel_bytes_relayed(
          site_counter("pg_proxy_tunnel_bytes_relayed_total",
                       "TunnelData payload bytes relayed", site)),
      open_tunnels(telemetry::MetricRegistry::global().gauge(
          "pg_proxy_open_tunnels", "Tunnels with a live routing entry",
          {{"site", site}})),
      open_connections(telemetry::MetricRegistry::global().gauge(
          "pg_proxy_open_connections",
          "Live peer and node connections held by this proxy",
          {{"site", site}})),
      retries(site_counter("pg_retry_total",
                           "Control-RPC attempts retried after a transient "
                           "failure",
                           site)),
      deadline_exceeded(site_counter("pg_deadline_exceeded_total",
                                     "Control-RPC deadline budgets exhausted",
                                     site)),
      heartbeat_missed(site_counter("pg_heartbeat_missed_total",
                                    "Heartbeat intervals with a silent peer",
                                    site)),
      disconnects(site_counter("pg_proxy_disconnects_sum",
                               "Peer/node connections lost (all reasons)",
                               site)),
      shard_status_gossip(site_counter(
          "pg_shard_status_gossip_total",
          "kShardStatus gossip envelopes pushed to sibling shards", site)),
      shard_owned_keys(telemetry::MetricRegistry::global().gauge(
          "pg_shard_owned_keys",
          "Virtual slaves (node links) homed on this shard",
          {{"site", site}})),
      dispatch_micros(telemetry::MetricRegistry::global().histogram(
          "pg_proxy_dispatch_micros",
          "Control-envelope handler latency (microseconds)",
          telemetry::duration_buckets_micros(), {{"site", site}})),
      login_micros(telemetry::MetricRegistry::global().histogram(
          "pg_proxy_login_micros",
          "User authentication latency per login (microseconds)",
          telemetry::duration_buckets_micros(), {{"site", site}})),
      mpi_ack_rtt_micros(telemetry::MetricRegistry::global().histogram(
          "pg_mpi_ack_rtt_micros",
          "kMpiBatchAck round-trip time, clean (never-retransmitted) batches",
          telemetry::duration_buckets_micros(),
          {{"site", site}, {"sender", "proxy"}})),
      mpi_message_bytes_local(telemetry::MetricRegistry::global().histogram(
          "pg_proxy_mpi_message_bytes",
          "Routed MPI message payload sizes (bytes)",
          telemetry::size_buckets_bytes(),
          {{"site", site}, {"scope", "local"}})),
      mpi_message_bytes_remote(telemetry::MetricRegistry::global().histogram(
          "pg_proxy_mpi_message_bytes",
          "Routed MPI message payload sizes (bytes)",
          telemetry::size_buckets_bytes(),
          {{"site", site}, {"scope", "remote"}})),
      op_other_(telemetry::MetricRegistry::global().counter(
          "pg_proxy_ops_received_total", "Control envelopes received, by op",
          {{"site", site}, {"op", "other"}})) {
  for (const proto::OpCode op : kCountedOps) {
    op_counters_.emplace_back(
        static_cast<std::uint16_t>(op),
        &telemetry::MetricRegistry::global().counter(
            "pg_proxy_ops_received_total",
            "Control envelopes received, by op",
            {{"site", site}, {"op", proto::opcode_name(op)}}));
  }
  for (const FlushReason reason : kFlushReasons) {
    flush_counters_.push_back(&telemetry::MetricRegistry::global().counter(
        "pg_mpi_batch_flush_total", "kMpiBatch envelopes flushed, by reason",
        {{"site", site}, {"reason", flush_reason_name(reason)}}));
  }
  for (const DropReason reason : kDropReasons) {
    drop_counters_.push_back(&telemetry::MetricRegistry::global().counter(
        "pg_mpi_frames_dropped_total",
        "Data frames the reliability layer stopped retrying, by reason",
        {{"site", site}, {"reason", drop_reason_name(reason)}}));
  }
  lane_counters_[0] = &telemetry::MetricRegistry::global().counter(
      "pg_mpi_lane_flush_total", "Flushed envelopes that served a lane",
      {{"site", site}, {"lane", "latency"}});
  lane_counters_[1] = &telemetry::MetricRegistry::global().counter(
      "pg_mpi_lane_flush_total", "Flushed envelopes that served a lane",
      {{"site", site}, {"lane", "bulk"}});
  baseline_ = snapshot();  // zero the view for this proxy instance
}

void ProxyInstruments::batch_flush(FlushReason reason) {
  mpi_batch_flushes.increment();
  flush_counters_[static_cast<std::size_t>(reason)]->increment();
}

void ProxyInstruments::frames_dropped(DropReason reason, std::uint64_t count) {
  if (count == 0) return;
  mpi_frames_dropped.increment(count);
  drop_counters_[static_cast<std::size_t>(reason)]->increment(count);
}

void ProxyInstruments::lane_flush(bool latency, bool bulk) {
  if (latency) lane_counters_[0]->increment();
  if (bulk) lane_counters_[1]->increment();
}

void ProxyInstruments::disconnect(const std::string& site,
                                  const std::string& peer,
                                  const Status& reason) {
  disconnects.increment();
  // Reason label uses the error-code name, not the message, to keep the
  // series cardinality bounded.
  telemetry::MetricRegistry::global()
      .counter("pg_proxy_disconnects_total",
               "Peer/node connections lost, by reason",
               {{"site", site},
                {"peer", peer},
                {"reason", error_code_name(reason.code())}})
      .increment();
}

telemetry::Counter& ProxyInstruments::op_received(proto::OpCode op) {
  const std::uint16_t raw = static_cast<std::uint16_t>(op);
  for (const auto& [code, counter] : op_counters_) {
    if (code == raw) return *counter;
  }
  return op_other_;
}

ProxyMetrics ProxyInstruments::snapshot() const {
  ProxyMetrics m;
  m.control_calls_sent =
      control_calls_sent.value() - baseline_.control_calls_sent;
  m.control_notifies_sent =
      control_notifies_sent.value() - baseline_.control_notifies_sent;
  m.mpi_messages_local =
      mpi_messages_local.value() - baseline_.mpi_messages_local;
  m.mpi_messages_remote =
      mpi_messages_remote.value() - baseline_.mpi_messages_remote;
  m.mpi_bytes_local = mpi_bytes_local.value() - baseline_.mpi_bytes_local;
  m.mpi_bytes_remote = mpi_bytes_remote.value() - baseline_.mpi_bytes_remote;
  m.mpi_batch_messages =
      mpi_batch_messages.value() - baseline_.mpi_batch_messages;
  m.mpi_batch_flushes =
      mpi_batch_flushes.value() - baseline_.mpi_batch_flushes;
  m.mpi_batch_duplicates =
      mpi_batch_duplicates.value() - baseline_.mpi_batch_duplicates;
  m.mpi_retransmits = mpi_retransmits.value() - baseline_.mpi_retransmits;
  m.mpi_frames_dropped =
      mpi_frames_dropped.value() - baseline_.mpi_frames_dropped;
  m.mpi_fanout = mpi_fanout.value() - baseline_.mpi_fanout;
  m.handshakes = handshakes.value() - baseline_.handshakes;
  m.logins = logins.value() - baseline_.logins;
  m.apps_run = apps_run.value() - baseline_.apps_run;
  m.tunnels_relayed = tunnels_relayed.value() - baseline_.tunnels_relayed;
  m.tunnel_bytes_relayed =
      tunnel_bytes_relayed.value() - baseline_.tunnel_bytes_relayed;
  m.open_tunnels = open_tunnels.value();  // gauge: current state, no baseline
  m.open_connections = open_connections.value();  // gauge too
  m.retries = retries.value() - baseline_.retries;
  m.deadline_exceeded =
      deadline_exceeded.value() - baseline_.deadline_exceeded;
  m.heartbeat_missed = heartbeat_missed.value() - baseline_.heartbeat_missed;
  m.disconnects = disconnects.value() - baseline_.disconnects;
  m.shard_status_gossip =
      shard_status_gossip.value() - baseline_.shard_status_gossip;
  m.shard_owned_keys = shard_owned_keys.value();  // gauge: current state
  return m;
}

}  // namespace pg::proxy
