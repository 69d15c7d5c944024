// ProxyServer — the paper's contribution: a gateway at the site border that
// carries ALL grid functionality, so nodes stay untouched.
//
// Layer map (paper Figure 2 -> this class):
//   1 Communication        PeerTable (site + node Connections), control
//                          protocol dispatch
//   2 Security             GSSL tunnels between sites, host certificates,
//                          UserAuthenticator (password/signature/ticket),
//                          per-user/group ACLs, destination-side checks
//   3 Grid API + Control   site collection, on-demand global status,
//                          resource location, job submission
//   4 MPI support          virtual-slave routing tables, communication
//                          multiplexing between sites, two-phase app launch
//   Resource scheduling    pluggable Scheduler (round-robin / load-balanced)
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/authenticator.hpp"
#include "common/thread_pool.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "monitor/aggregator.hpp"
#include "monitor/site_collector.hpp"
#include "monitor/status_lease.hpp"
#include "net/channel.hpp"
#include "net/reactor.hpp"
#include "proxy/app_routing.hpp"
#include "proxy/connection.hpp"
#include "proxy/job_manager.hpp"
#include "proxy/metrics.hpp"
#include "proxy/peer_table.hpp"
#include "proxy/reliable_batch.hpp"
#include "proxy/resilience.hpp"
#include "proxy/shard_ring.hpp"
#include "sched/scheduler.hpp"
#include "tls/gssl.hpp"

namespace pg::proxy {

/// Deployment policy for intra-site links (the E2 experiment variable).
enum class SecurityMode {
  /// The paper's design: plaintext inside the site, GSSL only between
  /// proxies ("traffic tunneling ... using SSL only among the sites").
  kProxyTunneling,
  /// Globus-like baseline: every node's link is also GSSL-protected, so
  /// "all the cluster's nodes reflect the overhead".
  kPerNodeSecurity,
};

struct ProxyConfig {
  std::string site;
  tls::GsslIdentity identity;           // cert subject: "proxy.<site>"
  std::string ca_name;
  crypto::RsaPublicKey ca_key;
  Bytes ticket_key;                     // realm key shared by all proxies
  TimeMicros ticket_lifetime = 3600 * kMicrosPerSecond;
  const Clock* clock = nullptr;
  std::uint64_t rng_seed = 1;
  SecurityMode mode = SecurityMode::kProxyTunneling;

  // ---- resilience knobs (docs/RESILIENCE.md) ----
  /// Retry/deadline policy for control RPCs to peers and nodes.
  RetryPolicy retry;
  /// Keepalive period on inter-proxy links; 0 disables heartbeating (the
  /// default, so deployments that never lose links pay nothing).
  TimeMicros heartbeat_interval = 0;
  /// Consecutive silent intervals before a peer is declared dead and its
  /// tunnels/status/runs are purged.
  std::uint32_t heartbeat_miss_threshold = 3;
  /// Attempt budget for batch jobs whose run fails transiently.
  std::uint32_t job_max_attempts = 3;
  /// run_app deadline used for batch-job attempts.
  TimeMicros job_run_timeout = 120 * kMicrosPerSecond;
  /// Threads executing batch jobs — the per-proxy job parallelism cap, and
  /// the proxy's only pool: relays are continuations and hold no thread.
  std::uint32_t job_workers = 4;

  // ---- MPI data-plane batching (docs/PERFORMANCE.md, "MPI data plane") ----
  /// Retry period for batch frames parked on a dead link or behind a full
  /// congestion window; must be positive. Batching adds no latency on an
  /// idle link (a lone enqueue drains itself immediately); coalescing only
  /// happens when sends genuinely pile up. Envelope and lane limits are
  /// constants (kBatchMaxBytes, kBatchMaxFrames, kLatencyLaneBytes).
  TimeMicros mpi_batch_flush_interval = kDefaultRetryInterval;

  // ---- reliable data plane (docs/RESILIENCE.md, "at-least-once") ----
  /// Every kMpiBatch is retransmitted until acked; this proxy's node
  /// agents use the same tuning (see sender_window_config()).
  /// Retransmission timeout before any RTT sample exists; once acks flow,
  /// the live RTO is srtt + 4*rttvar, clamped to
  /// [mpi_ack_rto_initial / 4, mpi_ack_rto_max].
  TimeMicros mpi_ack_rto_initial = 50 * 1000;
  /// Backoff ceiling for repeated retransmissions of the same batch.
  TimeMicros mpi_ack_rto_max = 2 * kMicrosPerSecond;

  // ---- sharded proxy tier (docs/PROTOCOL.md, "Sharded proxy tier") ----
  /// Number of proxy shards serving this logical site. `site` above is
  /// this shard's id (see shard_name()): the bare site name for shard 0,
  /// "<site>#<index>" for the rest. With the default of 1 the proxy
  /// behaves exactly as before sharding existed.
  std::uint32_t shards = 1;
  /// Gossip period for kShardStatus partial reports between sibling
  /// shards; armed only when shards > 1 (0 disables gossip entirely).
  TimeMicros shard_gossip_interval = 250 * 1000;
};

/// Outcome of a grid application run.
struct AppRunResult {
  Status status;
  std::uint64_t app_id = 0;
  std::uint32_t exit_code = 0;
  std::vector<proto::RankPlacement> placements;
};

class ProxyServer {
 public:
  explicit ProxyServer(ProxyConfig config);
  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  const std::string& site() const { return config_.site; }
  SecurityMode mode() const { return config_.mode; }
  const Clock& clock() const { return *config_.clock; }
  /// Sender-window tuning of this proxy's data links.
  const SenderWindowConfig& sender_window_config() const {
    return batch_sender_.window_config();
  }

  // ---- site composition -------------------------------------------------
  /// Registers a node's stats source with the site collector.
  void add_node_stats(monitor::NodeStatsSourcePtr source);

  /// Accepts a node's connection (the proxy side of the link). In
  /// kPerNodeSecurity mode — or when `force_encrypted` — runs the GSSL
  /// server handshake first. Blocks until the node side completes it.
  Status attach_node(const std::string& node_name, net::ChannelPtr channel,
                     bool force_encrypted = false);

  // ---- peering ----------------------------------------------------------
  /// Establishes the GSSL tunnel to another site's proxy and exchanges
  /// Hello. The initiator runs the client handshake. Reconnecting a peer
  /// whose previous link died replaces the dead connection.
  Status connect_peer(const std::string& peer_site, net::ChannelPtr channel,
                      bool initiate);

  std::vector<std::string> peers() const {
    return links_.names(LinkKind::kSite);
  }
  bool peer_alive(const std::string& peer_site) const {
    return links_.live({LinkKind::kSite, peer_site}) != nullptr;
  }
  bool node_alive(const std::string& node) const {
    return links_.live({LinkKind::kNode, node}) != nullptr;
  }

  /// Severs the link to a peer (failure injection). Both ends observe the
  /// closure; pending calls fail with kUnavailable.
  void disconnect_peer(const std::string& peer_site);

  /// Active liveness probe: one Ping/Pong round trip.
  Status ping_peer(const std::string& peer_site,
                   TimeMicros timeout = 5 * kMicrosPerSecond);

  /// Probes every peer; returns the sites that answered.
  std::vector<std::string> alive_peers(
      TimeMicros timeout = 5 * kMicrosPerSecond);

  // ---- layer 2: security -------------------------------------------------
  auth::UserAuthenticator& authenticator() { return authenticator_; }

  /// Authenticates a user at this (their home) proxy.
  proto::AuthResponse login(const proto::AuthRequest& request);

  /// Authenticates against ANOTHER site's proxy through the control
  /// protocol (the user's home site differs from the proxy they reached).
  Result<proto::AuthResponse> login_at(const std::string& site,
                                       const proto::AuthRequest& request);

  // ---- layer 3: grid API -------------------------------------------------
  /// Status of the named sites ("" entry or empty list = every known site,
  /// self included). Remote sites cost one control round trip each — the
  /// distributed-collection property of E4.
  Result<std::vector<proto::StatusReport>> query_status(
      const std::vector<std::string>& sites, BytesView token);

  /// Grid-wide node rows matching the constraints (resource location).
  Result<std::vector<monitor::GridNode>> locate_resources(
      BytesView token, const sched::Constraints& constraints);

  /// This site's own report, no network involved.
  proto::StatusReport local_status();

  /// Push-mode monitoring: broadcasts this site's report to every peer
  /// (the E4 ablation contrasts this with on-demand pull). Returns the
  /// number of peers notified.
  std::size_t push_status_to_peers();

  /// Reports other sites have pushed or that pull queries cached.
  monitor::GridStatusCache& status_cache() { return status_cache_; }

  // ---- sharded proxy tier -------------------------------------------------
  /// Logical site this shard serves ("site1" for shard id "site1#2").
  std::string logical_site() const { return site_of_shard(config_.site); }

  /// Sibling shard ids of this logical site, self excluded.
  std::vector<std::string> shard_siblings() const;

  /// Collector-role lease over this site's shard group: the holder is the
  /// lowest-index alive shard, and the epoch bumps on every handoff so
  /// delayed pre-handoff reports cannot overwrite post-handoff ones.
  monitor::StatusLease& status_lease() { return lease_; }

  /// Merged report for the whole logical site: this shard's own nodes
  /// plus the freshest gossiped partial report of every alive sibling.
  /// Any shard of the group can answer this — the delegation property.
  proto::StatusReport site_status();

  // ---- layer 4: MPI support ----------------------------------------------
  /// Runs a registered application across the grid: authorize, collect
  /// status, schedule, two-phase launch, wait for completion.
  AppRunResult run_app(const std::string& user, BytesView token,
                       const std::string& executable, std::uint32_t ranks,
                       sched::Scheduler& scheduler,
                       const sched::Constraints& constraints = {},
                       TimeMicros timeout = 120 * kMicrosPerSecond);

  // ---- batch jobs ---------------------------------------------------------
  /// Enqueues an application run as an asynchronous batch job (requires
  /// "job.submit"; the run itself still requires "mpi.run"). Returns the
  /// job id immediately.
  Result<std::uint64_t> submit_job(const std::string& user, BytesView token,
                                   const std::string& executable,
                                   std::uint32_t ranks, sched::Policy policy,
                                   const sched::Constraints& constraints = {});

  Result<JobRecord> job_info(std::uint64_t job_id) const;
  Result<JobRecord> wait_job(std::uint64_t job_id,
                             TimeMicros timeout = 120 * kMicrosPerSecond);
  std::vector<JobRecord> jobs() const;

  /// Submits a batch job at ANOTHER site's proxy over the control protocol
  /// (kJobSubmit / kJobAccept). The remote proxy becomes the job's origin;
  /// returns the remote job id.
  Result<std::uint64_t> submit_job_at(const std::string& site,
                                      const std::string& user,
                                      BytesView token,
                                      const std::string& executable,
                                      std::uint32_t ranks,
                                      sched::Policy policy);

  /// Polls a remote job's state (kJobQuery / kJobComplete). The returned
  /// record carries state and outcome (not placements).
  Result<JobRecord> query_job_at(const std::string& site,
                                 std::uint64_t job_id);

  // ---- protocol extension -------------------------------------------------
  /// Handler for an extension op: receives the envelope and the connection
  /// it arrived on (so it can respond, typically with kReply). Runs on the
  /// reactor I/O thread and must not block (see Connection::EnvelopeHandler):
  /// work that waits answers from a continuation or Connection::offload().
  using ExtensionHandler =
      std::function<Status(const proto::Envelope&, Connection&)>;

  /// Registers a handler for an extension op code (>= kExtensionBase).
  Status register_extension(proto::OpCode op, ExtensionHandler handler);

  /// Request/response to a peer proxy — the transport extensions build on.
  Result<proto::Envelope> call_peer(const std::string& site, proto::OpCode op,
                                    BytesView payload,
                                    TimeMicros timeout = 30 * kMicrosPerSecond);
  /// One-way message to a peer proxy.
  Status notify_peer(const std::string& site, proto::OpCode op,
                     BytesView payload);

  // ---- introspection ------------------------------------------------------
  ProxyMetrics metrics() const;
  std::vector<LinkReport> link_report() const { return links_.report(); }
  monitor::SiteCollector& collector() { return collector_; }

  /// True once shutdown() ran (link monitors skip dead proxies).
  bool is_shut_down() const {
    return shut_down_.load(std::memory_order_acquire);
  }

  void shutdown();

 private:
  struct RunState {
    std::set<std::string> pending_sites;
    std::uint32_t exit_code = 0;
    /// Set when a site or node involved in the run died; run_app returns
    /// it (retryable) instead of waiting out the remaining sites.
    Status failure;
    bool done() const { return pending_sites.empty() || !failure.is_ok(); }
  };

  struct AppState {
    AppRouting routing;
    std::string origin_site;  // empty when this proxy is the origin
    std::set<std::string> pending_nodes;
    std::uint32_t exit_code = 0;
  };

  // -- handlers (all run on the reactor I/O thread and none blocks; a
  // peer's login offloads its stretch)
  /// Entry point of every link: the data-plane ops every link carries
  /// alike, then the per-kind control dispatch below.
  void handle_link(const BatchLink& link, const proto::Envelope& envelope,
                   Connection& conn);
  void handle_peer(const proto::Envelope& envelope, Connection& conn);
  void handle_node(const proto::Envelope& envelope, Connection& conn);
  void handle_hello(const proto::Envelope& envelope, Connection& conn);
  void handle_status_query(const proto::Envelope& envelope, Connection& conn);
  void handle_auth_request(const proto::Envelope& envelope, Connection& conn);
  void handle_job_submit(const proto::Envelope& envelope, Connection& conn);
  void handle_job_query(const proto::Envelope& envelope, Connection& conn);
  void handle_mpi_open_from_peer(const proto::Envelope& envelope,
                                 Connection& conn);
  void handle_mpi_start(const proto::Envelope& envelope);
  void handle_mpi_close(const proto::Envelope& envelope);
  void handle_mpi_abort_from_peer(const proto::Envelope& envelope);
  void handle_mpi_batch(const BatchLink& link,
                        const proto::Envelope& envelope);
  void handle_mpi_done_from_node(const proto::Envelope& envelope);
  void handle_mpi_done_from_peer(const proto::Envelope& envelope);
  /// Relays a tunnel op one hop toward its target node, from a node of
  /// this site or from the peer proxy that relayed it here.
  void handle_tunnel(const proto::Envelope& envelope, Connection& conn);
  /// Ingests a kTraceExport: spans of traces this proxy originated land in
  /// the local ring; the rest keep flowing toward their origin through the
  /// trace-route table.
  void handle_trace_export(const proto::Envelope& envelope);

  // -- internals
  /// Sends kMpiOpen to every node of this site hosting ranks, together;
  /// `done` runs with the first failure or after the last ack.
  void open_app_locally(const AppRouting& routing,
                        const std::string& origin_site,
                        std::function<void(const Status&)> done);
  void start_app_locally(std::uint64_t app_id);
  void close_app_locally(std::uint64_t app_id);
  void site_finished(std::uint64_t app_id, const std::string& site,
                     std::uint32_t exit_code);
  /// Fails the run latch with a retryable error; run_app returns it.
  void fail_run(std::uint64_t app_id, const Status& reason);
  /// fail_run() when this proxy originated the app (`origin_site` empty),
  /// else a kMpiAbort telling the origin to fail it.
  void abort_run(std::uint64_t app_id, const std::string& origin_site,
                 const std::string& why);
  tls::GsslConfig gssl_config(const std::string& expected_peer) const;
  /// GSSL handshake on `channel` (client side when `client`), with a
  /// handshake RNG drawn from rng_; counts it in `handshakes`.
  Result<tls::MessageLinkPtr> secure_link(net::Channel& channel,
                                          const std::string& expected_peer,
                                          bool client);

  // -- MPI data plane
  /// The data link that reaches `dst_rank`: its node's link when the rank
  /// runs on this site, its site's link otherwise. Empty when the app or
  /// rank is unknown.
  std::optional<BatchLink> rank_link(std::uint64_t app_id,
                                     std::uint32_t dst_rank);
  /// Routes one (possibly fan-out) frame: one queued frame per hosting
  /// node or peer site, so the payload crosses every link once.
  void route_mpi_frame(proto::MpiFrame frame);

  // -- resilience
  /// One logical request of call_with_retry, carried from attempt to
  /// attempt.
  struct RetryCall;
  /// Retrying request/response against the link's live connection
  /// (re-resolved each attempt so a reconnect is picked up). Per-attempt
  /// deadline from config_.retry, total budget `timeout`; the request id
  /// is reused per connection so retries dedup at the receiver. Attempts
  /// chain through call_async and back off on a reactor timer, so no
  /// thread waits; `done` runs once, on whichever thread ends the chain.
  void call_with_retry(const BatchLink& link, proto::OpCode op,
                       BytesView payload, TimeMicros timeout,
                       Connection::ReplyCallback done);
  void retry_attempt(const std::shared_ptr<RetryCall>& call);
  /// After a transient failure: backs off and tries again, or gives up.
  void retry_failed(const std::shared_ptr<RetryCall>& call);
  void retry_done(const std::shared_ptr<RetryCall>& call,
                  Result<proto::Envelope> result);
  /// Count a retry chain or offloaded login in and out; shutdown() waits
  /// until none is left.
  void begin_task();
  void end_task();
  /// PeerTable down callbacks, after its close accounting (also the
  /// heartbeat verdict path). Purge all state that referenced the peer or
  /// node so nothing waits on a corpse. A remote close runs them on the
  /// reactor I/O thread, so neither waits: they take short locks, fail
  /// runs through runs_cv_ and send only notifies.
  void on_peer_down(const std::string& site, const Status& reason);
  void on_node_down(const std::string& node, const Status& reason);

  // -- shard gossip (sharded proxy tier)
  /// Ingests a sibling's kShardStatus: refreshes its liveness in the
  /// lease, adopts any newer lease epoch, and updates the shard board.
  void handle_shard_status(const proto::Envelope& envelope);
  /// Gossip tick: push this shard's partial report plus the lease epoch to
  /// every connected sibling.
  void shard_gossip_fire();

  // -- span export routing
  /// Remembers `peer` as the next hop toward `trace_id`'s origin (only for
  /// traces this process did not originate). Bounded FIFO table.
  void record_trace_route(std::uint64_t trace_id, const std::string& peer);
  /// Next hop toward the trace's origin; empty when unknown.
  std::string trace_route(std::uint64_t trace_id) const;

  Status dispatch_extension(const proto::Envelope& envelope, Connection& conn);

  ProxyConfig config_;
  // Resumption state shared by every tunnel: the keeper opens/issues
  // tickets sealed under the realm ticket key (so any proxy of the realm
  // accepts any proxy's tickets), the store caches tickets for peers this
  // proxy dials. See tls/resumption.hpp.
  mutable tls::ResumptionKeeper resumption_keeper_;
  mutable tls::ResumptionStore resumption_store_;
  auth::UserAuthenticator authenticator_;
  monitor::SiteCollector collector_;
  monitor::GridStatusCache status_cache_;
  /// Collector lease over this site's shard group (trivial at shards==1:
  /// self is the only member and always holds).
  monitor::StatusLease lease_;
  /// Freshest kShardStatus partial report per sibling shard, ordered by
  /// lease epoch then receive time.
  monitor::GridStatusCache shard_board_;
  mutable std::mutex extensions_mutex_;
  std::map<proto::OpCode, ExtensionHandler> extensions_;
  Rng rng_;
  mutable std::mutex rng_mutex_;

  mutable std::mutex apps_mutex_;
  std::condition_variable runs_cv_;
  std::map<std::uint64_t, AppState> apps_;
  std::map<std::uint64_t, RunState> runs_;
  std::atomic<std::uint64_t> next_app_id_;

  // Pool for batch-job execution (size config_.job_workers). Jobs occupy a
  // thread for their whole run.
  ThreadPool job_workers_;
  JobManager job_manager_;

  // Open tunnels this proxy relays (tunnel id -> original open request).
  mutable std::mutex tunnels_mutex_;
  std::map<std::uint64_t, proto::TunnelOpen> tunnels_;

  // Registry-backed counters/histograms, labelled with this proxy's site.
  ProxyInstruments instruments_;

  // Every peer-site and node connection, with heartbeat liveness of the
  // site links (a reactor timer, armed only when heartbeat_interval > 0).
  PeerTable links_;

  // Reliable kMpiBatch streams: one queue and sender window per outgoing
  // link (peer sites and this site's nodes), and dedup + acks for arriving
  // batches.
  ReliableBatchSender batch_sender_;
  ReliableBatchReceiver batch_receiver_;

  // Next hop toward each foreign trace's origin, learned from the peer an
  // envelope carrying that trace arrived on (bounded FIFO).
  mutable std::mutex trace_routes_mutex_;
  std::unordered_map<std::uint64_t, std::string> trace_routes_;
  std::deque<std::uint64_t> trace_routes_order_;

  // Retry chains and offloaded logins not finished yet. shutdown() waits
  // for none, so no continuation, backoff timer or login outlives the
  // proxy.
  std::mutex tasks_mutex_;
  std::condition_variable tasks_idle_;
  std::size_t tasks_in_flight_ = 0;

  std::atomic<bool> shut_down_{false};

  // Shard gossip ticks (armed only when shards > 1); last, so every member
  // a tick reads exists first.
  net::PeriodicTimer shard_gossip_;
};

using ProxyServerPtr = std::unique_ptr<ProxyServer>;

}  // namespace pg::proxy
