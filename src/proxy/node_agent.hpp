// NodeAgent — the station-side half of the architecture.
//
// The paper's deployment promise is that nodes need almost nothing
// installed: "apart from the MPI and the introduction of a proxy server at
// the sites, the installation of an additional module at the client is
// unnecessary." The NodeAgent is exactly that thin client piece: it holds
// the node's single connection to its site proxy, hosts the MPI ranks
// placed on the node (threads in this reproduction), and exposes local
// services reachable through proxy tunnels.
//
// By default its link to the proxy is plaintext (intra-site traffic is
// trusted); in the per-node-security baseline, or on explicit request, the
// link runs GSSL — which is how experiment E2 contrasts the two designs.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_cache.hpp"
#include "mpi/fabric.hpp"
#include "mpi/runtime.hpp"
#include "net/channel.hpp"
#include "proxy/app_routing.hpp"
#include "proxy/connection.hpp"
#include "proxy/reliable_batch.hpp"
#include "tls/gssl.hpp"

namespace pg::proxy {

struct NodeAgentConfig {
  std::string node_name;
  std::string site;
  /// Encrypt the node<->proxy link (per-node-security mode, or the paper's
  /// "explicit call" for a safe channel).
  bool encrypted = false;
  /// Required when `encrypted`: this node's identity and trust anchors.
  tls::GsslConfig gssl;
  const Clock* clock = nullptr;  // required when `encrypted`
  std::uint64_t rng_seed = 0;
  /// Retransmission and congestion tuning for batches this node originates;
  /// the grid builder copies it from the node's proxy.
  SenderWindowConfig window;
};

/// A local service reachable from remote nodes through proxy tunnels. It
/// runs on a ThreadCache thread and may block; calls through different
/// tunnels may run at the same time.
using ServiceHandler = std::function<Bytes(BytesView request)>;

class NodeAgent {
 public:
  /// Takes ownership of the channel to the proxy; runs the client-side GSSL
  /// handshake first when encrypted (blocks until the proxy side runs the
  /// matching accept).
  static Result<std::unique_ptr<NodeAgent>> create(NodeAgentConfig config,
                                                   net::ChannelPtr channel);

  ~NodeAgent();

  const std::string& name() const { return config_.node_name; }
  bool link_encrypted() const { return connection_->is_encrypted(); }
  tls::LinkStats link_stats() const { return connection_->link_stats(); }

  /// Registers a service that tunnel traffic can reach.
  void register_service(const std::string& service, ServiceHandler handler);

  /// Calls `service` on `node` at `site`, tunneled through the proxies
  /// (paper §3 explicit secure channel).
  Result<Bytes> call_service(const std::string& site, const std::string& node,
                             const std::string& service, BytesView request,
                             TimeMicros timeout = 30 * kMicrosPerSecond);

  /// Liveness check against the proxy.
  Status ping(TimeMicros timeout = 5 * kMicrosPerSecond);

  /// Waits for every application runner, closes the proxy link and waits
  /// for the app cleanups that were waiting on runners and for the
  /// service calls still running.
  void shutdown();

 private:
  NodeAgent(NodeAgentConfig config);

  // Per-application state on this node.
  struct App;
  /// Fabric adapter handed to this node's ranks for one application.
  class AppFabric;

  void handle(const proto::Envelope& envelope, Connection& conn);
  void handle_mpi_open(const proto::Envelope& envelope, Connection& conn);
  void handle_mpi_start(const proto::Envelope& envelope);
  void handle_mpi_batch(const proto::Envelope& envelope);
  void handle_mpi_batch_ack(const proto::Envelope& envelope);
  void handle_mpi_close(const proto::Envelope& envelope);
  void handle_tunnel_open(const proto::Envelope& envelope, Connection& conn);
  void handle_tunnel_data(const proto::Envelope& envelope, Connection& conn);
  void handle_tunnel_close(const proto::Envelope& envelope);

  /// Runs `cleanup` (may be empty) once `runner` has finished: right away
  /// when it already has, else on a cached thread, so a handler on the I/O
  /// thread never waits for a runner. shutdown() waits for deferred ones.
  void after_runner(const ThreadCache::Handle& runner,
                    std::function<void()> cleanup);
  /// Adds a handed-off task to the ones shutdown() waits for.
  void track(ThreadCache::Handle task);
  /// Stops retrying the app's unacked frames.
  void drop_app_frames(std::uint64_t app_id);

  Status fabric_send(std::uint64_t app_id, const mpi::MpiMessage& message);
  Status fabric_multicast(std::uint64_t app_id, const mpi::MpiMessage& message,
                          const std::vector<std::uint32_t>& dst_ranks);
  Status fabric_send_batch(std::uint64_t app_id,
                           const std::vector<mpi::MpiMessage>& messages);
  /// Queues originated frames on the proxy link, together: an idle link
  /// carries them in one envelope.
  Status send_batch(std::vector<proto::MpiFrame> frames);
  /// The one data link: this node's connection to its site proxy.
  BatchLink proxy_link() const { return {LinkKind::kSite, config_.site}; }

  NodeAgentConfig config_;
  /// Ticket cache for this agent's own dials: a re-created agent config can
  /// point at an external store, but by default each agent caches the ticket
  /// the proxy issued so its next dial resumes without RSA work.
  tls::ResumptionStore resumption_store_;
  ConnectionPtr connection_;

  /// Batches this node originates (origin "<site>/<node>", one link: the
  /// proxy) and batches the proxy pushes down (intra-site links can
  /// duplicate frames under fault injection).
  ReliableBatchSender batch_sender_;
  ReliableBatchReceiver batch_receiver_;

  std::mutex apps_mutex_;
  std::map<std::uint64_t, std::shared_ptr<App>> apps_;

  std::mutex cleanups_mutex_;
  // Deferred by after_runner, and offloaded service calls.
  std::vector<ThreadCache::Handle> cleanups_;

  std::mutex services_mutex_;
  std::map<std::string, ServiceHandler> services_;
  std::map<std::uint64_t, std::string> open_tunnels_;  // tunnel -> service

  std::atomic<std::uint64_t> next_tunnel_id_;
};

using NodeAgentPtr = std::unique_ptr<NodeAgent>;

}  // namespace pg::proxy
