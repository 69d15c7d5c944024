// Grid facade: builds a complete multi-site proxy grid in one process —
// CA, proxy per site, node agents, the full GSSL peer mesh — and exposes
// the user-level operations the paper's middleware offers, plus failure
// injection and the traffic accounting the experiments read.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "crypto/cert.hpp"
#include "monitor/stats_source.hpp"
#include "net/faulty_channel.hpp"
#include "net/reactor.hpp"
#include "proxy/node_agent.hpp"
#include "proxy/proxy_server.hpp"
#include "proxy/resilience.hpp"
#include "sched/scheduler.hpp"

namespace pg::grid {

enum class SchedulerPolicy { kRoundRobin, kLoadBalanced };

/// Declarative multi-site topology — the seam the scenario harness
/// (src/scenario) uses to stand up a real grid from a parsed scenario
/// config instead of hand-written add_site/add_node call chains.
struct TopologySpec {
  struct Site {
    std::string name;
    std::vector<monitor::NodeProfile> nodes;
    /// Proxy shards serving this site (consistent-hash scale-out).
    std::uint32_t shards = 1;
  };
  std::vector<Site> sites;
};

/// One scripted fault, the live-grid counterpart of a scenario timeline
/// entry. Applied through Grid::apply_fault so a scripted run and a test
/// share one control surface.
struct FaultCommand {
  enum class Op { kKillNode, kKillProxy, kKillLink, kHealLink };
  Op op = Op::kKillLink;
  std::string site;    // kKillNode / kKillProxy target; link endpoint A
  std::string peer;    // link endpoint B
  std::string node;    // kKillNode target
};

/// Traffic totals split the way the E2/E3 analysis needs them.
struct TrafficReport {
  struct PerClass {
    std::uint64_t messages = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t crypto_bytes = 0;     // bytes that passed through a cipher
    std::uint64_t handshake_bytes = 0;
  };
  PerClass inter_site;   // proxy <-> proxy
  PerClass intra_site;   // proxy <-> node (both directions)
  std::uint64_t handshakes = 0;
  std::uint64_t control_calls = 0;
  std::uint64_t control_notifies = 0;
};

class Grid;

class GridBuilder {
 public:
  GridBuilder& seed(std::uint64_t seed);
  GridBuilder& key_bits(std::size_t bits);  // RSA size (default 768)
  GridBuilder& security_mode(proxy::SecurityMode mode);

  GridBuilder& add_site(const std::string& site);
  /// Adds a site served by `shards` proxy shards behind a consistent-hash
  /// ring: nodes home onto shards by ring placement, shards gossip status
  /// to each other, and shard death re-homes the lost nodes onto the
  /// survivors (docs/PROTOCOL.md, "Sharded proxy tier").
  GridBuilder& add_site(const std::string& site, std::uint32_t shards);
  /// Adds a node to `site`. `explicit_secure` forces GSSL on this node's
  /// link even in proxy-tunneling mode (the paper's "explicit call").
  GridBuilder& add_node(const std::string& site,
                        monitor::NodeProfile profile,
                        bool explicit_secure = false);
  /// Convenience: n identical nodes named node0..node{n-1}.
  GridBuilder& add_nodes(const std::string& site, std::size_t count,
                         double cpu_capacity = 1.0);

  /// Adds every site and node of `spec` (scenario-config entry point).
  GridBuilder& topology(const TopologySpec& spec);

  /// Registers a user (password + grants) at every site's proxy.
  GridBuilder& add_user(const std::string& user, const std::string& password,
                        const std::vector<std::string>& permissions);

  /// Wraps every link (inter-site and proxy<->node) in a FaultyChannel.
  /// The injectors start with all faults off; chaos tests fetch them via
  /// Grid::inter_site_injector()/intra_site_injector() and set policies
  /// once the grid is up (faults during build would break handshakes).
  GridBuilder& fault_injection(bool enabled = true);

  /// Called on each site's ProxyConfig after the builder fills in the
  /// defaults and before the ProxyServer is created — the knob for
  /// heartbeat intervals, retry policy, and job attempt limits in tests.
  GridBuilder& configure_proxy(std::function<void(proxy::ProxyConfig&)> hook);

  /// Starts a monitor (a reactor timer) that watches every inter-site link
  /// and re-establishes purged ones automatically (fresh channel + GSSL
  /// handshake) with exponential backoff from `policy`. Turns
  /// Grid::reconnect_link from a manual/test-only recovery call into a
  /// self-healing loop. `poll_interval` bounds detection latency.
  GridBuilder& auto_reconnect(bool enabled = true,
                              proxy::RetryPolicy policy = {},
                              TimeMicros poll_interval = 50'000);

  /// Builds and starts the grid: issues certificates, connects the full
  /// proxy mesh, attaches every node.
  Result<std::unique_ptr<Grid>> build();

 private:
  friend class Grid;
  struct NodeSpec {
    monitor::NodeProfile profile;
    bool explicit_secure = false;
  };
  struct UserSpec {
    std::string password;
    std::vector<std::string> permissions;
  };

  std::uint64_t seed_ = 42;
  std::size_t key_bits_ = 768;
  proxy::SecurityMode mode_ = proxy::SecurityMode::kProxyTunneling;
  bool fault_injection_ = false;
  bool auto_reconnect_ = false;
  proxy::RetryPolicy reconnect_policy_;
  TimeMicros reconnect_poll_interval_ = 50'000;
  std::function<void(proxy::ProxyConfig&)> configure_proxy_;
  std::vector<std::string> site_order_;
  std::map<std::string, std::vector<NodeSpec>> sites_;
  std::map<std::string, std::uint32_t> shard_counts_;
  std::map<std::string, UserSpec> users_;
};

class Grid {
 public:
  ~Grid();
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Every proxy id in the grid. For a sharded site that is one entry per
  /// shard ("site1", "site1#1", ...); shard 0's id is the bare site name,
  /// so unsharded callers see exactly the old list.
  std::vector<std::string> sites() const;
  proxy::ProxyServer& proxy(const std::string& site);
  proxy::NodeAgent& node_agent(const std::string& site,
                               const std::string& node);
  const Clock& clock() const { return clock_; }

  // ---- sharded proxy tier
  /// Shard ids of `site` still standing (index order, dead ones removed).
  std::vector<std::string> site_shards(const std::string& site) const;
  /// Ring owner of `key` among `site`'s surviving shards; for unsharded
  /// sites this is just the site itself. Empty when the site is dark.
  std::string shard_for(const std::string& site, const std::string& key) const;
  /// Merged whole-site report answered by the first live shard (any shard
  /// can answer — the gossip/delegation property).
  Result<proto::StatusReport> site_status(const std::string& site);

  // ---- user-level grid API (the "command line / web access" layer uses
  // these; see grid/cli.hpp)
  /// Password login at the user's home site. Returns the session ticket.
  Result<Bytes> login(const std::string& site, const std::string& user,
                      const std::string& password);

  Result<std::vector<proto::StatusReport>> status(
      const std::string& origin_site, BytesView token,
      const std::vector<std::string>& sites = {});

  proxy::AppRunResult run_app(const std::string& origin_site,
                              const std::string& user, BytesView token,
                              const std::string& executable,
                              std::uint32_t ranks, SchedulerPolicy policy,
                              const sched::Constraints& constraints = {});

  // ---- failure injection (experiment E7)
  /// Severs the inter-site link between two proxies.
  void kill_link(const std::string& site_a, const std::string& site_b);
  /// Takes a whole proxy down (all its links die).
  void kill_proxy(const std::string& site);
  /// Takes one node down.
  void kill_node(const std::string& site, const std::string& node);

  /// Re-establishes the inter-site link after kill_link: fresh channel,
  /// fresh GSSL handshake (recovery path for E7). Fault injection, when
  /// enabled, also wraps the fresh link (same shared injector).
  Status reconnect_link(const std::string& site_a, const std::string& site_b);

  /// Scripted fault control: dispatches a FaultCommand to the matching
  /// kill/reconnect call above. kInvalidArgument for unknown targets.
  Status apply_fault(const FaultCommand& command);

  // ---- chaos harness (null unless built with fault_injection())
  /// Shared fault source for every inter-site link. The initiating side of
  /// each pair (earlier site in add_site order) is the kForward direction.
  net::FaultInjectorPtr inter_site_injector() const { return inter_injector_; }
  /// Shared fault source for every proxy<->node link; the proxy side is
  /// the kForward direction.
  net::FaultInjectorPtr intra_site_injector() const { return intra_injector_; }

  // ---- experiment accounting
  TrafficReport traffic_report() const;

  void shutdown();

 private:
  friend class GridBuilder;
  Grid() = default;

  /// Monitor ticks, on the ThreadCache (net::PeriodicTimer; they block on
  /// handshakes). Each timer runs its ticks one at a time.
  void reconnect_tick();
  void rehome_tick();
  /// Removes `dead` from `site`'s ring and re-attaches every node it
  /// owned to that node's new ring owner (fresh channel + agent).
  void rehome_shard(const std::string& site, const std::string& dead);
  /// Attaches one node to `shard` (stats source, channel, agent) and
  /// records its home. Used by build() and by shard-death re-homing.
  Status home_node(const std::string& site, const std::string& shard,
                   const GridBuilder::NodeSpec& spec, Rng& rng);

  WallClock clock_;
  std::unique_ptr<crypto::CertificateAuthority> ca_;
  net::FaultInjectorPtr inter_injector_;
  net::FaultInjectorPtr intra_injector_;
  std::map<std::string, proxy::ProxyServerPtr> proxies_;
  /// Node agents keyed by LOGICAL site (rehoming moves a node between
  /// shards without changing its `node_agent(site, node)` address).
  std::map<std::string, std::map<std::string, proxy::NodeAgentPtr>> agents_;
  bool shut_down_ = false;

  // ---- sharded proxy tier (populated only when some site has shards > 1)
  bool sharded_ = false;
  mutable std::mutex rings_mutex_;
  /// Per sharded site: the consistent-hash ring over surviving shards.
  std::map<std::string, proxy::ShardRing> rings_;
  /// Per logical site: node -> shard id currently homing it.
  std::map<std::string, std::map<std::string, std::string>> node_home_;
  /// Per logical site: node -> profile/security, kept for re-homing.
  std::map<std::string, std::map<std::string, GridBuilder::NodeSpec>>
      node_specs_;
  Rng rehome_rng_{0};
  std::size_t key_bits_ = 768;
  proxy::SecurityMode mode_ = proxy::SecurityMode::kProxyTunneling;
  TimeMicros cert_not_before_ = 0;
  TimeMicros cert_not_after_ = 0;
  TimeMicros rehome_poll_interval_ = 20'000;
  std::optional<net::PeriodicTimer> rehome_timer_;

  // ---- auto-reconnect monitor (opt-in via GridBuilder::auto_reconnect)
  bool auto_reconnect_ = false;
  proxy::RetryPolicy reconnect_policy_;
  TimeMicros reconnect_poll_interval_ = 50'000;
  /// Per-pair consecutive-failure count and next allowed attempt; touched
  /// by reconnect ticks only.
  struct PairState {
    std::uint32_t attempt = 0;
    TimeMicros next_due = 0;
  };
  std::map<std::pair<std::string, std::string>, PairState> reconnect_state_;
  std::optional<net::PeriodicTimer> reconnect_timer_;
};

}  // namespace pg::grid
