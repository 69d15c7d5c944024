#include "grid/grid.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "net/memory_channel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pg::grid {

// --------------------------------------------------------------- builder

GridBuilder& GridBuilder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

GridBuilder& GridBuilder::key_bits(std::size_t bits) {
  key_bits_ = bits;
  return *this;
}

GridBuilder& GridBuilder::security_mode(proxy::SecurityMode mode) {
  mode_ = mode;
  return *this;
}

GridBuilder& GridBuilder::add_site(const std::string& site) {
  if (sites_.count(site) == 0) {
    sites_[site];
    site_order_.push_back(site);
  }
  return *this;
}

GridBuilder& GridBuilder::add_site(const std::string& site,
                                   std::uint32_t shards) {
  add_site(site);
  shard_counts_[site] = std::max<std::uint32_t>(1, shards);
  return *this;
}

GridBuilder& GridBuilder::add_node(const std::string& site,
                                   monitor::NodeProfile profile,
                                   bool explicit_secure) {
  add_site(site);
  sites_[site].push_back(NodeSpec{std::move(profile), explicit_secure});
  return *this;
}

GridBuilder& GridBuilder::add_nodes(const std::string& site, std::size_t count,
                                    double cpu_capacity) {
  for (std::size_t i = 0; i < count; ++i) {
    monitor::NodeProfile profile;
    profile.name = "node" + std::to_string(i);
    profile.cpu_capacity = cpu_capacity;
    add_node(site, std::move(profile));
  }
  return *this;
}

GridBuilder& GridBuilder::topology(const TopologySpec& spec) {
  for (const TopologySpec::Site& site : spec.sites) {
    add_site(site.name, site.shards);
    for (const monitor::NodeProfile& node : site.nodes) {
      add_node(site.name, node);
    }
  }
  return *this;
}

GridBuilder& GridBuilder::add_user(const std::string& user,
                                   const std::string& password,
                                   const std::vector<std::string>& permissions) {
  users_[user] = UserSpec{password, permissions};
  return *this;
}

GridBuilder& GridBuilder::fault_injection(bool enabled) {
  fault_injection_ = enabled;
  return *this;
}

GridBuilder& GridBuilder::configure_proxy(
    std::function<void(proxy::ProxyConfig&)> hook) {
  configure_proxy_ = std::move(hook);
  return *this;
}

GridBuilder& GridBuilder::auto_reconnect(bool enabled,
                                         proxy::RetryPolicy policy,
                                         TimeMicros poll_interval) {
  auto_reconnect_ = enabled;
  reconnect_policy_ = policy;
  reconnect_poll_interval_ = poll_interval;
  return *this;
}

Result<std::unique_ptr<Grid>> GridBuilder::build() {
  if (sites_.empty())
    return error(ErrorCode::kInvalidArgument, "grid needs at least one site");

  std::unique_ptr<Grid> grid(new Grid());
  Rng rng(seed_);

  // One CA for the whole grid (paper §3 recommends exactly this).
  grid->ca_ = std::make_unique<crypto::CertificateAuthority>("grid-ca",
                                                             key_bits_, rng);
  const TimeMicros now = grid->clock_.now();
  const TimeMicros not_before = now - 60 * kMicrosPerSecond;
  const TimeMicros not_after = now + 365LL * 24 * 3600 * kMicrosPerSecond;

  // Kerberos-style realm key shared by every proxy, so any proxy verifies
  // any ticket.
  const Bytes realm_key = rng.next_bytes(32);

  if (fault_injection_) {
    grid->inter_injector_ =
        std::make_shared<net::FaultInjector>(rng.next_u64());
    grid->intra_injector_ =
        std::make_shared<net::FaultInjector>(rng.next_u64());
  }

  // Settings re-homing needs later (and home_node() below needs now).
  grid->key_bits_ = key_bits_;
  grid->mode_ = mode_;
  grid->cert_not_before_ = not_before;
  grid->cert_not_after_ = not_after;

  // Expand each site into its proxy shards. Shard 0's id is the bare site
  // name, so an unsharded grid builds byte-for-byte as before (same ids,
  // same rng draw order).
  std::vector<std::string> proxy_order;
  for (const auto& site : site_order_) {
    const auto count_it = shard_counts_.find(site);
    const std::uint32_t shard_count =
        count_it == shard_counts_.end() ? 1 : count_it->second;
    for (std::uint32_t index = 0; index < shard_count; ++index)
      proxy_order.push_back(proxy::shard_name(site, index));
    if (shard_count > 1) {
      grid->sharded_ = true;
      grid->rings_.emplace(site,
                           proxy::ShardRing::for_site(site, shard_count));
    }
  }

  // Proxies — one per shard. Each shard's data-plane knobs are remembered
  // so the node agents below mirror them — a tracking sender whose
  // receiver never acks would retransmit forever.
  for (const auto& shard : proxy_order) {
    const crypto::RsaKeyPair keys = crypto::rsa_generate(key_bits_, rng);
    proxy::ProxyConfig config;
    config.site = shard;
    const auto count_it = shard_counts_.find(proxy::site_of_shard(shard));
    config.shards = count_it == shard_counts_.end() ? 1 : count_it->second;
    config.identity = tls::GsslIdentity{
        grid->ca_->issue("proxy." + shard, keys.pub, not_before, not_after),
        keys.priv};
    config.ca_name = grid->ca_->name();
    config.ca_key = grid->ca_->public_key();
    config.ticket_key = realm_key;
    config.clock = &grid->clock_;
    config.rng_seed = rng.next_u64();
    config.mode = mode_;
    if (configure_proxy_) configure_proxy_(config);
    grid->proxies_[shard] =
        std::make_unique<proxy::ProxyServer>(std::move(config));
  }

  // Full mesh of inter-proxy tunnels. Each pair's two handshake halves
  // must run concurrently (they block on each other), and the pairs are
  // independent of one another — so the S²/2 handshakes dispatch across a
  // bounded worker pool instead of running one pair at a time. Channel
  // construction stays sequential so fault-injector wiring and builder rng
  // draws remain deterministic.
  {
    struct TunnelTask {
      std::string a, b;
      net::ChannelPtr end_a, end_b;
      Status initiate_status, accept_status;
    };
    std::vector<TunnelTask> tunnels;
    for (std::size_t i = 0; i < proxy_order.size(); ++i) {
      for (std::size_t j = i + 1; j < proxy_order.size(); ++j) {
        TunnelTask task;
        task.a = proxy_order[i];
        task.b = proxy_order[j];
        net::ChannelPair pair = net::make_memory_channel_pair();
        task.end_a = std::move(pair.a);
        task.end_b = std::move(pair.b);
        if (grid->inter_injector_) {
          task.end_a = net::make_faulty_channel(std::move(task.end_a),
                                                grid->inter_injector_,
                                                net::FaultDirection::kForward);
          task.end_b = net::make_faulty_channel(std::move(task.end_b),
                                                grid->inter_injector_,
                                                net::FaultDirection::kReverse);
        }
        tunnels.push_back(std::move(task));
      }
    }

    const std::size_t workers = std::min<std::size_t>(
        std::max<std::size_t>(std::thread::hardware_concurrency(), 2), 8);
    ThreadPool pool(std::min(workers, std::max<std::size_t>(tunnels.size(), 1)));
    for (TunnelTask& task : tunnels) {
      pool.submit([&grid, &task] {
        // The accepting half gets its own thread so both halves of this
        // pair progress; the pool slot runs the initiating half inline
        // (never a slot waiting on another queued task — no deadlock).
        std::thread acceptor([&] {
          task.accept_status = grid->proxies_.at(task.b)->connect_peer(
              task.a, std::move(task.end_b), false);
        });
        task.initiate_status = grid->proxies_.at(task.a)->connect_peer(
            task.b, std::move(task.end_a), true);
        acceptor.join();
      });
    }
    pool.shutdown();
    for (const TunnelTask& task : tunnels) {
      PG_RETURN_IF_ERROR(task.initiate_status);
      PG_RETURN_IF_ERROR(task.accept_status);
    }
  }

  // Nodes: each homes onto its site's ring owner (the site itself when
  // unsharded) — stats source at that shard, agent on the node, one
  // channel each.
  for (const auto& site : site_order_) {
    for (const NodeSpec& spec : sites_[site]) {
      const auto ring_it = grid->rings_.find(site);
      const std::string owner = ring_it == grid->rings_.end()
                                    ? site
                                    : ring_it->second.owner(spec.profile.name);
      grid->node_specs_[site][spec.profile.name] = spec;
      PG_RETURN_IF_ERROR(grid->home_node(site, owner, spec, rng));
    }
  }

  // Users replicated at every proxy shard (one administrative realm).
  for (const auto& shard : proxy_order) {
    auth::UserAuthenticator& auth = grid->proxies_[shard]->authenticator();
    for (const auto& [user, spec] : users_) {
      Rng pw_rng(rng.next_u64());
      auth.passwords().set_password(user, spec.password, pw_rng);
      for (const auto& permission : spec.permissions) {
        auth.acl().grant_user(user, permission);
      }
    }
  }

  if (grid->sharded_) {
    // Drawn last so an unsharded build's draw sequence stays untouched.
    grid->rehome_rng_ = Rng(rng.next_u64());
    Grid* raw = grid.get();
    grid->rehome_timer_.emplace(grid->rehome_poll_interval_,
                                [raw] { raw->rehome_tick(); });
  }

  if (auto_reconnect_) {
    grid->auto_reconnect_ = true;
    grid->reconnect_policy_ = reconnect_policy_;
    grid->reconnect_poll_interval_ = reconnect_poll_interval_;
    Grid* raw = grid.get();
    grid->reconnect_timer_.emplace(grid->reconnect_poll_interval_,
                                   [raw] { raw->reconnect_tick(); });
  }

  return grid;
}

Status Grid::home_node(const std::string& site, const std::string& shard,
                       const GridBuilder::NodeSpec& spec, Rng& rng) {
  const auto proxy_it = proxies_.find(shard);
  if (proxy_it == proxies_.end())
    return error(ErrorCode::kNotFound, "no shard " + shard);
  proxy::ProxyServer& proxy_server = *proxy_it->second;
  proxy_server.add_node_stats(std::make_unique<monitor::SyntheticStatsSource>(
      spec.profile, rng.next_u64()));

  const bool encrypted =
      spec.explicit_secure || mode_ == proxy::SecurityMode::kPerNodeSecurity;

  proxy::NodeAgentConfig agent_config;
  agent_config.node_name = spec.profile.name;
  agent_config.site = shard;
  agent_config.encrypted = encrypted;
  agent_config.clock = &clock_;
  agent_config.rng_seed = rng.next_u64();
  // The node's sender window mirrors its proxy's links.
  agent_config.window = proxy_server.sender_window_config();
  if (encrypted) {
    const crypto::RsaKeyPair keys = crypto::rsa_generate(key_bits_, rng);
    agent_config.gssl = tls::GsslConfig{
        tls::GsslIdentity{
            ca_->issue("node." + shard + "." + spec.profile.name, keys.pub,
                       cert_not_before_, cert_not_after_),
            keys.priv},
        ca_->name(), ca_->public_key(),
        /*expected_peer=*/"proxy." + shard};
  }

  net::ChannelPair pair = net::make_memory_channel_pair();
  net::ChannelPtr proxy_end = std::move(pair.a);
  net::ChannelPtr node_end = std::move(pair.b);
  if (intra_injector_) {
    proxy_end = net::make_faulty_channel(std::move(proxy_end),
                                         intra_injector_,
                                         net::FaultDirection::kForward);
    node_end = net::make_faulty_channel(std::move(node_end),
                                        intra_injector_,
                                        net::FaultDirection::kReverse);
  }
  Status attach_status;
  std::thread attacher([&] {
    attach_status = proxy_server.attach_node(
        spec.profile.name, std::move(proxy_end), spec.explicit_secure);
  });
  Result<proxy::NodeAgentPtr> agent =
      proxy::NodeAgent::create(std::move(agent_config), std::move(node_end));
  attacher.join();
  PG_RETURN_IF_ERROR(attach_status);
  if (!agent.is_ok()) return agent.status();
  agents_[site][spec.profile.name] = agent.take();
  node_home_[site][spec.profile.name] = shard;
  return Status::ok();
}

// ------------------------------------------------------------------ grid

Grid::~Grid() { shutdown(); }

std::vector<std::string> Grid::sites() const {
  std::vector<std::string> out;
  out.reserve(proxies_.size());
  for (const auto& [site, p] : proxies_) out.push_back(site);
  return out;
}

proxy::ProxyServer& Grid::proxy(const std::string& site) {
  return *proxies_.at(site);
}

proxy::NodeAgent& Grid::node_agent(const std::string& site,
                                   const std::string& node) {
  return *agents_.at(site).at(node);
}

std::vector<std::string> Grid::site_shards(const std::string& site) const {
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    const auto it = rings_.find(site);
    if (it != rings_.end()) return it->second.members();
  }
  if (proxies_.count(site) > 0) return {site};
  return {};
}

std::string Grid::shard_for(const std::string& site,
                            const std::string& key) const {
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    const auto it = rings_.find(site);
    if (it != rings_.end()) return it->second.owner(key);
  }
  return proxies_.count(site) > 0 ? site : std::string();
}

Result<proto::StatusReport> Grid::site_status(const std::string& site) {
  for (const auto& shard : site_shards(site)) {
    const auto it = proxies_.find(shard);
    if (it == proxies_.end() || it->second->is_shut_down()) continue;
    return it->second->site_status();
  }
  return error(ErrorCode::kUnavailable, "no live shard for site " + site);
}

Result<Bytes> Grid::login(const std::string& site, const std::string& user,
                          const std::string& password) {
  telemetry::Span span =
      telemetry::Tracer::global().start_span("grid.login", site);
  span.set_note(user + "@" + site);
  const auto it = proxies_.find(site);
  if (it == proxies_.end()) {
    span.set_ok(false);
    return error(ErrorCode::kNotFound, "no site " + site);
  }
  proto::AuthRequest request;
  request.user = user;
  request.method = proto::AuthMethod::kPassword;
  request.credential = to_bytes(password);
  const proto::AuthResponse response = it->second->login(request);
  span.set_ok(response.ok);
  if (!response.ok)
    return error(ErrorCode::kUnauthenticated, response.reason);
  return response.token;
}

Result<std::vector<proto::StatusReport>> Grid::status(
    const std::string& origin_site, BytesView token,
    const std::vector<std::string>& sites) {
  const auto it = proxies_.find(origin_site);
  if (it == proxies_.end())
    return error(ErrorCode::kNotFound, "no site " + origin_site);
  return it->second->query_status(sites, token);
}

proxy::AppRunResult Grid::run_app(const std::string& origin_site,
                                  const std::string& user, BytesView token,
                                  const std::string& executable,
                                  std::uint32_t ranks, SchedulerPolicy policy,
                                  const sched::Constraints& constraints) {
  proxy::AppRunResult result;
  const auto it = proxies_.find(origin_site);
  if (it == proxies_.end()) {
    result.status = error(ErrorCode::kNotFound, "no site " + origin_site);
    return result;
  }
  sched::SchedulerPtr scheduler =
      policy == SchedulerPolicy::kRoundRobin
          ? sched::make_round_robin_scheduler()
          : sched::make_load_balanced_scheduler();
  return it->second->run_app(user, token, executable, ranks, *scheduler,
                             constraints);
}

void Grid::kill_link(const std::string& site_a, const std::string& site_b) {
  const auto it = proxies_.find(site_a);
  if (it != proxies_.end()) it->second->disconnect_peer(site_b);
}

void Grid::kill_proxy(const std::string& site) {
  const auto it = proxies_.find(site);
  if (it != proxies_.end()) it->second->shutdown();
}

void Grid::kill_node(const std::string& site, const std::string& node) {
  const auto site_it = agents_.find(site);
  if (site_it == agents_.end()) return;
  const auto node_it = site_it->second.find(node);
  if (node_it == site_it->second.end()) return;
  node_it->second->shutdown();
  // The proxy learns of the death asynchronously (its reader observes EOF).
  // Wait for its view to settle so the node is already gone from status
  // reports and scheduling when this returns.
  const auto proxy_it = proxies_.find(site);
  if (proxy_it == proxies_.end()) return;
  for (int i = 0; i < 500 && proxy_it->second->node_alive(node); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status Grid::apply_fault(const FaultCommand& command) {
  const auto known = [this](const std::string& site) {
    return proxies_.count(site) > 0;
  };
  switch (command.op) {
    case FaultCommand::Op::kKillNode: {
      const auto site_it = agents_.find(command.site);
      if (site_it == agents_.end() ||
          site_it->second.count(command.node) == 0)
        return error(ErrorCode::kInvalidArgument,
                     "no node " + command.site + "/" + command.node);
      kill_node(command.site, command.node);
      return Status::ok();
    }
    case FaultCommand::Op::kKillProxy:
      if (!known(command.site))
        return error(ErrorCode::kInvalidArgument, "no site " + command.site);
      kill_proxy(command.site);
      return Status::ok();
    case FaultCommand::Op::kKillLink:
      if (!known(command.site) || !known(command.peer))
        return error(ErrorCode::kInvalidArgument,
                     "no link " + command.site + "-" + command.peer);
      kill_link(command.site, command.peer);
      return Status::ok();
    case FaultCommand::Op::kHealLink:
      return reconnect_link(command.site, command.peer);
  }
  return error(ErrorCode::kInvalidArgument, "unknown fault op");
}

Status Grid::reconnect_link(const std::string& site_a,
                            const std::string& site_b) {
  const auto a = proxies_.find(site_a);
  const auto b = proxies_.find(site_b);
  if (a == proxies_.end() || b == proxies_.end())
    return error(ErrorCode::kNotFound, "unknown site");

  net::ChannelPair pair = net::make_memory_channel_pair();
  net::ChannelPtr end_a = std::move(pair.a);
  net::ChannelPtr end_b = std::move(pair.b);
  if (inter_injector_) {
    end_a = net::make_faulty_channel(std::move(end_a), inter_injector_,
                                     net::FaultDirection::kForward);
    end_b = net::make_faulty_channel(std::move(end_b), inter_injector_,
                                     net::FaultDirection::kReverse);
  }
  Status accept_status;
  std::thread acceptor([&] {
    accept_status = b->second->connect_peer(site_a, std::move(end_b), false);
  });
  const Status initiate_status =
      a->second->connect_peer(site_b, std::move(end_a), true);
  acceptor.join();
  PG_RETURN_IF_ERROR(initiate_status);
  return accept_status;
}

void Grid::rehome_tick() {
  // A shard that shut down is dead for good (kill_proxy is permanent, like
  // the scenario engine's kKillProxy); take it off its site's ring and
  // re-home whatever it owned.
  std::vector<std::pair<std::string, std::string>> dead;
  {
    std::lock_guard<std::mutex> rings_lock(rings_mutex_);
    for (const auto& [site, ring] : rings_) {
      for (const auto& shard : ring.members()) {
        if (proxies_.at(shard)->is_shut_down()) dead.emplace_back(site, shard);
      }
    }
  }
  for (const auto& [site, shard] : dead) rehome_shard(site, shard);
}

void Grid::rehome_shard(const std::string& site, const std::string& dead) {
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    rings_.at(site).remove(dead);
  }
  PG_WARN << "grid: shard " << dead << " died; re-homing its virtual slaves";
  telemetry::Counter& rehomed = telemetry::MetricRegistry::global().counter(
      "pg_shard_rehome_total",
      "Entities re-homed onto surviving shards after a shard death",
      {{"site", site}, {"reason", "shard_death"}});

  const auto home_it = node_home_.find(site);
  if (home_it == node_home_.end()) return;
  for (auto& [node, home] : home_it->second) {
    if (home != dead) continue;
    const std::string target = shard_for(site, node);
    if (target.empty()) continue;  // every shard is gone; the site is dark
    // The old agent's link died with its shard; retire it and attach a
    // fresh channel + agent at the node's new ring owner. Sessions need
    // no migration: tickets are sealed under the realm key, so the
    // surviving shards already accept them.
    agents_.at(site).at(node)->shutdown();
    const Status status = home_node(site, target, node_specs_.at(site).at(node),
                                    rehome_rng_);
    if (!status.is_ok()) {
      PG_WARN << "grid: re-homing " << site << "/" << node << " onto "
              << target << " failed: " << status.to_string();
      continue;
    }
    rehomed.increment();
  }
}

void Grid::reconnect_tick() {
  // Backoff per pair resets once a reconnect succeeds. Deterministic jitter
  // (salted with the pair name) keeps chaos runs reproducible — same
  // rationale as the control-RPC retries.
  const std::vector<std::string> site_list = sites();
  const TimeMicros now = clock_.now();
  for (std::size_t i = 0; i < site_list.size(); ++i) {
    for (std::size_t j = i + 1; j < site_list.size(); ++j) {
      const std::string& a = site_list[i];
      const std::string& b = site_list[j];
      proxy::ProxyServer& proxy_a = *proxies_.at(a);
      proxy::ProxyServer& proxy_b = *proxies_.at(b);
      // A deliberately killed proxy is not a link failure; leave its links
      // down until someone restarts it.
      if (proxy_a.is_shut_down() || proxy_b.is_shut_down()) continue;
      PairState& pair_state = reconnect_state_[{a, b}];
      if (proxy_a.peer_alive(b) && proxy_b.peer_alive(a)) {
        pair_state = PairState{};
        continue;
      }
      if (now < pair_state.next_due) continue;
      const Status status = reconnect_link(a, b);
      if (status.is_ok()) {
        PG_DEBUG << "grid: auto-reconnect restored link " << a << "<->" << b
                 << " after " << pair_state.attempt << " failed attempts";
        pair_state = PairState{};
      } else {
        ++pair_state.attempt;
        const std::uint64_t salt = std::hash<std::string>{}(a + "|" + b);
        pair_state.next_due =
            now + proxy::retry_backoff(reconnect_policy_, pair_state.attempt,
                                       salt);
        PG_WARN << "grid: auto-reconnect " << a << "<->" << b << " failed ("
                << status.message() << "), attempt " << pair_state.attempt;
      }
    }
  }
}

TrafficReport Grid::traffic_report() const {
  TrafficReport report;

  auto accumulate = [](TrafficReport::PerClass& cls,
                       const tls::LinkStats& stats) {
    cls.messages += stats.messages_sent;
    cls.payload_bytes += stats.payload_bytes_sent;
    cls.wire_bytes += stats.wire_bytes_sent;
    cls.crypto_bytes += stats.crypto_bytes;
    cls.handshake_bytes += stats.handshake_bytes;
  };

  for (const auto& [site, proxy_server] : proxies_) {
    for (const proxy::LinkReport& link : proxy_server->link_report()) {
      accumulate(link.inter_site ? report.inter_site : report.intra_site,
                 link.stats);
    }
    const proxy::ProxyMetrics metrics = proxy_server->metrics();
    report.handshakes += metrics.handshakes;
    report.control_calls += metrics.control_calls_sent;
    report.control_notifies += metrics.control_notifies_sent;
  }
  // Node agents count the node->proxy direction.
  for (const auto& [site, nodes] : agents_) {
    for (const auto& [node, agent] : nodes) {
      accumulate(report.intra_site, agent->link_stats());
    }
  }
  return report;
}

void Grid::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Stop the monitors first (a running tick finishes): tearing proxies
  // down below looks exactly like a mass shard death to the rehome
  // monitor, and a reconnect must never race a dying proxy.
  if (rehome_timer_) rehome_timer_->stop();
  if (reconnect_timer_) reconnect_timer_->stop();
  // Agents first (they join application runners), then proxies.
  for (auto& [site, nodes] : agents_) {
    for (auto& [node, agent] : nodes) agent->shutdown();
  }
  for (auto& [site, proxy_server] : proxies_) proxy_server->shutdown();
}

}  // namespace pg::grid
