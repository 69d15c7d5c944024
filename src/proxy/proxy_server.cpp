#include "proxy/proxy_server.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/logging.hpp"
#include "common/serde.hpp"
#include "telemetry/trace.hpp"

namespace pg::proxy {

namespace {
/// Per-rank RAM accounting charge (MB) while an application runs.
constexpr std::uint64_t kRankRamMb = 64;

/// Bound on the foreign-trace next-hop table.
constexpr std::size_t kMaxTraceRoutes = 1024;

std::uint64_t site_salt(const std::string& site) {
  // Distinct app-id and job-id spaces per origin proxy so ids never
  // collide grid-wide.
  return static_cast<std::uint64_t>(std::hash<std::string>{}(site) & 0xffff)
         << 48;
}

/// Shard ids of the group this proxy belongs to, in index order. A proxy
/// whose own id falls outside [0, shards) (a misconfiguration) gets a
/// one-member group of itself, which degrades to unsharded behaviour.
std::vector<std::string> shard_group(const ProxyConfig& config) {
  const std::uint32_t count = std::max<std::uint32_t>(1, config.shards);
  if (shard_index_of(config.site) >= count) return {config.site};
  const std::string logical = site_of_shard(config.site);
  std::vector<std::string> members;
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    members.push_back(shard_name(logical, i));
  return members;
}

/// Answers `request` with a kError carrying `why`.
void respond_error(Connection& conn, const proto::Envelope& request,
                   const Status& why) {
  (void)conn.respond(
      request, proto::OpCode::kError,
      proto::ErrorMessage{static_cast<std::uint16_t>(why.code()), why.message()}
          .serialize());
}

/// Sender-window tuning of a proxy's data links, from its config.
SenderWindowConfig window_config(const ProxyConfig& config) {
  SenderWindowConfig window;
  window.rto_initial_micros =
      static_cast<std::uint64_t>(config.mpi_ack_rto_initial);
  window.rto_max_micros = static_cast<std::uint64_t>(config.mpi_ack_rto_max);
  return window;
}

}  // namespace

ProxyServer::ProxyServer(ProxyConfig config)
    : config_(std::move(config)),
      resumption_keeper_(config_.ticket_key, config_.ticket_lifetime),
      authenticator_(config_.site, config_.ticket_key,
                     config_.ticket_lifetime),
      collector_(config_.site),
      lease_(shard_group(config_), config_.site),
      rng_(config_.rng_seed),
      next_app_id_(site_salt(config_.site) + 1),
      job_workers_(std::max<std::uint32_t>(1, config_.job_workers)),
      job_manager_(job_workers_, *config_.clock, site_salt(config_.site) + 1,
                   config_.site),
      instruments_(config_.site),
      links_(
          config_.site, instruments_,
          [this](const BatchLink& link, const Status& reason) {
            if (link.kind == LinkKind::kSite) {
              on_peer_down(link.name, reason);
            } else {
              on_node_down(link.name, reason);
            }
          },
          config_.heartbeat_interval, config_.heartbeat_miss_threshold),
      batch_sender_(
          config_.site, window_config(config_),
          [this](const BatchLink& link) { return links_.get(link); },
          BatchSenderInstruments{
              instruments_.mpi_retransmits, instruments_.mpi_ack_rtt_micros,
              &instruments_.mpi_inflight_bytes,
              [this](const BatchLink& link, const BatchFlush& flush) {
                // Batch and lane counters describe inter-site traffic only.
                const double bytes = static_cast<double>(flush.bytes);
                if (link.kind == LinkKind::kNode) {
                  instruments_.mpi_messages_local.increment();
                  instruments_.mpi_bytes_local.increment(flush.bytes);
                  instruments_.mpi_message_bytes_local.observe(bytes);
                  return;
                }
                instruments_.mpi_messages_remote.increment();
                instruments_.mpi_bytes_remote.increment(flush.bytes);
                instruments_.mpi_message_bytes_remote.observe(bytes);
                instruments_.batch_flush(flush.reason);
                instruments_.lane_flush(flush.latency_frames > 0,
                                        flush.latency_frames < flush.frames);
              }},
          config_.mpi_batch_flush_interval),
      shard_gossip_(config_.shards > 1 ? config_.shard_gossip_interval : 0,
                    [this] { shard_gossip_fire(); }) {}

ProxyServer::~ProxyServer() { shutdown(); }

tls::GsslConfig ProxyServer::gssl_config(
    const std::string& expected_peer) const {
  tls::GsslConfig cfg{config_.identity, config_.ca_name, config_.ca_key,
                      expected_peer};
  // Both roles on every tunnel: accepting sides honour tickets, dialing
  // sides present them — so auto-reconnect after a link purge is
  // resumption-first regardless of which end re-dials.
  cfg.resumption = &resumption_keeper_;
  cfg.resumption_store = &resumption_store_;
  return cfg;
}

Result<tls::MessageLinkPtr> ProxyServer::secure_link(
    net::Channel& channel, const std::string& expected_peer, bool client) {
  Rng handshake_rng = [this] {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    return Rng(rng_.next_u64());
  }();
  const tls::GsslConfig cfg = gssl_config(expected_peer);
  Result<tls::GsslSessionPtr> session =
      client ? tls::gssl_client_handshake(channel, cfg, *config_.clock,
                                          handshake_rng)
             : tls::gssl_server_handshake(channel, cfg, *config_.clock,
                                          handshake_rng);
  if (!session.is_ok()) return session.status();
  instruments_.handshakes.increment();
  return tls::make_secure_link(session.take());
}

// ------------------------------------------------------------ composition

void ProxyServer::add_node_stats(monitor::NodeStatsSourcePtr source) {
  collector_.add_node(std::move(source));
}

Status ProxyServer::attach_node(const std::string& node_name,
                                net::ChannelPtr channel,
                                bool force_encrypted) {
  Result<tls::MessageLinkPtr> link =
      force_encrypted || config_.mode == SecurityMode::kPerNodeSecurity
          ? secure_link(*channel, "", /*client=*/false)
          : Result<tls::MessageLinkPtr>(tls::make_plain_link(*channel));
  if (!link.is_ok()) return link.status();
  const BatchLink key{LinkKind::kNode, node_name};
  auto conn = std::make_unique<Connection>(
      node_name, std::move(channel), link.take(),
      /*initiator=*/false,
      [this, key](const proto::Envelope& env, Connection& c) {
        handle_link(key, env, c);
      });
  return links_.add(key, std::move(conn));
}

Status ProxyServer::connect_peer(const std::string& peer_site,
                                 net::ChannelPtr channel, bool initiate) {
  Result<tls::MessageLinkPtr> link =
      secure_link(*channel, "proxy." + peer_site, initiate);
  if (!link.is_ok()) return link.status();

  const BatchLink key{LinkKind::kSite, peer_site};
  auto conn = std::make_unique<Connection>(
      peer_site, std::move(channel), link.take(), initiate,
      [this, key](const proto::Envelope& env, Connection& c) {
        handle_link(key, env, c);
      });
  // Handler spans finished for traces the peer's side originated flow back
  // over this link, so the origin proxy renders the whole grid operation
  // as one connected trace.
  conn->set_span_export(true, config_.site);
  Connection* raw = conn.get();
  PG_RETURN_IF_ERROR(links_.add(key, std::move(conn)));

  if (initiate) {
    proto::Hello hello{config_.site, config_.identity.certificate.subject};
    instruments_.control_calls_sent.increment();
    Result<proto::Envelope> ack =
        raw->call(proto::OpCode::kHello, hello.serialize());
    if (!ack.is_ok()) return ack.status();
    Result<proto::HelloAck> parsed =
        proto::HelloAck::parse(ack.value().payload);
    if (!parsed.is_ok()) return parsed.status();
    if (!parsed.value().accepted)
      return error(ErrorCode::kPermissionDenied,
                   "peer rejected hello: " + parsed.value().reason);
  }
  return Status::ok();
}

void ProxyServer::disconnect_peer(const std::string& peer_site) {
  if (Connection* conn = links_.get({LinkKind::kSite, peer_site}))
    conn->close();
}

Status ProxyServer::ping_peer(const std::string& peer_site,
                              TimeMicros timeout) {
  Connection* conn = links_.live({LinkKind::kSite, peer_site});
  if (conn == nullptr)
    return error(ErrorCode::kUnavailable, "no connection to " + peer_site);
  return conn->call(proto::OpCode::kPing, {}, timeout).status();
}

std::vector<std::string> ProxyServer::alive_peers(TimeMicros timeout) {
  std::vector<std::string> alive;
  for (const auto& site : peers()) {
    if (ping_peer(site, timeout).is_ok()) alive.push_back(site);
  }
  return alive;
}

// ----------------------------------------------------------------- login

proto::AuthResponse ProxyServer::login(const proto::AuthRequest& request) {
  telemetry::Span span =
      telemetry::Tracer::global().start_span("proxy.login", config_.site);
  telemetry::ScopedTimer timer(instruments_.login_micros);
  instruments_.logins.increment();
  proto::AuthResponse response =
      authenticator_.authenticate(request, config_.clock->now());
  span.set_ok(response.ok);
  return response;
}

Result<proto::AuthResponse> ProxyServer::login_at(
    const std::string& site, const proto::AuthRequest& request) {
  if (site == config_.site) return login(request);
  Result<proto::Envelope> response =
      call_peer(site, proto::OpCode::kAuthRequest, request.serialize());
  if (!response.is_ok()) return response.status();
  return proto::AuthResponse::parse(response.value().payload);
}

// ------------------------------------------------------------- layer 3

proto::StatusReport ProxyServer::local_status() {
  proto::StatusReport report = collector_.collect(config_.clock->now());
  // The proxy holds every node's link, so it knows which stations are
  // unreachable; dead nodes are not advertised (schedulers then route
  // around them — part of the paper's failure-containment story).
  std::erase_if(report.nodes, [this](const proto::NodeStatus& node) {
    return links_.live({LinkKind::kNode, node.name}) == nullptr;
  });
  return report;
}

Result<std::vector<proto::StatusReport>> ProxyServer::query_status(
    const std::vector<std::string>& sites, BytesView token) {
  PG_RETURN_IF_ERROR(
      authenticator_.authorize(token, "status.query", config_.clock->now()));

  std::vector<std::string> targets = sites;
  if (targets.empty()) {
    targets.push_back(config_.site);
    for (const auto& peer : peers()) targets.push_back(peer);
  }

  std::vector<proto::StatusReport> reports;
  for (const auto& target : targets) {
    if (target == config_.site) {
      reports.push_back(local_status());
      continue;
    }
    if (links_.live({LinkKind::kSite, target}) == nullptr) {
      PG_WARN << config_.site << ": site " << target
              << " unreachable for status query";
      continue;  // distributed control: one dead site costs only itself
    }
    Result<proto::Envelope> response = call_peer(
        target, proto::OpCode::kStatusQuery, proto::StatusQuery{}.serialize());
    if (!response.is_ok()) {
      PG_WARN << config_.site << ": status query to " << target
              << " failed: " << response.status().to_string();
      continue;
    }
    Result<proto::StatusReport> report =
        proto::StatusReport::parse(response.value().payload);
    if (!report.is_ok()) continue;
    status_cache_.update(report.value(), config_.clock->now());
    reports.push_back(report.take());
  }
  return reports;
}

std::vector<std::string> ProxyServer::shard_siblings() const {
  std::vector<std::string> out;
  for (const auto& member : lease_.members()) {
    if (member != config_.site) out.push_back(member);
  }
  return out;
}

proto::StatusReport ProxyServer::site_status() {
  proto::StatusReport merged = local_status();
  merged.site = logical_site();
  for (const auto& sibling : shard_siblings()) {
    if (!lease_.alive(sibling)) continue;  // dead shards advertise nothing
    std::optional<proto::StatusReport> partial = shard_board_.get(sibling);
    if (!partial) continue;
    merged.nodes.insert(merged.nodes.end(), partial->nodes.begin(),
                        partial->nodes.end());
    merged.timestamp = std::max(merged.timestamp, partial->timestamp);
  }
  return merged;
}

std::size_t ProxyServer::push_status_to_peers() {
  const Bytes report = local_status().serialize();
  std::size_t pushed = 0;
  for (const auto& peer : peers()) {
    if (notify_peer(peer, proto::OpCode::kStatusReport, report).is_ok())
      ++pushed;
  }
  return pushed;
}

Result<std::vector<monitor::GridNode>> ProxyServer::locate_resources(
    BytesView token, const sched::Constraints& constraints) {
  Result<std::vector<proto::StatusReport>> reports = query_status({}, token);
  if (!reports.is_ok()) return reports.status();

  std::vector<monitor::GridNode> matches;
  for (const auto& node : monitor::flatten(reports.value())) {
    if (node.status.ram_free_mb < constraints.min_ram_mb) continue;
    if (node.status.cpu_load > constraints.max_load) continue;
    matches.push_back(node);
  }
  return matches;
}

// ------------------------------------------------------------- layer 4

AppRunResult ProxyServer::run_app(const std::string& user, BytesView token,
                                  const std::string& executable,
                                  std::uint32_t ranks,
                                  sched::Scheduler& scheduler,
                                  const sched::Constraints& constraints,
                                  TimeMicros timeout) {
  telemetry::Span run_span =
      telemetry::Tracer::global().start_span("proxy.run_app", config_.site);
  run_span.set_note(executable);
  AppRunResult result;

  // Origin-side permission check (paper: validated at origin AND target).
  result.status =
      authenticator_.authorize(token, "mpi.run", config_.clock->now());
  if (!result.status.is_ok()) {
    run_span.set_ok(false);
    return result;
  }

  // Collect grid status and schedule.
  Result<std::vector<proto::RankPlacement>> placements = [&] {
    telemetry::Span sched_span =
        telemetry::Tracer::global().start_span("proxy.schedule", config_.site);
    Result<std::vector<proto::StatusReport>> reports = query_status({}, token);
    if (!reports.is_ok()) {
      sched_span.set_ok(false);
      return Result<std::vector<proto::RankPlacement>>(reports.status());
    }
    const std::vector<monitor::GridNode> nodes =
        monitor::flatten(reports.value());
    auto assigned = scheduler.assign(nodes, ranks, constraints);
    sched_span.set_ok(assigned.is_ok());
    return assigned;
  }();
  if (!placements.is_ok()) {
    result.status = placements.status();
    run_span.set_ok(false);
    return result;
  }

  AppRouting routing;
  routing.app_id = next_app_id_.fetch_add(1, std::memory_order_relaxed);
  routing.executable = executable;
  routing.world_size = ranks;
  routing.placements = placements.take();
  routing.build_index();
  result.app_id = routing.app_id;
  result.placements = routing.placements;

  const std::vector<std::string> involved = routing.sites();

  // Register the completion latch before anything can finish.
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    RunState& run = runs_[routing.app_id];
    run.pending_sites.insert(involved.begin(), involved.end());
  }

  // Phase 1: open everywhere (routing tables + mailboxes, no threads yet).
  std::vector<std::string> opened_remote;
  Status open_status;
  for (const auto& site_name : involved) {
    if (site_name == config_.site) {
      open_status = await_result<Status>([&](auto done) {
        open_app_locally(routing, "", std::move(done));
      });
    } else {
      proto::MpiOpen open;
      open.app_id = routing.app_id;
      open.executable = routing.executable;
      open.world_size = routing.world_size;
      open.placements = routing.placements;
      open.user = user;
      open.token.assign(token.begin(), token.end());
      Result<proto::Envelope> ack =
          call_peer(site_name, proto::OpCode::kMpiOpen, open.serialize());
      if (!ack.is_ok()) {
        open_status = ack.status();
      } else {
        Result<proto::MpiOpenAck> parsed =
            proto::MpiOpenAck::parse(ack.value().payload);
        if (!parsed.is_ok()) {
          open_status = parsed.status();
        } else if (!parsed.value().ok) {
          open_status = error(ErrorCode::kFailedPrecondition,
                              site_name + ": " + parsed.value().reason);
        } else {
          opened_remote.push_back(site_name);
        }
      }
    }
    if (!open_status.is_ok()) break;
  }

  if (!open_status.is_ok()) {
    // Roll back whatever opened.
    close_app_locally(routing.app_id);
    const proto::MpiClose close_msg{routing.app_id};
    for (const auto& site_name : opened_remote) {
      if (Connection* conn = links_.get({LinkKind::kSite, site_name})) {
        (void)conn->notify(proto::OpCode::kMpiClose, close_msg.serialize());
      }
    }
    std::lock_guard<std::mutex> lock(apps_mutex_);
    runs_.erase(routing.app_id);
    result.status = open_status;
    return result;
  }

  // Phase 2: start everywhere. Routing state exists at every involved site,
  // so no rank's first message can outrun its destination's tables.
  const proto::MpiClose start_msg{routing.app_id};
  for (const auto& site_name : involved) {
    if (site_name == config_.site) {
      start_app_locally(routing.app_id);
    } else {
      (void)notify_peer(site_name, proto::OpCode::kMpiStart,
                        start_msg.serialize());
    }
  }

  // Wait for every involved site to report completion (or a failure
  // verdict from the death-detection paths).
  std::uint32_t exit_code = 0;
  bool completed = false;
  Status run_failure;
  {
    std::unique_lock<std::mutex> lock(apps_mutex_);
    completed = runs_cv_.wait_for(
        lock, std::chrono::microseconds(timeout), [this, &routing] {
          const auto it = runs_.find(routing.app_id);
          return it == runs_.end() || it->second.done();
        });
    const auto it = runs_.find(routing.app_id);
    if (it != runs_.end()) {
      exit_code = it->second.exit_code;
      run_failure = it->second.failure;
      completed = completed && it->second.done();
      runs_.erase(it);
    }
  }

  // Teardown everywhere.
  close_app_locally(routing.app_id);
  const proto::MpiClose close_msg{routing.app_id};
  for (const auto& site_name : opened_remote)
    (void)notify_peer(site_name, proto::OpCode::kMpiClose,
                      close_msg.serialize());

  instruments_.apps_run.increment();
  result.exit_code = exit_code;
  if (!completed) {
    result.status =
        error(ErrorCode::kDeadlineExceeded, "application did not complete");
  } else if (!run_failure.is_ok()) {
    result.status = run_failure;  // retryable: a node or site died mid-run
  } else if (exit_code == kNodeLostExit) {
    // A node's ranks were torn down by infrastructure failure, not by the
    // application; surface it as transient so the job layer re-dispatches.
    result.status =
        error(ErrorCode::kUnavailable, "node lost mid-run (exit 143)");
  } else if (exit_code != 0) {
    result.status = error(ErrorCode::kInternal,
                          "application exited with code " +
                              std::to_string(exit_code));
  }
  run_span.set_ok(result.status.is_ok());
  return result;
}

void ProxyServer::open_app_locally(const AppRouting& routing,
                                   const std::string& origin_site,
                                   std::function<void(const Status&)> done) {
  const std::vector<std::string> my_nodes =
      routing.nodes_on_site(config_.site);
  if (my_nodes.empty()) return done(Status::ok());
  for (const auto& node : my_nodes) {
    if (links_.get({LinkKind::kNode, node}) == nullptr)
      return done(error(ErrorCode::kNotFound, "no such node: " + node));
  }

  proto::MpiOpen open;
  open.app_id = routing.app_id;
  open.executable = routing.executable;
  open.world_size = routing.world_size;
  open.placements = routing.placements;

  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    AppState& app = apps_[routing.app_id];
    app.routing = routing;
    if (!app.routing.indexed()) app.routing.build_index();
    app.origin_site = origin_site;
    app.pending_nodes.insert(my_nodes.begin(), my_nodes.end());
  }

  // Every node's open goes out at once; the first failure or the last ack
  // answers. Bound the node round trips: a node link swallowing the open
  // must not stall the launch past the retry budget.
  struct Opening {
    std::mutex mutex;
    std::size_t waiting;
    bool answered = false;
    std::function<void(const Status&)> done;
  };
  auto opening = std::make_shared<Opening>();
  opening->waiting = my_nodes.size();
  opening->done = std::move(done);
  const TimeMicros node_budget =
      config_.retry.per_try_timeout * (config_.retry.max_attempts + 1);
  const Bytes payload = open.serialize();
  for (const auto& node : my_nodes) {
    const std::size_t rank_count =
        routing.ranks_on_node(config_.site, node).size();
    // Node round trips are intra-site: retried like peer calls but not
    // counted as inter-proxy control traffic.
    call_with_retry(
        {LinkKind::kNode, node}, proto::OpCode::kMpiOpen, payload,
        node_budget,
        [this, opening, node, rank_count](Result<proto::Envelope> ack) {
          Result<proto::MpiOpenAck> parsed =
              ack.is_ok() ? proto::MpiOpenAck::parse(ack.value().payload)
                          : Result<proto::MpiOpenAck>(ack.status());
          Status status = parsed.status();
          if (status.is_ok() && !parsed.value().ok)
            status = error(ErrorCode::kFailedPrecondition,
                           node + ": " + parsed.value().reason);
          // Load accounting: the scheduled ranks now occupy the node.
          for (std::size_t i = 0; status.is_ok() && i < rank_count; ++i)
            (void)collector_.process_started(node, kRankRamMb);
          {
            std::lock_guard<std::mutex> lock(opening->mutex);
            --opening->waiting;
            if (opening->answered || (status.is_ok() && opening->waiting > 0))
              return;
            opening->answered = true;
          }
          opening->done(status);
        });
  }
}

void ProxyServer::start_app_locally(std::uint64_t app_id) {
  std::vector<std::string> my_nodes;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    my_nodes = it->second.routing.nodes_on_site(config_.site);
  }
  const proto::MpiClose start_msg{app_id};
  for (const auto& node : my_nodes) {
    if (Connection* conn = links_.get({LinkKind::kNode, node})) {
      (void)conn->notify(proto::OpCode::kMpiStart, start_msg.serialize());
    }
  }
}

void ProxyServer::close_app_locally(std::uint64_t app_id) {
  std::vector<std::string> my_nodes;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    my_nodes = it->second.routing.nodes_on_site(config_.site);
    apps_.erase(it);
  }
  const proto::MpiClose close_msg{app_id};
  for (const auto& node : my_nodes) {
    if (Connection* conn = links_.get({LinkKind::kNode, node})) {
      (void)conn->notify(proto::OpCode::kMpiClose, close_msg.serialize());
    }
  }
  // Stop retrying the app's unacked frames: close only happens once the app
  // is globally done or aborted, so no rank anywhere still needs the data.
  instruments_.frames_dropped(DropReason::kAppClosed,
                              batch_sender_.drop_app(app_id));
  // Push out any frames still queued: ranks elsewhere may be blocked on
  // data sent just before this site's share of the app ended.
  instruments_.frames_dropped(DropReason::kLinkDown,
                              batch_sender_.teardown_flush());
}

void ProxyServer::site_finished(std::uint64_t app_id, const std::string& site,
                                std::uint32_t exit_code) {
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = runs_.find(app_id);
    if (it == runs_.end()) return;
    it->second.pending_sites.erase(site);
    it->second.exit_code = std::max(it->second.exit_code, exit_code);
  }
  runs_cv_.notify_all();
}

void ProxyServer::fail_run(std::uint64_t app_id, const Status& reason) {
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = runs_.find(app_id);
    if (it == runs_.end()) return;
    if (it->second.failure.is_ok()) it->second.failure = reason;
  }
  runs_cv_.notify_all();
}

void ProxyServer::abort_run(std::uint64_t app_id,
                            const std::string& origin_site,
                            const std::string& why) {
  if (origin_site.empty()) {
    fail_run(app_id, error(ErrorCode::kUnavailable, why));
  } else {
    (void)notify_peer(origin_site, proto::OpCode::kMpiAbort,
                      proto::MpiAbort{app_id, why}.serialize());
  }
}

// ------------------------------------------------------------- handlers

void ProxyServer::handle_link(const BatchLink& link,
                              const proto::Envelope& envelope,
                              Connection& conn) {
  instruments_.op_received(envelope.op).increment();
  switch (envelope.op) {
    case proto::OpCode::kMpiBatch:
      // Hot path: counters only — no span, no dispatch timer.
      handle_mpi_batch(link, envelope);
      return;
    case proto::OpCode::kMpiBatchAck:
      (void)batch_sender_.on_ack(link, envelope.payload);
      return;
    case proto::OpCode::kTraceExport:
      // Plumbing, not a traced operation of its own: import the spans or
      // keep forwarding them toward the trace origin.
      handle_trace_export(envelope);
      return;
    default:
      if (link.kind == LinkKind::kSite) {
        handle_peer(envelope, conn);
      } else {
        handle_node(envelope, conn);
      }
  }
}

void ProxyServer::handle_peer(const proto::Envelope& envelope,
                              Connection& conn) {
  if (envelope.op == proto::OpCode::kHeartbeat) {
    // Receipt already refreshed last_activity(); nothing else to do, and
    // no span — heartbeats would drown real traces.
    return;
  }
  // Remember which peer foreign traces arrive from; that peer is the next
  // hop when spans of the trace need forwarding back toward its origin.
  if (envelope.trace_id != 0)
    record_trace_route(envelope.trace_id, conn.peer_name());
  telemetry::ScopedTimer dispatch_timer(instruments_.dispatch_micros);
  telemetry::Span span = telemetry::Tracer::global().start_span(
      std::string("peer.") + proto::opcode_name(envelope.op), config_.site);
  switch (envelope.op) {
    case proto::OpCode::kHello:
      handle_hello(envelope, conn);
      return;
    case proto::OpCode::kPing:
      (void)conn.respond(envelope, proto::OpCode::kPong, {});
      return;
    case proto::OpCode::kStatusQuery:
      handle_status_query(envelope, conn);
      return;
    case proto::OpCode::kStatusReport: {
      // Unsolicited push from a peer (push-mode monitoring).
      Result<proto::StatusReport> report =
          proto::StatusReport::parse(envelope.payload);
      if (report.is_ok())
        status_cache_.update(report.value(), config_.clock->now());
      return;
    }
    case proto::OpCode::kShardStatus:
      handle_shard_status(envelope);
      return;
    case proto::OpCode::kAuthRequest:
      handle_auth_request(envelope, conn);
      return;
    case proto::OpCode::kJobSubmit:
      handle_job_submit(envelope, conn);
      return;
    case proto::OpCode::kJobQuery:
      handle_job_query(envelope, conn);
      return;
    case proto::OpCode::kMpiOpen:
      handle_mpi_open_from_peer(envelope, conn);
      return;
    case proto::OpCode::kMpiStart:
      handle_mpi_start(envelope);
      return;
    case proto::OpCode::kMpiDone:
      handle_mpi_done_from_peer(envelope);
      return;
    case proto::OpCode::kMpiAbort:
      handle_mpi_abort_from_peer(envelope);
      return;
    case proto::OpCode::kMpiClose:
      handle_mpi_close(envelope);
      return;
    case proto::OpCode::kTunnelOpen:
    case proto::OpCode::kTunnelData:
    case proto::OpCode::kTunnelClose:
      handle_tunnel(envelope, conn);
      return;
    default: {
      const Status dispatched = dispatch_extension(envelope, conn);
      if (!dispatched.is_ok()) {
        PG_WARN << config_.site << ": unhandled peer op "
                << proto::opcode_name(envelope.op);
      }
    }
  }
}

void ProxyServer::handle_node(const proto::Envelope& envelope,
                              Connection& conn) {
  telemetry::ScopedTimer dispatch_timer(instruments_.dispatch_micros);
  switch (envelope.op) {
    case proto::OpCode::kPing:
      (void)conn.respond(envelope, proto::OpCode::kPong, {});
      return;
    case proto::OpCode::kMpiDone:
      handle_mpi_done_from_node(envelope);
      return;
    case proto::OpCode::kTunnelOpen:
    case proto::OpCode::kTunnelData:
    case proto::OpCode::kTunnelClose:
      handle_tunnel(envelope, conn);
      return;
    default: {
      const Status dispatched = dispatch_extension(envelope, conn);
      if (!dispatched.is_ok()) {
        PG_WARN << config_.site << ": unhandled node op "
                << proto::opcode_name(envelope.op) << " from "
                << conn.peer_name();
      }
    }
  }
}

void ProxyServer::handle_hello(const proto::Envelope& envelope,
                               Connection& conn) {
  Result<proto::Hello> hello = proto::Hello::parse(envelope.payload);
  proto::HelloAck ack;
  ack.site = config_.site;
  if (!hello.is_ok()) {
    ack.accepted = false;
    ack.reason = hello.status().to_string();
  } else if (hello.value().site != conn.peer_name()) {
    // The certificate pinned this connection to a site; the announced name
    // must match it.
    ack.accepted = false;
    ack.reason = "announced site " + hello.value().site +
                 " does not match authenticated identity " + conn.peer_name();
  } else {
    ack.accepted = true;
  }
  (void)conn.respond(envelope, proto::OpCode::kHelloAck, ack.serialize());
}

void ProxyServer::handle_status_query(const proto::Envelope& envelope,
                                      Connection& conn) {
  // Remote proxies only ever ask for THIS site (distributed collection).
  (void)conn.respond(envelope, proto::OpCode::kStatusReport,
                     local_status().serialize());
}

void ProxyServer::handle_auth_request(const proto::Envelope& envelope,
                                      Connection& conn) {
  // A password login's salted stretch (~170 us of CPU) would stall every
  // connection sharing the I/O thread, so it runs off it. shutdown() waits
  // for the task.
  begin_task();
  conn.offload(envelope, [this](const proto::Envelope& request,
                                Connection& source) {
    Result<proto::AuthRequest> parsed =
        proto::AuthRequest::parse(request.payload);
    proto::AuthResponse response;
    if (!parsed.is_ok()) {
      response.ok = false;
      response.reason = parsed.status().to_string();
    } else {
      response = login(parsed.value());
    }
    (void)source.respond(request, proto::OpCode::kAuthResponse,
                         response.serialize());
    end_task();
  });
}

void ProxyServer::handle_mpi_open_from_peer(const proto::Envelope& envelope,
                                            Connection& conn) {
  // The answer comes from the last node ack's continuation: it pins the
  // connection (a reconnect may retire it meanwhile) and answers under the
  // request's trace.
  auto answer = [source = conn.shared_from_this(), request = envelope,
                 trace = telemetry::Tracer::current()](
                    const proto::MpiOpenAck& ack) {
    telemetry::ScopedTraceContext scope(trace);
    (void)source->respond(request, proto::OpCode::kMpiOpenAck,
                          ack.serialize());
  };
  Result<proto::MpiOpen> open = proto::MpiOpen::parse(envelope.payload);
  proto::MpiOpenAck ack;
  if (!open.is_ok()) {
    ack.ok = false;
    ack.reason = open.status().to_string();
    return answer(ack);
  }
  ack.app_id = open.value().app_id;

  // Destination-side permission check (paper: "validated at the
  // originating and destination proxies"). The ticket verifies under the
  // realm key regardless of which proxy minted it.
  const Status allowed = authenticator_.tickets().authorize(
      open.value().token, "mpi.run", config_.clock->now());
  if (!allowed.is_ok()) {
    ack.ok = false;
    ack.reason = allowed.to_string();
    return answer(ack);
  }

  AppRouting routing;
  routing.app_id = open.value().app_id;
  routing.executable = open.value().executable;
  routing.world_size = open.value().world_size;
  routing.placements = open.value().placements;
  routing.build_index();

  open_app_locally(routing, conn.peer_name(),
                   [answer, ack](const Status& opened) mutable {
                     ack.ok = opened.is_ok();
                     if (!opened.is_ok()) ack.reason = opened.to_string();
                     answer(ack);
                   });
}

void ProxyServer::handle_mpi_start(const proto::Envelope& envelope) {
  Result<proto::MpiClose> start = proto::MpiClose::parse(envelope.payload);
  if (start.is_ok()) start_app_locally(start.value().app_id);
}

void ProxyServer::handle_mpi_close(const proto::Envelope& envelope) {
  Result<proto::MpiClose> close_msg =
      proto::MpiClose::parse(envelope.payload);
  if (close_msg.is_ok()) close_app_locally(close_msg.value().app_id);
}

std::optional<BatchLink> ProxyServer::rank_link(std::uint64_t app_id,
                                                std::uint32_t dst_rank) {
  std::lock_guard<std::mutex> lock(apps_mutex_);
  const auto it = apps_.find(app_id);
  if (it == apps_.end()) return std::nullopt;
  const proto::RankPlacement* placement =
      it->second.routing.placement_of(dst_rank);
  if (placement == nullptr) return std::nullopt;
  if (placement->site == config_.site)
    return BatchLink{LinkKind::kNode, placement->node};
  return BatchLink{LinkKind::kSite, placement->site};
}

void ProxyServer::handle_mpi_batch(const BatchLink& link,
                                   const proto::Envelope& envelope) {
  const BatchReceipt receipt = batch_receiver_.receive(
      envelope.payload, link, batch_sender_, [this](proto::MpiBatch& batch) {
        for (proto::MpiFrame& frame : batch.frames)
          route_mpi_frame(std::move(frame));
      });
  if (receipt == BatchReceipt::kDuplicate) {
    instruments_.mpi_batch_duplicates.increment();
  } else if (receipt == BatchReceipt::kMalformed) {
    PG_WARN << config_.site << ": dropping malformed MpiBatch";
  }
}

void ProxyServer::route_mpi_frame(proto::MpiFrame frame) {
  // Split the frame's destinations per link: ranks on this site group per
  // hosting node, remote ranks per peer site.
  std::map<BatchLink, std::vector<std::uint32_t>> per_link;
  for (const std::uint32_t dst : frame.dst_ranks) {
    std::optional<BatchLink> link = rank_link(frame.app_id, dst);
    if (!link) {
      PG_WARN << config_.site << ": batch frame for unknown app "
              << frame.app_id << " / rank " << dst;
      continue;
    }
    per_link[std::move(*link)].push_back(dst);
  }

  for (auto& [link, dsts] : per_link) {
    proto::MpiFrame forward;
    forward.app_id = frame.app_id;
    forward.src_rank = frame.src_rank;
    forward.tag = frame.tag;
    forward.dst_ranks = std::move(dsts);
    forward.payload = frame.payload;
    instruments_.mpi_fanout.increment(forward.dst_ranks.size());
    if (link.kind == LinkKind::kSite)
      instruments_.mpi_batch_messages.increment();
    std::vector<proto::MpiFrame> frames;
    frames.push_back(std::move(forward));
    (void)batch_sender_.enqueue(link, std::move(frames));
  }
}

void ProxyServer::handle_mpi_done_from_node(const proto::Envelope& envelope) {
  Result<proto::JobComplete> done =
      proto::JobComplete::parse(envelope.payload);
  if (!done.is_ok()) return;
  const std::string node = to_string(done.value().output);
  const std::uint64_t app_id = done.value().job_id;

  // kNodeLostExit is not a result, it is a death notice: the node's ranks
  // were torn down under the app, so ranks elsewhere will never hear from
  // them again. Abort the whole run now instead of letting the survivors
  // block until the run deadline.
  if (done.value().exit_code == kNodeLostExit) {
    std::string origin_site;
    {
      std::lock_guard<std::mutex> lock(apps_mutex_);
      const auto it = apps_.find(app_id);
      if (it == apps_.end()) return;
      origin_site = it->second.origin_site;
    }
    abort_run(app_id, origin_site,
              "node " + node + " lost mid-run (exit 143)");
    return;
  }

  bool site_done = false;
  std::string origin_site;
  std::uint32_t exit_code = 0;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end()) return;
    AppState& app = it->second;
    app.pending_nodes.erase(node);
    app.exit_code = std::max(app.exit_code, done.value().exit_code);
    // Release the load accounted to this node's ranks.
    const std::size_t rank_count =
        app.routing.ranks_on_node(config_.site, node).size();
    for (std::size_t i = 0; i < rank_count; ++i) {
      (void)collector_.process_finished(node, kRankRamMb);
    }
    if (app.pending_nodes.empty()) {
      site_done = true;
      origin_site = app.origin_site;
      exit_code = app.exit_code;
    }
  }
  if (!site_done) return;

  if (origin_site.empty()) {
    // We are the origin: our own site is finished.
    site_finished(app_id, config_.site, exit_code);
  } else {
    proto::JobComplete report;
    report.job_id = app_id;
    report.exit_code = exit_code;
    report.output = to_bytes(config_.site);
    (void)notify_peer(origin_site, proto::OpCode::kMpiDone,
                      report.serialize());
  }
}

void ProxyServer::handle_mpi_done_from_peer(const proto::Envelope& envelope) {
  Result<proto::JobComplete> done =
      proto::JobComplete::parse(envelope.payload);
  if (!done.is_ok()) return;
  site_finished(done.value().job_id, to_string(done.value().output),
                done.value().exit_code);
}

void ProxyServer::handle_mpi_abort_from_peer(const proto::Envelope& envelope) {
  Result<proto::MpiAbort> abort_msg = proto::MpiAbort::parse(envelope.payload);
  if (!abort_msg.is_ok()) return;
  fail_run(abort_msg.value().app_id,
           error(ErrorCode::kUnavailable, abort_msg.value().reason));
}

void ProxyServer::handle_job_submit(const proto::Envelope& envelope,
                                    Connection& conn) {
  Result<proto::JobSubmit> request =
      proto::JobSubmit::parse(envelope.payload);
  proto::JobAccept accept;
  if (!request.is_ok()) {
    accept.accepted = false;
    accept.reason = request.status().to_string();
    (void)conn.respond(envelope, proto::OpCode::kJobAccept,
                       accept.serialize());
    return;
  }
  const sched::Policy policy =
      (!request.value().args.empty() && request.value().args[0] == "rr")
          ? sched::Policy::kRoundRobin
          : sched::Policy::kLoadBalanced;
  sched::Constraints constraints;
  constraints.min_ram_mb = request.value().min_ram_mb;

  Result<std::uint64_t> job =
      submit_job(request.value().user, request.value().token,
                 request.value().executable, request.value().ranks, policy,
                 constraints);
  if (!job.is_ok()) {
    accept.accepted = false;
    accept.reason = job.status().to_string();
  } else {
    accept.accepted = true;
    accept.job_id = job.value();
  }
  (void)conn.respond(envelope, proto::OpCode::kJobAccept, accept.serialize());
}

void ProxyServer::handle_job_query(const proto::Envelope& envelope,
                                   Connection& conn) {
  Result<proto::JobComplete> probe =
      proto::JobComplete::parse(envelope.payload);
  if (!probe.is_ok())
    return respond_error(conn, envelope,
                         error(ErrorCode::kProtocolError, "bad job query"));
  Result<JobRecord> record = job_info(probe.value().job_id);
  if (!record.is_ok())
    return respond_error(
        conn, envelope,
        error(ErrorCode::kNotFound, record.status().message()));
  proto::JobComplete reply;
  reply.job_id = probe.value().job_id;
  reply.exit_code = static_cast<std::uint32_t>(record.value().state);
  reply.output = to_bytes(record.value().outcome.to_string());
  (void)conn.respond(envelope, proto::OpCode::kJobComplete,
                     reply.serialize());
}

// ------------------------------------------------------------ batch jobs

Result<std::uint64_t> ProxyServer::submit_job(
    const std::string& user, BytesView token, const std::string& executable,
    std::uint32_t ranks, sched::Policy policy,
    const sched::Constraints& constraints) {
  PG_RETURN_IF_ERROR(
      authenticator_.authorize(token, "job.submit", config_.clock->now()));

  const Bytes token_copy(token.begin(), token.end());
  return job_manager_.submit(
      user, executable, ranks, policy,
      [this, user, token_copy, constraints](const JobRecord& job) {
        sched::SchedulerPtr scheduler = sched::make_scheduler(job.policy);
        const AppRunResult result =
            run_app(user, token_copy, job.executable, job.ranks, *scheduler,
                    constraints, config_.job_run_timeout);
        return JobManager::RunOutcome{result.status, result.placements};
      },
      config_.job_max_attempts);
}

Result<JobRecord> ProxyServer::job_info(std::uint64_t job_id) const {
  return job_manager_.info(job_id);
}

Result<JobRecord> ProxyServer::wait_job(std::uint64_t job_id,
                                        TimeMicros timeout) {
  return job_manager_.wait(job_id, timeout);
}

std::vector<JobRecord> ProxyServer::jobs() const {
  return job_manager_.list();
}

Result<std::uint64_t> ProxyServer::submit_job_at(const std::string& site,
                                                 const std::string& user,
                                                 BytesView token,
                                                 const std::string& executable,
                                                 std::uint32_t ranks,
                                                 sched::Policy policy) {
  if (site == config_.site)
    return submit_job(user, token, executable, ranks, policy);

  proto::JobSubmit request;
  request.user = user;
  request.executable = executable;
  request.ranks = ranks;
  request.args = {policy == sched::Policy::kRoundRobin ? "rr" : "lb"};
  request.token.assign(token.begin(), token.end());
  Result<proto::Envelope> response =
      call_peer(site, proto::OpCode::kJobSubmit, request.serialize());
  if (!response.is_ok()) return response.status();
  Result<proto::JobAccept> accept =
      proto::JobAccept::parse(response.value().payload);
  if (!accept.is_ok()) return accept.status();
  if (!accept.value().accepted)
    return error(ErrorCode::kFailedPrecondition,
                 site + " rejected job: " + accept.value().reason);
  return accept.value().job_id;
}

Result<JobRecord> ProxyServer::query_job_at(const std::string& site,
                                            std::uint64_t job_id) {
  if (site == config_.site) return job_info(job_id);

  proto::JobComplete probe;
  probe.job_id = job_id;
  Result<proto::Envelope> response =
      call_peer(site, proto::OpCode::kJobQuery, probe.serialize());
  if (!response.is_ok()) return response.status();
  if (response.value().op == proto::OpCode::kError) {
    Result<proto::ErrorMessage> err =
        proto::ErrorMessage::parse(response.value().payload);
    return error(ErrorCode::kNotFound,
                 err.is_ok() ? err.value().message : "remote job error");
  }
  Result<proto::JobComplete> reply =
      proto::JobComplete::parse(response.value().payload);
  if (!reply.is_ok()) return reply.status();

  // exit_code carries the JobState; output carries the outcome text.
  JobRecord record;
  record.job_id = job_id;
  record.state = static_cast<JobState>(reply.value().exit_code);
  const std::string outcome = to_string(reply.value().output);
  if (record.state == JobState::kFailed) {
    record.outcome = error(ErrorCode::kInternal, outcome);
  }
  return record;
}

// --------------------------------------------------------------- tunnels

void ProxyServer::handle_tunnel(const proto::Envelope& envelope,
                                Connection& conn) {
  PG_DEBUG << config_.site << ": tunnel op " << proto::opcode_name(envelope.op)
           << " from " << conn.peer_name();
  std::uint64_t tunnel_id = 0;
  if (envelope.op == proto::OpCode::kTunnelOpen) {
    Result<proto::TunnelOpen> open =
        proto::TunnelOpen::parse(envelope.payload);
    if (!open.is_ok()) return;
    tunnel_id = open.value().tunnel_id;
    // Remember where each tunnel points so TunnelData (which carries only
    // the tunnel id) can be routed.
    std::lock_guard<std::mutex> lock(tunnels_mutex_);
    if (tunnels_.insert_or_assign(tunnel_id, open.take()).second)
      instruments_.open_tunnels.add(1);
  } else if (envelope.op == proto::OpCode::kTunnelData) {
    Result<proto::TunnelData> data =
        proto::TunnelData::parse(envelope.payload);
    if (!data.is_ok()) return;
    tunnel_id = data.value().tunnel_id;
    instruments_.tunnel_bytes_relayed.increment(data.value().payload.size());
  } else {
    Result<proto::TunnelClose> close_msg =
        proto::TunnelClose::parse(envelope.payload);
    if (!close_msg.is_ok()) return;
    tunnel_id = close_msg.value().tunnel_id;
  }

  proto::TunnelOpen route;
  {
    std::lock_guard<std::mutex> lock(tunnels_mutex_);
    const auto it = tunnels_.find(tunnel_id);
    if (it == tunnels_.end())
      return respond_error(conn, envelope,
                           error(ErrorCode::kNotFound, "unknown tunnel"));
    route = it->second;
    if (envelope.op == proto::OpCode::kTunnelClose) {
      tunnels_.erase(it);
      instruments_.open_tunnels.add(-1);
    }
  }

  instruments_.tunnels_relayed.increment();

  // Resolve the next hop: a node of this site, or the target site's proxy.
  const ConnectionPtr next =
      links_.pin(route.target_site == config_.site
                     ? BatchLink{LinkKind::kNode, route.target_node}
                     : BatchLink{LinkKind::kSite, route.target_site});
  if (next == nullptr)
    return respond_error(
        conn, envelope,
        error(ErrorCode::kNotFound, "no route to " + route.target_site));

  if (envelope.op == proto::OpCode::kTunnelClose) {
    (void)next->notify(envelope.op, envelope.payload);
    return;
  }

  // The reply's continuation answers the source, pinned past a reconnect
  // that may retire it, under the request's trace.
  next->call_async(
      envelope.op, envelope.payload, next->allocate_request_id(),
      30 * kMicrosPerSecond,
      [source = conn.shared_from_this(), request = envelope,
       trace = telemetry::Tracer::current()](
          Result<proto::Envelope> response) {
        telemetry::ScopedTraceContext scope(trace);
        if (!response.is_ok())
          return respond_error(*source, request, response.status());
        (void)source->respond(request, response.value().op,
                              response.value().payload);
      });
}

// ------------------------------------------------------------ span export

void ProxyServer::record_trace_route(std::uint64_t trace_id,
                                     const std::string& peer) {
  // Own traces never need a route: exports for them terminate here.
  if (telemetry::Tracer::global().originated_here(trace_id)) return;
  std::lock_guard<std::mutex> lock(trace_routes_mutex_);
  const auto [it, inserted] = trace_routes_.insert_or_assign(trace_id, peer);
  if (!inserted) return;  // refreshed an existing route
  trace_routes_order_.push_back(trace_id);
  while (trace_routes_order_.size() > kMaxTraceRoutes) {
    trace_routes_.erase(trace_routes_order_.front());
    trace_routes_order_.pop_front();
  }
}

std::string ProxyServer::trace_route(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(trace_routes_mutex_);
  const auto it = trace_routes_.find(trace_id);
  return it == trace_routes_.end() ? std::string() : it->second;
}

void ProxyServer::handle_trace_export(const proto::Envelope& envelope) {
  Result<proto::TraceExport> parsed =
      proto::TraceExport::parse(envelope.payload);
  if (!parsed.is_ok()) return;
  telemetry::Tracer& tracer = telemetry::Tracer::global();

  // Spans of traces this proxy originated land in the local ring; the rest
  // keep flowing hop-by-hop toward wherever their trace came from.
  std::map<std::string, std::vector<proto::ExportedSpan>> forward;
  for (proto::ExportedSpan& span : parsed.value().spans) {
    if (tracer.originated_here(span.trace_id)) {
      telemetry::SpanRecord record;
      record.trace_id = span.trace_id;
      record.span_id = span.span_id;
      record.parent_span_id = span.parent_span_id;
      record.name = span.name;
      record.component = span.component;
      record.start_micros = span.start_micros;
      record.end_micros = span.end_micros;
      record.ok = span.ok;
      record.note = span.note;
      tracer.import_span(record);
    } else if (std::string next = trace_route(span.trace_id);
               !next.empty()) {
      forward[next].push_back(std::move(span));
    }
    // No known route toward the origin: drop the span (the route table is
    // bounded, so very old traces can age out of it).
  }
  for (auto& [site, spans] : forward) {
    Connection* conn = links_.live({LinkKind::kSite, site});
    if (conn == nullptr) continue;
    proto::TraceExport out;
    out.exporter_site = parsed.value().exporter_site;
    out.spans = std::move(spans);
    (void)conn->notify(proto::OpCode::kTraceExport, out.serialize());
  }
}

// ---------------------------------------------------------- introspection

Status ProxyServer::register_extension(proto::OpCode op,
                                       ExtensionHandler handler) {
  if (static_cast<std::uint16_t>(op) <
      static_cast<std::uint16_t>(proto::OpCode::kExtensionBase))
    return error(ErrorCode::kInvalidArgument,
                 "extension ops start at kExtensionBase");
  std::lock_guard<std::mutex> lock(extensions_mutex_);
  const auto [it, inserted] = extensions_.emplace(op, std::move(handler));
  if (!inserted)
    return error(ErrorCode::kAlreadyExists,
                 std::string("extension already registered for ") +
                     proto::opcode_name(op));
  return Status::ok();
}

Status ProxyServer::dispatch_extension(const proto::Envelope& envelope,
                                       Connection& conn) {
  ExtensionHandler handler;
  {
    std::lock_guard<std::mutex> lock(extensions_mutex_);
    const auto it = extensions_.find(envelope.op);
    if (it == extensions_.end())
      return error(ErrorCode::kNotFound,
                   std::string("no handler for op ") +
                       proto::opcode_name(envelope.op));
    handler = it->second;
  }
  return handler(envelope, conn);
}

struct ProxyServer::RetryCall {
  BatchLink link;
  proto::OpCode op;
  Bytes payload;
  TimeMicros deadline;
  std::uint64_t salt;  // backoff jitter
  telemetry::TraceContext trace;
  Connection::ReplyCallback done;
  std::uint32_t attempt = 1;
  Status last;
  // Ids are per connection: attempts on the same connection reuse the id
  // (the receiver dedups) while a reconnect's fresh connection gets a new
  // one.
  std::weak_ptr<Connection> id_conn;
  std::uint64_t request_id = 0;
};

void ProxyServer::call_with_retry(const BatchLink& link, proto::OpCode op,
                                  BytesView payload, TimeMicros timeout,
                                  Connection::ReplyCallback done) {
  auto call = std::make_shared<RetryCall>();
  call->link = link;
  call->op = op;
  call->payload.assign(payload.begin(), payload.end());
  call->deadline = steady_micros() + timeout;
  // Jitter salt: deterministic per (target, op) stream, no RNG plumbing.
  call->salt =
      std::hash<std::string>{}(link.name) ^ static_cast<std::uint64_t>(op);
  call->trace = telemetry::Tracer::current();
  call->done = std::move(done);
  begin_task();
  retry_attempt(call);
}

void ProxyServer::retry_attempt(const std::shared_ptr<RetryCall>& call) {
  telemetry::ScopedTraceContext scope(call->trace);
  const ConnectionPtr conn = links_.pin(call->link);
  if (conn == nullptr || !conn->alive()) {
    call->last =
        error(ErrorCode::kUnavailable, "no connection to " + call->link.name);
    return retry_failed(call);
  }
  const TimeMicros remaining = call->deadline - steady_micros();
  if (remaining <= 0) return retry_failed(call);
  if (call->id_conn.lock() != conn) {
    call->id_conn = conn;
    call->request_id = conn->allocate_request_id();
  }
  conn->call_async(
      call->op, call->payload, call->request_id,
      std::min(config_.retry.per_try_timeout, remaining),
      [this, call](Result<proto::Envelope> response) {
        if (response.is_ok()) return retry_done(call, std::move(response));
        call->last = response.status();
        if (call->last.code() == ErrorCode::kDeadlineExceeded)
          instruments_.deadline_exceeded.increment();
        if (!is_transient(call->last))
          return retry_done(call, std::move(response));
        retry_failed(call);
      });
}

void ProxyServer::retry_failed(const std::shared_ptr<RetryCall>& call) {
  const RetryPolicy& policy = config_.retry;
  const TimeMicros remaining = call->deadline - steady_micros();
  if (remaining <= 0) {
    instruments_.deadline_exceeded.increment();
    return retry_done(call, error(ErrorCode::kDeadlineExceeded,
                                  "retry budget for " + call->link.name +
                                      " exhausted: " + call->last.to_string()));
  }
  if (call->attempt >= policy.max_attempts) return retry_done(call, call->last);
  if (is_shut_down())
    return retry_done(
        call, error(ErrorCode::kUnavailable, config_.site + " shut down"));
  instruments_.retries.increment();
  const TimeMicros backoff = std::min(
      retry_backoff(policy, call->attempt, call->salt + call->request_id),
      remaining);
  ++call->attempt;
  // The timer may safely touch the proxy: shutdown() waits for this chain.
  net::Reactor::global().schedule_timer(
      backoff, [this, call] { retry_attempt(call); });
}

void ProxyServer::retry_done(const std::shared_ptr<RetryCall>& call,
                             Result<proto::Envelope> result) {
  call->done(std::move(result));
  end_task();
}

void ProxyServer::begin_task() {
  std::lock_guard<std::mutex> lock(tasks_mutex_);
  ++tasks_in_flight_;
}

void ProxyServer::end_task() {
  // Last touch of the proxy: shutdown() may return once the count is 0.
  std::lock_guard<std::mutex> lock(tasks_mutex_);
  if (--tasks_in_flight_ == 0) tasks_idle_.notify_all();
}

Result<proto::Envelope> ProxyServer::call_peer(const std::string& site,
                                               proto::OpCode op,
                                               BytesView payload,
                                               TimeMicros timeout) {
  instruments_.control_calls_sent.increment();
  return await_result<Result<proto::Envelope>>(
      [&](Connection::ReplyCallback done) {
        call_with_retry({LinkKind::kSite, site}, op, payload, timeout,
                        std::move(done));
      });
}

Status ProxyServer::notify_peer(const std::string& site, proto::OpCode op,
                                BytesView payload) {
  Connection* conn = links_.live({LinkKind::kSite, site});
  if (conn == nullptr)
    return error(ErrorCode::kUnavailable, "no connection to site " + site);
  instruments_.control_notifies_sent.increment();
  return conn->notify(op, payload);
}

ProxyMetrics ProxyServer::metrics() const { return instruments_.snapshot(); }

// ------------------------------------------------------------ resilience

void ProxyServer::on_peer_down(const std::string& site, const Status& reason) {
  // A reconnect may already have replaced the dead connection (this fires
  // from the OLD connection's reader); if a live link exists, there is
  // nothing to purge.
  if (peer_alive(site)) return;

  PG_WARN << config_.site << ": peer " << site
          << " down: " << reason.to_string();

  // Scheduling/status: stop advertising the dead site's nodes.
  status_cache_.forget(site);

  // Sibling shard death: hand the collector lease to the next shard in
  // index order (an epoch bump, so the dead holder's delayed reports lose
  // everywhere) and stop merging its partial report into site_status().
  if (site != config_.site && site_of_shard(site) == logical_site()) {
    lease_.mark_down(site);
    shard_board_.forget(site);
  }

  // Tunnels: drop every route through the dead site.
  {
    std::lock_guard<std::mutex> lock(tunnels_mutex_);
    for (auto it = tunnels_.begin(); it != tunnels_.end();) {
      if (it->second.target_site == site) {
        it = tunnels_.erase(it);
        instruments_.open_tunnels.add(-1);
      } else {
        ++it;
      }
    }
  }

  // Runs waiting on the dead site fail fast (retryable) instead of timing
  // out; apps the dead site originated will never be started or closed by
  // it, so close them here.
  std::vector<std::uint64_t> waiting_runs;
  std::vector<std::uint64_t> orphaned_apps;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    for (const auto& [app_id, run] : runs_) {
      if (run.pending_sites.count(site) > 0) waiting_runs.push_back(app_id);
    }
    for (const auto& [app_id, app] : apps_) {
      if (app.origin_site == site) orphaned_apps.push_back(app_id);
    }
  }
  for (const std::uint64_t app_id : waiting_runs) {
    fail_run(app_id,
             error(ErrorCode::kUnavailable, "site " + site + " died mid-run"));
  }
  for (const std::uint64_t app_id : orphaned_apps) {
    close_app_locally(app_id);
  }
}

void ProxyServer::on_node_down(const std::string& node, const Status& reason) {
  PG_WARN << config_.site << ": node " << node
          << " down: " << reason.to_string();

  // Any app with ranks placed on the node cannot complete. Fail local
  // runs; for apps another site launched here, notify the origin so ITS
  // run fails (and its job layer re-dispatches).
  struct Affected {
    std::uint64_t app_id = 0;
    std::string origin_site;
  };
  std::vector<Affected> affected;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    for (const auto& [app_id, app] : apps_) {
      if (app.pending_nodes.count(node) > 0)
        affected.push_back({app_id, app.origin_site});
    }
  }
  for (const auto& app : affected)
    abort_run(app.app_id, app.origin_site, "node " + node + " died mid-run");
}

void ProxyServer::handle_shard_status(const proto::Envelope& envelope) {
  Result<proto::ShardStatus> gossip =
      proto::ShardStatus::parse(envelope.payload);
  if (!gossip.is_ok()) return;
  const proto::ShardStatus& status = gossip.value();
  // Only siblings of this logical site participate in the group.
  if (status.shard == config_.site ||
      site_of_shard(status.shard) != logical_site())
    return;
  lease_.mark_up(status.shard);
  lease_.observe_epoch(status.lease_epoch);
  shard_board_.update(status.report, config_.clock->now(),
                      status.lease_epoch);
}

void ProxyServer::shard_gossip_fire() {
  proto::ShardStatus gossip;
  gossip.shard = config_.site;
  gossip.lease_epoch = lease_.epoch();
  gossip.report = local_status();
  const Bytes payload = gossip.serialize();
  for (const auto& sibling : shard_siblings()) {
    if (notify_peer(sibling, proto::OpCode::kShardStatus, payload).is_ok())
      instruments_.shard_status_gossip.increment();
  }
}

void ProxyServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Stop the timers and the down reactions before touching connections so
  // none of them races the close sweep below.
  shard_gossip_.stop();
  links_.stop();

  // Cancel the data-plane timer (whatever is still unacked dies with the
  // proxy), then push out whatever is still queued while the links are up
  // (frames for dead links are dropped).
  batch_sender_.shutdown();
  instruments_.frames_dropped(DropReason::kLinkDown,
                              batch_sender_.teardown_flush());

  links_.close_all();
  job_workers_.shutdown();
  // Closing the links failed every attempt in flight and a retry chain
  // gives up once the proxy is shut down, so each chain ends by its next
  // backoff; one may still be finishing on a reactor thread. No handler
  // runs any more, so no login gets offloaded after this; one already
  // offloaded finishes its stretch.
  {
    std::unique_lock<std::mutex> lock(tasks_mutex_);
    tasks_idle_.wait(lock, [this] { return tasks_in_flight_ == 0; });
  }
  runs_cv_.notify_all();
}

}  // namespace pg::proxy
