#include "proxy/node_agent.hpp"

#include "common/logging.hpp"
#include "common/serde.hpp"
#include "mpi/mailbox.hpp"
#include "proxy/resilience.hpp"

namespace pg::proxy {

// ---------------------------------------------------------------- App

struct NodeAgent::App {
  AppRouting routing;
  std::vector<std::uint32_t> local_ranks;  // ranks hosted on this node
  /// Shared so the data path can deliver after releasing apps_mutex_; a
  /// mailbox closed by teardown meanwhile rejects the message.
  std::map<std::uint32_t, std::shared_ptr<mpi::Mailbox>> mailboxes;
  std::unique_ptr<AppFabric> fabric;
  /// Runs the node's ranks on a ThreadCache thread; set by kMpiStart.
  ThreadCache::Handle runner;
  bool started = false;
};

class NodeAgent::AppFabric final : public mpi::Fabric {
 public:
  AppFabric(NodeAgent& agent, std::uint64_t app_id, std::uint32_t world_size)
      : agent_(agent), app_id_(app_id), world_size_(world_size) {}

  Status send(const mpi::MpiMessage& message) override {
    return agent_.fabric_send(app_id_, message);
  }

  Status multicast(const mpi::MpiMessage& message,
                   const std::vector<std::uint32_t>& dst_ranks) override {
    return agent_.fabric_multicast(app_id_, message, dst_ranks);
  }

  Status send_batch(const std::vector<mpi::MpiMessage>& messages) override {
    return agent_.fabric_send_batch(app_id_, messages);
  }

  Result<mpi::MpiMessage> recv(std::uint32_t rank, std::int32_t src,
                               std::int32_t tag) override {
    mpi::Mailbox* mailbox = nullptr;
    {
      std::lock_guard<std::mutex> lock(agent_.apps_mutex_);
      const auto it = agent_.apps_.find(app_id_);
      if (it == agent_.apps_.end())
        return error(ErrorCode::kUnavailable, "application torn down");
      const auto mb = it->second->mailboxes.find(rank);
      if (mb == it->second->mailboxes.end())
        return error(ErrorCode::kInvalidArgument,
                     "rank not hosted on this node");
      mailbox = mb->second.get();
    }
    // Mailbox outlives this call: apps are only destroyed after their
    // runner (the only caller) has finished.
    return mailbox->recv(src, tag);
  }

  std::uint32_t world_size() const override { return world_size_; }

 private:
  NodeAgent& agent_;
  std::uint64_t app_id_;
  std::uint32_t world_size_;
};

// ------------------------------------------------------------- lifecycle

NodeAgent::NodeAgent(NodeAgentConfig config)
    : config_(std::move(config)),
      batch_sender_(
          config_.site + "/" + config_.node_name, config_.window,
          [this](const BatchLink&) { return connection_.get(); },
          BatchSenderInstruments{
              telemetry::MetricRegistry::global().counter(
                  "pg_mpi_retransmit_total",
                  "kMpiBatch envelopes retransmitted after an RTO",
                  {{"site", config_.site}, {"sender", config_.node_name}}),
              telemetry::MetricRegistry::global().histogram(
                  "pg_mpi_ack_rtt_micros",
                  "kMpiBatchAck round-trip time, clean (never-retransmitted) "
                  "batches",
                  telemetry::duration_buckets_micros(),
                  {{"site", config_.site}, {"sender", config_.node_name}})}),
      // Proxies key relayed tunnels by id alone: a per-node 64-bit salt
      // keeps every node's ids apart with no protocol change.
      next_tunnel_id_(
          std::hash<std::string>{}(config_.site + "/" + config_.node_name)) {}

Result<std::unique_ptr<NodeAgent>> NodeAgent::create(NodeAgentConfig config,
                                                     net::ChannelPtr channel) {
  std::unique_ptr<NodeAgent> agent(new NodeAgent(std::move(config)));

  tls::MessageLinkPtr link;
  if (agent->config_.encrypted) {
    if (agent->config_.clock == nullptr)
      return error(ErrorCode::kInvalidArgument,
                   "encrypted node link needs a clock");
    if (agent->config_.gssl.resumption_store == nullptr)
      agent->config_.gssl.resumption_store = &agent->resumption_store_;
    Rng rng(agent->config_.rng_seed);
    Result<tls::GsslSessionPtr> session = tls::gssl_client_handshake(
        *channel, agent->config_.gssl, *agent->config_.clock, rng);
    if (!session.is_ok()) return session.status();
    link = tls::make_secure_link(session.take());
  } else {
    link = tls::make_plain_link(*channel);
  }

  NodeAgent* raw = agent.get();
  agent->connection_ = std::make_unique<Connection>(
      "proxy." + agent->config_.site, std::move(channel), std::move(link),
      /*initiator=*/true,
      [raw](const proto::Envelope& env, Connection& conn) {
        raw->handle(env, conn);
      });
  // Spans this node finishes for traces started elsewhere flow up to the
  // proxy, which forwards them toward the trace origin (kTraceExport).
  agent->connection_->set_span_export(
      true, agent->config_.site + "/" + agent->config_.node_name);
  agent->connection_->start();
  return agent;
}

NodeAgent::~NodeAgent() { shutdown(); }

void NodeAgent::shutdown() {
  // Cancel the retransmission timer first; it never re-arms afterwards.
  batch_sender_.shutdown();
  // Wake any rank blocked in recv, then wait for the runners.
  std::map<std::uint64_t, std::shared_ptr<App>> apps;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    apps.swap(apps_);
  }
  for (auto& [id, app] : apps) {
    for (auto& [rank, mailbox] : app->mailboxes) mailbox->close();
    app->runner.wait();
  }
  if (connection_) connection_->close();
  // No handler runs any more, so no further cleanup or service call gets
  // handed off.
  std::vector<ThreadCache::Handle> cleanups;
  {
    std::lock_guard<std::mutex> lock(cleanups_mutex_);
    cleanups.swap(cleanups_);
  }
  for (const ThreadCache::Handle& cleanup : cleanups) cleanup.wait();
}

void NodeAgent::after_runner(const ThreadCache::Handle& runner,
                             std::function<void()> cleanup) {
  if (runner.done()) {
    if (cleanup) cleanup();
    return;
  }
  track(ThreadCache::run([runner, cleanup = std::move(cleanup)] {
    runner.wait();
    if (cleanup) cleanup();
  }));
}

void NodeAgent::track(ThreadCache::Handle task) {
  std::lock_guard<std::mutex> lock(cleanups_mutex_);
  std::erase_if(cleanups_,
                [](const ThreadCache::Handle& done) { return done.done(); });
  cleanups_.push_back(std::move(task));
}

// ------------------------------------------------------------ dispatch

void NodeAgent::handle(const proto::Envelope& envelope, Connection& conn) {
  switch (envelope.op) {
    case proto::OpCode::kMpiOpen:
      handle_mpi_open(envelope, conn);
      return;
    case proto::OpCode::kMpiStart:
      handle_mpi_start(envelope);
      return;
    case proto::OpCode::kMpiBatch:
      handle_mpi_batch(envelope);
      return;
    case proto::OpCode::kMpiBatchAck:
      handle_mpi_batch_ack(envelope);
      return;
    case proto::OpCode::kMpiClose:
      handle_mpi_close(envelope);
      return;
    case proto::OpCode::kTunnelOpen:
      handle_tunnel_open(envelope, conn);
      return;
    case proto::OpCode::kTunnelData:
      handle_tunnel_data(envelope, conn);
      return;
    case proto::OpCode::kTunnelClose:
      handle_tunnel_close(envelope);
      return;
    case proto::OpCode::kPing:
      (void)conn.respond(envelope, proto::OpCode::kPong, {});
      return;
    default:
      PG_WARN << "node " << config_.node_name << ": unexpected op "
              << proto::opcode_name(envelope.op);
  }
}

void NodeAgent::handle_mpi_open(const proto::Envelope& envelope,
                                Connection& conn) {
  Result<proto::MpiOpen> open = proto::MpiOpen::parse(envelope.payload);
  proto::MpiOpenAck ack;
  if (!open.is_ok()) {
    ack.ok = false;
    ack.reason = open.status().to_string();
    (void)conn.respond(envelope, proto::OpCode::kMpiOpenAck, ack.serialize());
    return;
  }
  ack.app_id = open.value().app_id;

  if (!mpi::AppRegistry::instance().has_app(open.value().executable)) {
    ack.ok = false;
    ack.reason = "executable not installed: " + open.value().executable;
    (void)conn.respond(envelope, proto::OpCode::kMpiOpenAck, ack.serialize());
    return;
  }

  auto app = std::make_shared<App>();
  app->routing.app_id = open.value().app_id;
  app->routing.executable = open.value().executable;
  app->routing.world_size = open.value().world_size;
  app->routing.placements = open.value().placements;
  app->routing.build_index();
  app->local_ranks =
      app->routing.ranks_on_node(config_.site, config_.node_name);
  for (std::uint32_t rank : app->local_ranks) {
    app->mailboxes.emplace(rank, std::make_shared<mpi::Mailbox>());
  }
  app->fabric = std::make_unique<AppFabric>(*this, app->routing.app_id,
                                            app->routing.world_size);

  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    apps_[app->routing.app_id] = std::move(app);
  }
  ack.ok = true;
  (void)conn.respond(envelope, proto::OpCode::kMpiOpenAck, ack.serialize());
}

void NodeAgent::handle_mpi_start(const proto::Envelope& envelope) {
  Result<proto::MpiClose> start = proto::MpiClose::parse(envelope.payload);
  if (!start.is_ok()) return;
  const std::uint64_t app_id = start.value().app_id;

  std::shared_ptr<App> app;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end() || it->second->started) return;
    app = it->second;
    app->started = true;
  }

  // Hand the runner off with no lock held. The task owns a reference to
  // the app, since shutdown() may take it from apps_ meanwhile.
  ThreadCache::Handle runner = ThreadCache::run([this, app, app_id] {
    Result<mpi::AppFn> fn =
        mpi::AppRegistry::instance().lookup(app->routing.executable);
    std::uint32_t exit_code = 0;
    if (!fn.is_ok()) {
      exit_code = 127;
    } else {
      const mpi::RunReport report =
          mpi::run_ranks(*app->fabric, fn.value(), app->local_ranks,
                         app->routing.world_size);
      // kUnavailable means the fabric/mailboxes were torn down under the
      // app (node or link failure), not that the app itself failed —
      // report kNodeLostExit so the origin proxy treats it as retryable.
      exit_code = report.status.is_ok() ? 0
                  : report.status.code() == ErrorCode::kUnavailable
                      ? kNodeLostExit
                      : 1;
    }
    proto::JobComplete done;
    done.job_id = app_id;
    done.exit_code = exit_code;
    done.output = to_bytes(config_.node_name);  // which node finished
    (void)connection_->notify(proto::OpCode::kMpiDone, done.serialize());
  });
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it != apps_.end() && it->second == app) {
      app->runner = std::move(runner);
      return;
    }
  }
  // shutdown() took the app before the runner was recorded, so it could
  // not wait for it; it waits for the deferred wait instead.
  after_runner(runner, nullptr);
}

void NodeAgent::handle_mpi_batch(const proto::Envelope& envelope) {
  const BatchReceipt receipt = batch_receiver_.receive(
      envelope.payload, proxy_link(), batch_sender_,
      [this](proto::MpiBatch& batch) {
        // Deliver after releasing apps_mutex_: the woken rank often runs at
        // once and sends its reply, which takes apps_mutex_ too.
        std::vector<std::pair<std::shared_ptr<mpi::Mailbox>, mpi::MpiMessage>>
            deliveries;
        {
          std::lock_guard<std::mutex> lock(apps_mutex_);
          for (proto::MpiFrame& frame : batch.frames) {
            const auto it = apps_.find(frame.app_id);
            if (it == apps_.end()) {
              PG_WARN << "node " << config_.node_name
                      << ": MpiBatch for unknown app " << frame.app_id;
              continue;
            }
            for (std::uint32_t dst : frame.dst_ranks) {
              const auto mb = it->second->mailboxes.find(dst);
              if (mb == it->second->mailboxes.end()) {
                PG_WARN << "node " << config_.node_name
                        << ": MpiBatch for foreign rank " << dst;
                continue;
              }
              mpi::MpiMessage message;
              message.src = frame.src_rank;
              message.dst = dst;
              message.tag = frame.tag;
              message.payload = frame.payload;
              deliveries.emplace_back(mb->second, std::move(message));
            }
          }
        }
        for (auto& [mailbox, message] : deliveries)
          (void)mailbox->deliver(std::move(message));
      });
  if (receipt == BatchReceipt::kDuplicate) {
    PG_DEBUG << "node " << config_.node_name << ": duplicate batch";
  } else if (receipt == BatchReceipt::kMalformed) {
    PG_WARN << "node " << config_.node_name << ": bad MpiBatch";
  }
}

void NodeAgent::handle_mpi_batch_ack(const proto::Envelope& envelope) {
  (void)batch_sender_.on_ack(proxy_link(), envelope.payload);
}

void NodeAgent::handle_mpi_close(const proto::Envelope& envelope) {
  Result<proto::MpiClose> close_msg = proto::MpiClose::parse(envelope.payload);
  if (!close_msg.is_ok()) return;

  std::shared_ptr<App> app;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(close_msg.value().app_id);
    if (it == apps_.end()) return;
    app = std::move(it->second);
    apps_.erase(it);
  }
  for (auto& [rank, mailbox] : app->mailboxes) mailbox->close();
  // Stop retrying the app's unacked frames — close means the app is done
  // or aborted everywhere, so nobody can still receive them — once its
  // runner can send no more.
  const std::uint64_t app_id = close_msg.value().app_id;
  after_runner(app->runner, [this, app_id] { drop_app_frames(app_id); });
}

void NodeAgent::drop_app_frames(std::uint64_t app_id) {
  // Cold path: the labelled drop counter is resolved on demand.
  const std::size_t dropped = batch_sender_.drop_app(app_id);
  if (dropped > 0) {
    telemetry::MetricRegistry::global()
        .counter("pg_mpi_frames_dropped_total",
                 "Data frames the reliability layer stopped retrying, "
                 "by reason",
                 {{"site", config_.site},
                  {"sender", config_.node_name},
                  {"reason", "app_closed"}})
        .increment(dropped);
  }
}

// -------------------------------------------------------------- tunnels

void NodeAgent::handle_tunnel_open(const proto::Envelope& envelope,
                                   Connection& conn) {
  Result<proto::TunnelOpen> open = proto::TunnelOpen::parse(envelope.payload);
  if (!open.is_ok()) {
    (void)conn.respond(envelope, proto::OpCode::kError,
                       proto::ErrorMessage{0, "bad tunnel open"}.serialize());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(services_mutex_);
    if (services_.count(open.value().target_service) == 0) {
      proto::ErrorMessage err{
          static_cast<std::uint16_t>(ErrorCode::kNotFound),
          "no service " + open.value().target_service + " on " +
              config_.node_name};
      (void)conn.respond(envelope, proto::OpCode::kError, err.serialize());
      return;
    }
    open_tunnels_[open.value().tunnel_id] = open.value().target_service;
  }
  (void)conn.respond(envelope, proto::OpCode::kTunnelData,
                     proto::TunnelData{open.value().tunnel_id, {}}.serialize());
}

void NodeAgent::handle_tunnel_data(const proto::Envelope& envelope,
                                   Connection& conn) {
  Result<proto::TunnelData> data = proto::TunnelData::parse(envelope.payload);
  if (!data.is_ok()) return;

  ServiceHandler handler;
  {
    std::lock_guard<std::mutex> lock(services_mutex_);
    const auto tunnel = open_tunnels_.find(data.value().tunnel_id);
    if (tunnel == open_tunnels_.end()) {
      proto::ErrorMessage err{
          static_cast<std::uint16_t>(ErrorCode::kNotFound),
          "unknown tunnel"};
      (void)conn.respond(envelope, proto::OpCode::kError, err.serialize());
      return;
    }
    handler = services_[tunnel->second];
  }
  // A user service may block or run long: it runs off the I/O thread, and
  // shutdown() waits for it.
  track(conn.offload(envelope, [handler = std::move(handler),
                                call = data.take()](
                                   const proto::Envelope& request,
                                   Connection& source) {
    const Bytes response = handler(call.payload);
    (void)source.respond(
        request, proto::OpCode::kTunnelData,
        proto::TunnelData{call.tunnel_id, response}.serialize());
  }));
}

void NodeAgent::handle_tunnel_close(const proto::Envelope& envelope) {
  Result<proto::TunnelClose> close_msg =
      proto::TunnelClose::parse(envelope.payload);
  if (!close_msg.is_ok()) return;
  std::lock_guard<std::mutex> lock(services_mutex_);
  open_tunnels_.erase(close_msg.value().tunnel_id);
}

// ---------------------------------------------------------------- sends

Status NodeAgent::fabric_send(std::uint64_t app_id,
                              const mpi::MpiMessage& message) {
  // Same-node delivery goes straight to the local mailbox (real MPI uses
  // shared memory for this); everything else goes up to the proxy.
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end())
      return error(ErrorCode::kUnavailable, "application torn down");
    const auto mb = it->second->mailboxes.find(message.dst);
    if (mb != it->second->mailboxes.end()) {
      return mb->second->deliver(message);
    }
  }

  // Even a single message rides a kMpiBatch so the proxy can ack it by
  // (origin, seq) and the node can retransmit it.
  proto::MpiFrame frame;
  frame.app_id = app_id;
  frame.src_rank = message.src;
  frame.tag = message.tag;
  frame.dst_ranks = {message.dst};
  frame.payload = message.payload;
  std::vector<proto::MpiFrame> frames;
  frames.push_back(std::move(frame));
  return send_batch(std::move(frames));
}

Status NodeAgent::send_batch(std::vector<proto::MpiFrame> frames) {
  return batch_sender_.enqueue(proxy_link(), std::move(frames));
}

Status NodeAgent::fabric_multicast(std::uint64_t app_id,
                                   const mpi::MpiMessage& message,
                                   const std::vector<std::uint32_t>& dst_ranks) {
  // Local destinations get direct mailbox deliveries; every remote
  // destination shares ONE frame in one kMpiBatch envelope — the payload
  // crosses the node->proxy link once, and the proxies fan it out.
  std::vector<std::uint32_t> remote;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end())
      return error(ErrorCode::kUnavailable, "application torn down");
    for (std::uint32_t dst : dst_ranks) {
      const auto mb = it->second->mailboxes.find(dst);
      if (mb == it->second->mailboxes.end()) {
        remote.push_back(dst);
        continue;
      }
      mpi::MpiMessage local = message;
      local.dst = dst;
      PG_RETURN_IF_ERROR(mb->second->deliver(std::move(local)));
    }
  }
  if (remote.empty()) return Status::ok();

  proto::MpiFrame frame;
  frame.app_id = app_id;
  frame.src_rank = message.src;
  frame.tag = message.tag;
  frame.dst_ranks = std::move(remote);
  frame.payload = message.payload;
  std::vector<proto::MpiFrame> frames;
  frames.push_back(std::move(frame));
  return send_batch(std::move(frames));
}

Status NodeAgent::fabric_send_batch(
    std::uint64_t app_id, const std::vector<mpi::MpiMessage>& messages) {
  std::vector<proto::MpiFrame> frames;
  {
    std::lock_guard<std::mutex> lock(apps_mutex_);
    const auto it = apps_.find(app_id);
    if (it == apps_.end())
      return error(ErrorCode::kUnavailable, "application torn down");
    for (const mpi::MpiMessage& message : messages) {
      const auto mb = it->second->mailboxes.find(message.dst);
      if (mb != it->second->mailboxes.end()) {
        PG_RETURN_IF_ERROR(mb->second->deliver(message));
        continue;
      }
      proto::MpiFrame frame;
      frame.app_id = app_id;
      frame.src_rank = message.src;
      frame.tag = message.tag;
      frame.dst_ranks = {message.dst};
      frame.payload = message.payload;
      frames.push_back(std::move(frame));
    }
  }
  if (frames.empty()) return Status::ok();
  return send_batch(std::move(frames));
}

// -------------------------------------------------------------- services

void NodeAgent::register_service(const std::string& service,
                                 ServiceHandler handler) {
  std::lock_guard<std::mutex> lock(services_mutex_);
  services_[service] = std::move(handler);
}

Result<Bytes> NodeAgent::call_service(const std::string& site,
                                      const std::string& node,
                                      const std::string& service,
                                      BytesView request, TimeMicros timeout) {
  const std::uint64_t tunnel_id =
      next_tunnel_id_.fetch_add(1, std::memory_order_relaxed);

  proto::TunnelOpen open{tunnel_id, site, node, service};
  Result<proto::Envelope> open_ack =
      connection_->call(proto::OpCode::kTunnelOpen, open.serialize(), timeout);
  if (!open_ack.is_ok()) return open_ack.status();
  if (open_ack.value().op == proto::OpCode::kError) {
    Result<proto::ErrorMessage> err =
        proto::ErrorMessage::parse(open_ack.value().payload);
    return error(ErrorCode::kUnavailable,
                 err.is_ok() ? err.value().message : "tunnel open failed");
  }

  proto::TunnelData data{tunnel_id, Bytes(request.begin(), request.end())};
  Result<proto::Envelope> reply =
      connection_->call(proto::OpCode::kTunnelData, data.serialize(), timeout);
  (void)connection_->notify(proto::OpCode::kTunnelClose,
                            proto::TunnelClose{tunnel_id}.serialize());
  if (!reply.is_ok()) return reply.status();
  if (reply.value().op == proto::OpCode::kError) {
    Result<proto::ErrorMessage> err =
        proto::ErrorMessage::parse(reply.value().payload);
    return error(ErrorCode::kUnavailable,
                 err.is_ok() ? err.value().message : "tunnel call failed");
  }
  Result<proto::TunnelData> response =
      proto::TunnelData::parse(reply.value().payload);
  if (!response.is_ok()) return response.status();
  return std::move(response.value().payload);
}

Status NodeAgent::ping(TimeMicros timeout) {
  return connection_->call(proto::OpCode::kPing, {}, timeout).status();
}

}  // namespace pg::proxy
