#include "proxy/peer_table.hpp"

#include <algorithm>

namespace pg::proxy {

PeerTable::PeerTable(std::string site, ProxyInstruments& instruments,
                     DownHandler on_down, TimeMicros heartbeat_interval,
                     std::uint32_t miss_threshold)
    : site_(std::move(site)),
      instruments_(instruments),
      on_down_(std::move(on_down)),
      heartbeat_interval_(heartbeat_interval),
      miss_threshold_(std::max<std::uint32_t>(1, miss_threshold)),
      heartbeat_(heartbeat_interval, [this] { probe(); }) {}

PeerTable::~PeerTable() { stop(); }

Status PeerTable::add(const BatchLink& link, ConnectionPtr conn) {
  Connection* raw = conn.get();
  ConnectionPtr retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = links_.try_emplace(link);
    if (!inserted) {
      if (link.kind == LinkKind::kNode)
        return error(ErrorCode::kAlreadyExists,
                     "node already attached: " + link.name);
      if (it->second->alive())
        return error(ErrorCode::kAlreadyExists,
                     "peer already connected: " + link.name);
      // Reconnection after a failure: retire the dead connection. A
      // continuation that pinned it still holds it until it answers.
      retired = std::move(it->second);
    }
    it->second = std::move(conn);
  }
  instruments_.open_connections.add(1);
  if (link.kind == LinkKind::kNode) instruments_.shard_owned_keys.add(1);
  raw->set_on_close(
      [this, link](const Status& reason) { on_close(link, reason); });
  if (retired) retired->close();
  raw->start();
  return Status::ok();
}

Connection* PeerTable::get(const BatchLink& link) const {
  return pin(link).get();
}

ConnectionPtr PeerTable::pin(const BatchLink& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = links_.find(link);
  return it == links_.end() ? nullptr : it->second;
}

Connection* PeerTable::live(const BatchLink& link) const {
  const ConnectionPtr conn = pin(link);
  return conn != nullptr && conn->alive() ? conn.get() : nullptr;
}

std::vector<std::string> PeerTable::names(LinkKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [link, conn] : links_)
    if (link.kind == kind) out.push_back(link.name);
  return out;
}

std::vector<LinkReport> PeerTable::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LinkReport> out;
  out.reserve(links_.size());
  for (const auto& [link, conn] : links_) {
    out.push_back(LinkReport{link.name, link.kind == LinkKind::kSite,
                             conn->is_encrypted(), conn->link_stats()});
  }
  return out;
}

void PeerTable::stop() {
  stopped_.store(true, std::memory_order_release);
  heartbeat_.stop();
}

void PeerTable::close_all() {
  std::vector<ConnectionPtr> open;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open.reserve(links_.size());
    for (const auto& [link, conn] : links_) open.push_back(conn);
  }
  for (const ConnectionPtr& conn : open) conn->close();
}

void PeerTable::on_close(const BatchLink& link, const Status& reason) {
  instruments_.disconnect(site_, link.name, reason);
  instruments_.open_connections.add(-1);
  if (link.kind == LinkKind::kNode) instruments_.shard_owned_keys.add(-1);
  if (!stopped_.load(std::memory_order_acquire)) on_down_(link, reason);
}

void PeerTable::probe() {
  const TimeMicros now = steady_micros();
  std::vector<std::pair<ConnectionPtr, TimeMicros>> sites;  // with idle time
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [link, conn] : links_)
      if (link.kind == LinkKind::kSite && conn->alive())
        sites.emplace_back(conn, now - conn->last_activity());
  }
  for (const auto& [conn, idle] : sites) {
    if (idle > heartbeat_interval_) instruments_.heartbeat_missed.increment();
    if (idle > heartbeat_interval_ * miss_threshold_) {
      // Declare the peer dead; the down callback purges its state.
      conn->close(error(ErrorCode::kUnavailable,
                        "heartbeat timeout: peer silent for " +
                            std::to_string(idle) + "us"));
    } else {
      (void)conn->notify(proto::OpCode::kHeartbeat, {});
    }
  }
}

}  // namespace pg::proxy
