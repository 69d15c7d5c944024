// PeerTable — layer 1 (Communication) of the border proxy: the one table of
// connections to other sites' proxies (site links) and to this site's nodes
// (node links), keyed by BatchLink. It owns insert and reconnect rules,
// lookups, close accounting, heartbeat liveness of site links and the
// shutdown sweep; the owner keeps handshakes and the per-kind purge, which
// it runs from one down callback.
//
// Lock rule: no connection is closed under the table lock. close() waits
// out the reactor's remove barrier, and a handler mid-dispatch on that I/O
// thread may itself be waiting on the table (get/live); close() also fires
// the down callback, which reads the table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/reactor.hpp"
#include "proxy/connection.hpp"
#include "proxy/metrics.hpp"
#include "proxy/reliable_batch.hpp"

namespace pg::proxy {

class PeerTable {
 public:
  /// Reaction to a lost link, called after the close accounting (on the
  /// closing thread, or on the link's reactor I/O thread when the peer went
  /// away) unless stop() ran first. Must not block.
  using DownHandler = std::function<void(const BatchLink&, const Status&)>;

  /// `site` labels disconnects. With `heartbeat_interval` > 0, a reactor
  /// timer probes site links every interval: one silent for more than
  /// `miss_threshold` intervals is closed with a "heartbeat timeout"
  /// reason, every other one gets a kHeartbeat.
  PeerTable(std::string site, ProxyInstruments& instruments,
            DownHandler on_down, TimeMicros heartbeat_interval = 0,
            std::uint32_t miss_threshold = 3);
  ~PeerTable();

  PeerTable(const PeerTable&) = delete;
  PeerTable& operator=(const PeerTable&) = delete;

  /// Takes `conn` (not yet started), wires its close accounting and starts
  /// it. A node link rejects a duplicate name; a site link replaces a dead
  /// connection (closing it) and rejects a live one. A rejected connection
  /// is destroyed without ever firing the down callback.
  Status add(const BatchLink& link, ConnectionPtr conn);

  /// The link's connection, dead or alive; null when unknown. The pointer
  /// stays valid until add() replaces the (dead) link or the table dies.
  Connection* get(const BatchLink& link) const;
  /// get(), as a reference that keeps the connection alive past that: what
  /// a continuation that answers on it later captures.
  ConnectionPtr pin(const BatchLink& link) const;
  /// The link's connection while it is alive; null when unknown or dead.
  Connection* live(const BatchLink& link) const;
  /// Names of every link of `kind`, in name order.
  std::vector<std::string> names(LinkKind kind) const;
  /// One row per link: site links first, then node links.
  std::vector<LinkReport> report() const;

  /// Cancels the heartbeat timer and silences the down callback (close
  /// accounting still runs). Idempotent.
  void stop();
  /// Closes every link; each fires its down path.
  void close_all();

 private:
  void on_close(const BatchLink& link, const Status& reason);
  /// One heartbeat round over the site links.
  void probe();

  const std::string site_;
  ProxyInstruments& instruments_;
  const DownHandler on_down_;
  const TimeMicros heartbeat_interval_;
  const std::uint32_t miss_threshold_;

  mutable std::mutex mutex_;
  std::map<BatchLink, ConnectionPtr> links_;

  std::atomic<bool> stopped_{false};
  net::PeriodicTimer heartbeat_;  // last: armed once the table is whole
};

}  // namespace pg::proxy
