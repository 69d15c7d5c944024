// The reliable kMpiBatch data plane, shared by ProxyServer and NodeAgent.
//
// Every MPI message that leaves a node or crosses a site rides a kMpiBatch
// envelope identified by (origin, seq). The two halves below are the only
// implementation of that stream's reliability:
//
//   ReliableBatchSender    stamps each batch with the link's next seq,
//                          tracks it in the link's SenderWindow, resends
//                          it from one reactor RTO timer until a
//                          kMpiBatchAck covers it, and applies those acks
//                          (origin check, RTT samples, in-flight gauge).
//   ReliableBatchReceiver  drops duplicate batches whole (dedup window) and
//                          answers every arrival, duplicates included, with
//                          the kMpiBatchAck of its origin's coverage.
//
// A proxy sends down site links (to peer proxies) and node links (to its
// node agents); a node agent sends down its one link to the site proxy.
// Windows outlive connections: a batch tracked before a reconnect is
// retransmitted on whatever connection the caller's resolver returns.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "proto/messages.hpp"
#include "proxy/batch_window.hpp"
#include "proxy/connection.hpp"
#include "proxy/sender_window.hpp"
#include "telemetry/metrics.hpp"

namespace pg::proxy {

/// Which class of link a sender window serves.
enum class LinkKind : std::uint8_t { kSite, kNode };

/// One outgoing data link, named by the peer it reaches (site or node
/// names may coincide, hence the kind).
struct BatchLink {
  LinkKind kind = LinkKind::kSite;
  std::string name;

  friend auto operator<=>(const BatchLink&, const BatchLink&) = default;
};

/// Where a sender reports its reliability work.
struct BatchSenderInstruments {
  /// Batches resent after an RTO (pg_mpi_retransmit_total).
  telemetry::Counter& retransmits;
  /// Ack RTT of never-retransmitted batches (pg_mpi_ack_rtt_micros).
  telemetry::Histogram& ack_rtt;
  /// Unacknowledged wire bytes across all windows; optional.
  telemetry::Gauge* inflight_bytes = nullptr;
};

class ReliableBatchSender {
 public:
  /// Returns the link's current connection, or null when it has none.
  /// Called outside the sender's lock, at retransmit time.
  using Resolve = std::function<Connection*(const BatchLink&)>;

  /// `origin` is this process's batch identity (see proto::MpiBatch).
  ReliableBatchSender(std::string origin, SenderWindowConfig config,
                      Resolve resolve, BatchSenderInstruments instruments);
  ~ReliableBatchSender();

  ReliableBatchSender(const ReliableBatchSender&) = delete;
  ReliableBatchSender& operator=(const ReliableBatchSender&) = delete;

  const SenderWindowConfig& window_config() const { return config_; }

  /// The link's window, created on first use (congestion checks).
  std::shared_ptr<SenderWindow> window(const BatchLink& link);

  /// Stamps `batch` with this origin and the link's next seq, tracks the
  /// serialized batch (before sending: the ack may race back on another
  /// thread), arms the RTO timer and notifies it on `conn`.
  /// `frames_per_app` maps app_id -> frame count (see SenderWindow::track).
  Status send(const BatchLink& link, Connection& conn, proto::MpiBatch batch,
              std::map<std::uint64_t, std::size_t> frames_per_app);

  /// Applies a kMpiBatchAck payload that arrived on `link`. Acks for
  /// another origin (a crafted or replayed stream the receiver dutifully
  /// acked) and for links without a window are ignored. Returns the number
  /// of batches released.
  std::size_t on_ack(const BatchLink& link, BytesView payload);

  /// Stops retrying an app's frames on every link (SenderWindow::drop_app).
  /// Returns the number of frames dropped.
  std::size_t drop_app(std::uint64_t app_id);

  /// Cancels the RTO timer; nothing re-arms it afterwards and whatever is
  /// still unacknowledged is never resent.
  void shutdown();

 private:
  /// Arms the one-shot RTO timer for the earliest in-flight deadline. Call
  /// with mutex_ held; no-op when armed, idle or shut down.
  void arm_locked();
  /// Timer callback: resends every batch whose RTO passed on the link's
  /// current connection (a dead link keeps them armed; backoff paces the
  /// retries until it revives or the app closes), then re-arms.
  void fire();
  void add_inflight(std::int64_t bytes);

  const std::string origin_;
  const SenderWindowConfig config_;
  const Resolve resolve_;
  BatchSenderInstruments instruments_;

  std::mutex mutex_;  // after any caller lock, before window locks
  std::map<BatchLink, std::shared_ptr<SenderWindow>> windows_;
  std::uint64_t timer_ = 0;  // reactor timer id, 0 when none is armed
  bool armed_ = false;
  bool stopped_ = false;
};

/// What the receiver did with one arrived kMpiBatch.
enum class BatchReceipt : std::uint8_t { kDelivered, kDuplicate, kMalformed };

class ReliableBatchReceiver {
 public:
  /// Parses a kMpiBatch payload that arrived on `conn`, hands the batch to
  /// `deliver(proto::MpiBatch&)` unless its (origin, seq) was seen before,
  /// then acks on `conn`. Duplicates are acked too: a duplicate means the
  /// original's ack was lost (or is still in flight), and re-acking is what
  /// stops the sender's retransmissions.
  template <typename Deliver>
  BatchReceipt receive(BytesView payload, Connection& conn, Deliver&& deliver) {
    Result<proto::MpiBatch> batch = proto::MpiBatch::parse(payload);
    if (!batch.is_ok()) return BatchReceipt::kMalformed;
    const bool duplicate =
        dedup_.seen_before(batch.value().origin, batch.value().seq);
    if (!duplicate) deliver(batch.value());
    ack(batch.value().origin, batch.value().seq, conn);
    return duplicate ? BatchReceipt::kDuplicate : BatchReceipt::kDelivered;
  }

 private:
  void ack(const std::string& origin, std::uint64_t seq, Connection& conn);

  BatchDedupWindow dedup_;
  BatchAckTracker coverage_;
};

}  // namespace pg::proxy
