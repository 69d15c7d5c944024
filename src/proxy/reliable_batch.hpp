// The reliable kMpiBatch data plane, shared by ProxyServer and NodeAgent.
//
// Every MPI message that leaves a node or crosses a site rides a kMpiBatch
// envelope identified by (origin, seq). The two halves below are the only
// implementation of that stream:
//
//   ReliableBatchSender    queues frames per link in two priority lanes,
//                          drains them greedily into batches capped by the
//                          link's congestion budget, stamps each batch with
//                          the link's next seq, tracks it in the link's
//                          SenderWindow and resends it until an ack covers
//                          it. A link with no live connection or a full
//                          window parks its queue. It also holds the acks
//                          this process owes the far end of each link and
//                          piggybacks them on the next batch it drains onto
//                          that link. One reactor timer, run on the
//                          reactor's I/O thread, serves the RTO resends,
//                          the parked-queue retries and the ack deadlines.
//   ReliableBatchReceiver  applies the acks a batch carries, drops duplicate
//                          batches whole (dedup window) and hands the
//                          origin's coverage to the sender as an ack owed
//                          on the link it arrived on.
//
// Ack rules (delayed, cumulative, piggybacked; RFC 1122 §4.2.3.2, RFC 9000
// §13.2): a held ack rides the next kMpiBatch on its link. A standalone
// kMpiBatchAck goes out only kMaxAckDelay after the first held batch
// arrived, when a second batch is held, or at once for a duplicate (its
// ack was lost or is late, and the sender is retransmitting) or for a
// batch carrying bulk (its sender is streaming). Senders allow for the
// hold in each batch's first retransmit deadline.
//
// A proxy sends down site links (to peer proxies) and node links (to its
// node agents); a node agent sends down its one link to the site proxy.
// Queues and windows outlive connections: the caller's resolver names the
// link's connection at drain and retransmit time, so a reconnect is picked
// up without telling the sender.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "proto/messages.hpp"
#include "proxy/batch_window.hpp"
#include "proxy/connection.hpp"
#include "proxy/metrics.hpp"
#include "proxy/sender_window.hpp"
#include "telemetry/metrics.hpp"

namespace pg::proxy {

/// Payload-byte budget of one kMpiBatch envelope (a lone larger frame
/// still goes out alone).
inline constexpr std::size_t kBatchMaxBytes = 256 * 1024;
/// Frame budget of one kMpiBatch envelope.
inline constexpr std::size_t kBatchMaxFrames = 64;
/// Frames with payloads at or under this ride the latency lane and drain
/// ahead of bulk frames on the same link (a barrier never queues behind a
/// 16 MiB transfer).
inline constexpr std::size_t kLatencyLaneBytes = 4096;
/// Default retry period of a parked queue.
inline constexpr TimeMicros kDefaultRetryInterval = 2000;
/// Longest a receiver holds an ack waiting for a reverse batch to carry it;
/// well under the 12.5 ms RTO floor, so a held ack never causes a resend.
inline constexpr TimeMicros kMaxAckDelay = 1000;
/// A standalone ack goes out once this many batches are held unacked.
inline constexpr std::size_t kAckEveryBatches = 2;

/// Which class of link a sender window serves.
enum class LinkKind : std::uint8_t { kSite, kNode };

/// One outgoing data link, named by the peer it reaches (site or node
/// names may coincide, hence the kind).
struct BatchLink {
  LinkKind kind = LinkKind::kSite;
  std::string name;

  friend auto operator<=>(const BatchLink&, const BatchLink&) = default;
};

/// One kMpiBatch envelope the sender put on the wire.
struct BatchFlush {
  FlushReason reason = FlushReason::kImmediate;
  std::size_t frames = 0;
  std::size_t latency_frames = 0;  // frames that rode the latency lane
  std::size_t bytes = 0;           // frame payload bytes
};

/// Where a sender reports its work.
struct BatchSenderInstruments {
  /// Batches resent after an RTO (pg_mpi_retransmit_total).
  telemetry::Counter& retransmits;
  /// Ack RTT of never-retransmitted batches (pg_mpi_ack_rtt_micros).
  telemetry::Histogram& ack_rtt;
  /// Unacknowledged wire bytes across all windows; optional.
  telemetry::Gauge* inflight_bytes = nullptr;
  /// Called after each envelope is sent (not for retransmits); optional.
  std::function<void(const BatchLink&, const BatchFlush&)> flushed = nullptr;
};

class ReliableBatchSender {
 public:
  /// Returns the link's current connection, or null when it has none.
  /// Called outside the sender's lock, at drain and retransmit time.
  using Resolve = std::function<Connection*(const BatchLink&)>;

  /// `origin` is this process's batch identity (see proto::MpiBatch).
  /// A parked queue is retried `retry_interval` after it parked.
  ReliableBatchSender(std::string origin, SenderWindowConfig config,
                      Resolve resolve, BatchSenderInstruments instruments,
                      TimeMicros retry_interval = kDefaultRetryInterval);
  ~ReliableBatchSender();

  ReliableBatchSender(const ReliableBatchSender&) = delete;
  ReliableBatchSender& operator=(const ReliableBatchSender&) = delete;

  const SenderWindowConfig& window_config() const { return config_; }

  /// The link's window, created on first use (introspection).
  std::shared_ptr<SenderWindow> window(const BatchLink& link);

  /// The one send call. Queues `frames` on the link in order, each in its
  /// lane, and drains the queue unless another thread already is: an idle
  /// link sends at once, and frames enqueued together share an envelope
  /// within the byte and frame budgets. Returns kUnavailable when the link
  /// has no live connection; the frames then stay parked for a retry.
  Status enqueue(const BatchLink& link, std::vector<proto::MpiFrame> frames);

  /// Applies a standalone kMpiBatchAck payload that arrived on `link`
  /// (apply_ack); malformed payloads release nothing.
  std::size_t on_ack(const BatchLink& link, BytesView payload);

  /// Applies one ack that arrived on `link`, standalone or piggybacked,
  /// and re-drains the link's queue if it freed window space. Acks for
  /// another origin (a crafted or replayed stream the receiver dutifully
  /// acked) and for links without a window are ignored. Returns the number
  /// of batches released.
  std::size_t apply_ack(const BatchLink& link, const proto::MpiBatchAck& ack);

  /// Records that this process owes the far end of `link` an ack of
  /// `coverage` for batches from `origin`. The ack is held for the next
  /// batch drained onto the link, unless `immediate` (see
  /// ReliableBatchReceiver::receive) or kAckEveryBatches batches are now
  /// held: then every ack held for the link goes out at once as standalone
  /// kMpiBatchAcks. Otherwise they go out kMaxAckDelay after the first
  /// held batch arrived, from the timer or from the first enqueue or
  /// owe_ack past that deadline.
  void owe_ack(const BatchLink& link, const std::string& origin,
               AckCoverage coverage, bool immediate);

  /// Stops retrying an app's frames on every link (SenderWindow::drop_app).
  /// Returns the number of frames dropped.
  std::size_t drop_app(std::uint64_t app_id);

  /// Drains every idle queue once more (app close, shutdown). Frames for a
  /// link without a live connection are dropped, since nobody retries
  /// them afterwards; returns how many.
  std::size_t teardown_flush();

  /// Cancels the timer; nothing re-arms it afterwards, so whatever is
  /// still unacknowledged or parked is never resent.
  void shutdown();

 private:
  /// One link's queue and window.
  struct Link {
    std::shared_ptr<SenderWindow> window;
    std::deque<proto::MpiFrame> latency;  // payloads <= kLatencyLaneBytes
    std::deque<proto::MpiFrame> bulk;
    /// True while one thread drains this queue; concurrent enqueuers just
    /// append — their frames ride in the drainer's next envelope.
    bool draining = false;
    /// Steady-clock retry time of a parked queue; 0 when not parked.
    std::uint64_t retry_at = 0;
    /// Acks owed to the far end, by batch origin: the latest coverage and
    /// when the newest covered batch arrived.
    struct HeldAck {
      AckCoverage coverage;
      std::uint64_t newest_at = 0;
    };
    std::map<std::string, HeldAck> held_acks;
    /// Batches covered by held_acks; 0 when nothing is held.
    std::size_t held_batches = 0;
    /// When held acks must go out standalone; 0 when nothing is held.
    std::uint64_t ack_due = 0;

    bool empty() const { return latency.empty() && bulk.empty(); }
  };

  /// What one drain did.
  struct Drained {
    bool link_down = false;   // parked for want of a live connection
    std::size_t dropped = 0;  // frames a teardown drain discarded
  };

  /// The link's state, created on first use. Call with mutex_ held.
  Link& link_locked(const BatchLink& key);
  /// Unless the queue is empty or another thread already drains it,
  /// claims it and sends envelopes off its front until it is empty or
  /// parks. Call with `lock` held; unlocks around every resolve and send.
  Drained drain(std::unique_lock<std::mutex>& lock, const BatchLink& key,
                Link& link, FlushReason trigger);
  /// Stamps, tracks and notifies one envelope carrying `acks` on `conn`;
  /// returns the batch's RTO deadline.
  std::uint64_t send_chunk(const BatchLink& key, SenderWindow& window,
                           Connection& conn, std::vector<proto::MpiFrame> chunk,
                           std::vector<proto::MpiBatchAck> acks,
                           const BatchFlush& flush);
  /// Acks to send standalone, per link.
  using OwedAcks =
      std::vector<std::pair<BatchLink, std::vector<proto::MpiBatchAck>>>;
  /// Empties the link's held acks into wire form, stamping each with how
  /// long it was held. Call with mutex_ held.
  static std::vector<proto::MpiBatchAck> take_acks_locked(Link& link,
                                                          std::uint64_t now);
  /// Empties every link whose ack delay ran out. The timer is the backstop;
  /// enqueue and owe_ack check too, because on a saturated CPU reactor
  /// timers can fire milliseconds late, and a held ack must not wait for
  /// one that long. O(1) while nothing is due. Call with mutex_ held.
  OwedAcks take_overdue_acks_locked(std::uint64_t now);
  /// Sends acks as standalone kMpiBatchAcks on their links' connections;
  /// a link without one drops them (the far end's retransmission is then
  /// acked at once as a duplicate). Call without mutex_.
  void send_acks(const OwedAcks& owed);
  /// Makes sure a timer fires by `due` (steady micros; 0 = nothing due):
  /// no-op when one due no later is armed already or after shutdown().
  /// Call with mutex_ held.
  void arm_locked(std::uint64_t due);
  /// Timer callback: resends every batch whose RTO passed on the link's
  /// current connection (a dead link keeps them armed; backoff paces the
  /// retries until it revives or the app closes), sends held acks whose
  /// delay ran out, retries parked queues that came due, then re-arms.
  void fire(std::uint64_t token);
  void add_inflight(std::int64_t bytes);

  const std::string origin_;
  const SenderWindowConfig config_;
  const Resolve resolve_;
  const BatchSenderInstruments instruments_;
  const std::uint64_t retry_interval_;

  std::mutex mutex_;  // after any caller lock, before window locks
  std::map<BatchLink, Link> links_;  // never erased: references stay valid
  /// No later than every link's ack_due; 0 when no ack is held.
  std::uint64_t ack_due_min_ = 0;
  /// Armed timers by token: {reactor timer id, due time}. Usually one; a
  /// deadline earlier than every armed one adds another rather than
  /// cancelling under mutex_ (the callback may be waiting on it).
  struct Armed {
    std::uint64_t timer = 0;
    std::uint64_t due = 0;
  };
  std::map<std::uint64_t, Armed> armed_;
  std::uint64_t next_token_ = 1;
  bool stopped_ = false;
};

/// What the receiver did with one arrived kMpiBatch.
enum class BatchReceipt : std::uint8_t { kDelivered, kDuplicate, kMalformed };

class ReliableBatchReceiver {
 public:
  /// Handles a kMpiBatch payload that arrived on `link`, in this order:
  /// applies the acks it carries through `sender`; checks the dedup
  /// window; hands the origin's coverage to `sender` as an ack owed on
  /// `link` (at once for a duplicate, whose ack was lost or is late, and
  /// for a batch that carries_bulk); then, unless it was a duplicate,
  /// delivers the batch to `deliver(proto::MpiBatch&)`. The ack is owed
  /// before delivery so a reply the delivery triggers can carry it.
  template <typename Deliver>
  BatchReceipt receive(BytesView payload, const BatchLink& link,
                       ReliableBatchSender& sender, Deliver&& deliver) {
    Result<proto::MpiBatch> parsed = proto::MpiBatch::parse(payload);
    if (!parsed.is_ok()) return BatchReceipt::kMalformed;
    proto::MpiBatch& batch = parsed.value();
    for (const proto::MpiBatchAck& ack : batch.acks)
      (void)sender.apply_ack(link, ack);
    const bool duplicate = dedup_.seen_before(batch.origin, batch.seq);
    sender.owe_ack(link, batch.origin,
                   coverage_.record(batch.origin, batch.seq),
                   duplicate || carries_bulk(batch));
    if (duplicate) return BatchReceipt::kDuplicate;
    deliver(batch);
    return BatchReceipt::kDelivered;
  }

 private:
  /// True when a frame of `batch` rides the bulk lane. Such a batch is
  /// acked at once, like a full-sized TCP segment: its sender is
  /// streaming, and a held ack would leave the sender's window waiting on
  /// the ack timer, which a saturated CPU can delay past the RTO.
  static bool carries_bulk(const proto::MpiBatch& batch) {
    for (const proto::MpiFrame& frame : batch.frames)
      if (frame.payload.size() > kLatencyLaneBytes) return true;
    return false;
  }

  BatchDedupWindow dedup_;
  BatchAckTracker coverage_;
};

}  // namespace pg::proxy
