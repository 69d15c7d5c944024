// Connection: one control-protocol endpoint over a MessageLink, with
// request/response correlation, driven by the shared epoll reactor
// (net/reactor.hpp) instead of a dedicated reader thread.
//
// Used for both connection kinds in the architecture: proxy <-> proxy
// (GSSL tunnels between sites) and proxy <-> node (plaintext by default,
// GSSL when the deployment or an explicit request demands it).
//
// Receive path: the reactor's I/O thread decodes complete envelopes and
// calls on_frame. Responses to pending call()s are matched right there (a
// map insert + cv notify — never blocks), so callers waiting on a round
// trip wake without any worker involvement. MPI data batches (kMpiBatch)
// run to completion on the I/O thread too when the strand is idle (empty
// inbox, no handler running): one data hop costs no thread handoff.
// Standalone acks (kMpiBatchAck) always run there, since applying an ack
// commutes with everything else on the connection. Everything else, and
// batches that arrive while the strand has work, lands in the connection's
// strand — a FIFO inbox drained by one on-demand thread that runs the
// handler serially (preserving receive order) and lingers briefly for more
// work before exiting.
// Handlers on the strand may block on multi-hop calls: that stalls only
// this connection's strand, never the I/O threads. Idle connections hold
// no thread at all, which is what lets one proxy carry 10k+ mostly-idle
// connections (bench_connections).
//
// Backpressure: when a strand's inbox passes a high-water mark the
// connection pauses reactor reads — bytes then accumulate in the kernel
// socket buffer (or in-process pipe), pushing back on the sender exactly
// like the old one-envelope-at-a-time reader did. Reads resume at a
// low-water mark. On the send side, a writer waits for space in the
// channel's bounded send queue before it takes the send lock, never while
// holding it, and a reactor I/O thread never waits at all (it is the
// thread that drains the queue).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "net/channel.hpp"
#include "proto/envelope.hpp"
#include "telemetry/trace.hpp"
#include "tls/link.hpp"

namespace pg::proxy {

/// Ops that only ever travel as responses to a call().
bool is_response_op(proto::OpCode op);

class Connection {
 public:
  /// Invoked for every envelope that is not a response to a pending call:
  /// on the connection's strand, serially and in receive order, or inline
  /// on the reactor I/O thread for a kMpiBatch that finds the strand idle
  /// and for every kMpiBatchAck (which may thus overlap a strand handler).
  /// May block for any other op; must never block for those two (nor
  /// hold a lock across close(), a blocking call() or a remove barrier
  /// that their handling needs). Must be thread-safe against other
  /// connections' handlers.
  using EnvelopeHandler =
      std::function<void(const proto::Envelope&, Connection&)>;

  /// `initiator` selects the request-id parity (odd for the connecting
  /// side, even for the accepting side) so ids never collide between the
  /// two directions of one connection.
  Connection(std::string peer_name, net::ChannelPtr channel,
             tls::MessageLinkPtr link, bool initiator,
             EnvelopeHandler handler);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers with the global reactor. Call once, after construction.
  void start();

  /// Registers a callback fired exactly once when the connection dies
  /// (remote failure or local close()), with the close reason. On remote
  /// death it runs on the strand (after all delivered envelopes); on local
  /// close() it runs on the closing thread. Set before start(); must not
  /// block.
  void set_on_close(std::function<void(const Status&)> on_close);

  /// Enables span export (kTraceExport) toward this peer: when a handler
  /// dispatched for a *foreign* trace (one this process did not originate)
  /// finishes spans, they are sent back over this connection so the trace
  /// origin ends up with the whole tree. `exporter_site` labels the
  /// export. Set before start().
  void set_span_export(bool enabled, std::string exporter_site);

  /// Fire-and-forget envelope (request_id = 0 unless specified).
  Status notify(proto::OpCode op, BytesView payload,
                std::uint64_t request_id = 0);

  /// Request/response round trip. Fails kDeadlineExceeded after `timeout`,
  /// kUnavailable if the connection dies first.
  Result<proto::Envelope> call(proto::OpCode op, BytesView payload,
                               TimeMicros timeout = 30 * kMicrosPerSecond);

  /// Reserves a request id for call_with_id(). Retry loops allocate one id
  /// per logical request and reuse it across attempts so the receiver's
  /// dedup window recognizes retransmissions.
  std::uint64_t allocate_request_id();

  /// call() with a caller-provided id (from allocate_request_id). A late
  /// response to an earlier attempt with the same id satisfies the retry.
  Result<proto::Envelope> call_with_id(proto::OpCode op, BytesView payload,
                                       std::uint64_t request_id,
                                       TimeMicros timeout);

  /// Sends a response correlated with `request`, and caches it in the dedup
  /// window so a retransmitted request gets the same answer back.
  Status respond(const proto::Envelope& request, proto::OpCode op,
                 BytesView payload);

  /// Closes the link, detaches from the reactor, fails pending calls and
  /// quiesces the strand (unless called from it). `reason` is recorded as
  /// the close reason (first cause wins) — pass why when the caller knows
  /// better than "closed locally" (e.g. heartbeat timeout).
  void close();
  void close(const Status& reason);

  bool alive() const { return alive_.load(std::memory_order_acquire); }
  /// Why the connection died; Ok while it is still alive. The first cause
  /// wins: the receive error, or "closed locally".
  Status close_reason() const;
  /// steady_micros() timestamp of the last envelope received from the peer
  /// (connection construction time before any traffic). Feeds the
  /// heartbeat-based liveness check in PeerTable.
  TimeMicros last_activity() const {
    return last_activity_.load(std::memory_order_relaxed);
  }
  const std::string& peer_name() const { return peer_name_; }
  bool is_encrypted() const { return link_->is_encrypted(); }
  tls::LinkStats link_stats() const { return link_->stats(); }

 private:
  struct Strand;

  /// Reactor I/O-thread callbacks. Neither may block.
  void on_frame(BytesView frame);
  void on_stream_closed(const Status& reason);

  /// Runs the strand: pops inbox envelopes and dispatches the handler,
  /// lingering briefly when idle before the thread exits.
  static void drain_loop(std::shared_ptr<Strand> strand);
  void spawn_drainer();
  /// Dedup + trace scope + handler (+ span-export collection). Runs on the
  /// strand, or inline on the I/O thread (see EnvelopeHandler).
  void process_envelope(const proto::Envelope& envelope);
  void send_span_export(const std::vector<telemetry::SpanRecord>& spans);
  void resume_reads();
  /// Fires on_close exactly once across all close paths.
  void finalize_close();

  /// Serializes op/id/trace/payload straight into the reusable send buffer
  /// and writes it — no Envelope object, no payload copy. Stamps the
  /// calling thread's trace context onto the wire envelope.
  Status send_parts(proto::OpCode op, std::uint64_t request_id,
                    BytesView payload);
  /// Records `reason` as the close reason if none is set yet.
  void record_close_reason(const Status& reason);

  std::string peer_name_;
  net::ChannelPtr channel_;  // owned; link_ references it
  tls::MessageLinkPtr link_;
  EnvelopeHandler handler_;
  std::shared_ptr<Strand> strand_;
  std::atomic<std::uint64_t> reactor_id_{0};  // 0 = not registered
  std::atomic<bool> alive_{true};
  std::atomic<bool> started_{false};
  std::atomic<bool> close_fired_{false};
  std::atomic<bool> export_spans_{false};
  std::string exporter_site_;  // written before start()
  std::atomic<TimeMicros> last_activity_;

  std::mutex send_mutex_;
  Bytes send_buf_;  // guarded by send_mutex_

  mutable std::mutex reason_mutex_;
  Status close_reason_;  // Ok until the connection dies; guarded by ^
  std::function<void(const Status&)> on_close_;

  // Pending calls: id -> slot the I/O thread fills.
  struct PendingCall {
    std::optional<proto::Envelope> response;
    bool failed = false;
  };
  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_id_;  // steps by 2; parity from `initiator`

  // Receiver-side dedup window, so retried requests stay idempotent: an
  // incoming request id that is still being handled is dropped, one whose
  // response was already sent gets that response retransmitted.
  struct DedupEntry {
    bool responded = false;
    proto::OpCode op = proto::OpCode::kError;
    Bytes response_payload;
  };
  std::mutex dedup_mutex_;
  std::map<std::uint64_t, DedupEntry> dedup_;
  std::deque<std::uint64_t> dedup_order_;  // FIFO eviction
};

/// Monotonic clock in microseconds (std::chrono::steady_clock); the time
/// base of Connection::last_activity().
TimeMicros steady_micros();

using ConnectionPtr = std::unique_ptr<Connection>;

}  // namespace pg::proxy
