// Connection: one control-protocol endpoint over a MessageLink, with
// request/response correlation, driven by the shared epoll reactor
// (net/reactor.hpp) instead of a dedicated reader thread.
//
// Used for both connection kinds in the architecture: proxy <-> proxy
// (GSSL tunnels between sites) and proxy <-> node (plaintext by default,
// GSSL when the deployment or an explicit request demands it).
//
// Receive path: the reactor's I/O thread decodes complete envelopes and
// calls on_frame. A response runs its call's continuation right there
// (call_async; a reactor timer fails it at the deadline), so a relay holds
// no thread while it waits, and the blocking call() is a latch over it.
// The owner declares which ops its handler never blocks on
// (set_non_blocking_ops; kMpiBatch by default). Such an op runs to
// completion on the I/O thread when the strand is idle (empty inbox, no
// handler running): a hop costs no thread handoff. Standalone acks
// (kMpiBatchAck) always run there, since applying an ack commutes with
// everything else on the connection. Every other op, and a declared op
// that arrives while the strand has work, lands in the connection's strand
// — a FIFO inbox drained by one on-demand thread that runs the handler
// serially (preserving receive order) and lingers briefly for more work
// before exiting. So per-connection order holds on both paths.
// Strand handlers may block or run long (job submission, node-agent
// services, extension ops, auth's RSA signing): that stalls only this
// connection's strand, never the I/O threads. Idle connections hold no
// thread at all, which is what lets one proxy carry 10k+ mostly-idle
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
//
// Exported metrics: pg_connection_dispatch_total{path="inline"|"strand"}
// (handler dispatches by where they ran) and pg_strand_drainers (live
// drainer threads).
#pragma once

#include <atomic>
#include <bitset>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "net/channel.hpp"
#include "net/reactor.hpp"
#include "proto/envelope.hpp"
#include "telemetry/trace.hpp"
#include "tls/link.hpp"

namespace pg::proxy {

/// Ops that only ever travel as responses to a call().
bool is_response_op(proto::OpCode op);

/// Blocks until `start` hands its one result to the callback it is given:
/// the bridge from a continuation API to a blocking one.
template <typename T, typename Start>
T await_result(Start&& start) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> result = promise->get_future();
  start([promise](T value) { promise->set_value(std::move(value)); });
  return result.get();
}

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Invoked for every envelope that is not a response to a pending call:
  /// on the connection's strand, serially and in receive order, or inline
  /// on the reactor I/O thread for a declared non-blocking op that finds
  /// the strand idle and for every kMpiBatchAck (which may thus overlap a
  /// strand handler). May block for any other op. For the inline ones it
  /// must never block: no blocking call(), no close() or reactor remove
  /// barrier, no wait for another thread, and no lock held across any of
  /// these. Must be thread-safe against other connections' handlers.
  using EnvelopeHandler =
      std::function<void(const proto::Envelope&, Connection&)>;

  /// Continuation of a call_async(): the response envelope, or why none
  /// came. Runs exactly once, on the I/O thread that read the response, on
  /// I/O thread 0 at the deadline, on the thread that closed the
  /// connection, or inside call_async() itself when the send fails. Must
  /// not block.
  using ReplyCallback = std::function<void(Result<proto::Envelope>)>;

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

  /// Declares the ops the handler never blocks on (see EnvelopeHandler),
  /// replacing the default {kMpiBatch}. Built-in ops only: codes from
  /// kExtensionBase up always run on the strand. Set before start().
  void set_non_blocking_ops(std::span<const proto::OpCode> ops);

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

  /// Sends a request with `request_id` (from allocate_request_id) and
  /// parks `done` until its response arrives. Fails kDeadlineExceeded after
  /// `timeout`, kUnavailable if the connection dies first. A late response
  /// to an earlier attempt with the same id completes this one. One call
  /// per id may be pending at a time.
  void call_async(proto::OpCode op, BytesView payload,
                  std::uint64_t request_id, TimeMicros timeout,
                  ReplyCallback done);

  /// Blocking request/response round trip: a latch over call_async().
  Result<proto::Envelope> call(proto::OpCode op, BytesView payload,
                               TimeMicros timeout = 30 * kMicrosPerSecond);

  /// Reserves a request id. Retry loops allocate one id per logical
  /// request and reuse it across attempts so the receiver's dedup window
  /// recognizes retransmissions.
  std::uint64_t allocate_request_id();

  /// Sends a response correlated with `request`, and caches it in the dedup
  /// window so a retransmitted request gets the same answer back.
  Status respond(const proto::Envelope& request, proto::OpCode op,
                 BytesView payload);

  /// Closes the link, detaches from the reactor, quiesces the strand
  /// (unless called from it) and fails pending calls on this thread.
  /// `reason` is recorded as the close reason (first cause wins) — pass why
  /// when the caller knows better than "closed locally" (e.g. heartbeat
  /// timeout).
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
  struct PendingCall {
    ReplyCallback done;
    net::Reactor::TimerId deadline = 0;
    std::uint64_t attempt = 0;  // tells a stale deadline from the live one
  };

  /// Reactor I/O-thread callbacks. Neither may block.
  void on_frame(BytesView frame);
  void on_stream_closed(const Status& reason);

  /// Op codes from here up never run inline (kExtensionBase is above it).
  static constexpr std::size_t kInlineOpLimit = 128;
  bool non_blocking(proto::OpCode op) const;

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
  /// Removes the pending call for `id` (of `attempt`, or any when 0) and
  /// cancels its deadline; nullopt when something else completed it.
  std::optional<PendingCall> take_pending(std::uint64_t id,
                                          std::uint64_t attempt);
  /// Fails every pending call with kUnavailable.
  void fail_pending();

  std::string peer_name_;
  net::ChannelPtr channel_;  // owned; link_ references it
  tls::MessageLinkPtr link_;
  EnvelopeHandler handler_;
  std::bitset<kInlineOpLimit> non_blocking_;  // written before start()
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

  // Pending calls by request id; all guarded by pending_mutex_.
  std::mutex pending_mutex_;
  std::map<std::uint64_t, PendingCall> pending_;
  std::uint64_t next_id_;  // steps by 2; parity from `initiator`
  std::uint64_t attempts_ = 0;

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

/// Shared so that a continuation can pin the connection it answers on
/// (shared_from_this()) past a reconnect that retires it.
using ConnectionPtr = std::shared_ptr<Connection>;

}  // namespace pg::proxy
