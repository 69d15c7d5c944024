// Connection: one control-protocol endpoint over a MessageLink, with
// request/response correlation, driven by the shared epoll reactor
// (net/reactor.hpp) instead of a dedicated reader thread.
//
// Used for both connection kinds in the architecture: proxy <-> proxy
// (GSSL tunnels between sites) and proxy <-> node (plaintext by default,
// GSSL when the deployment or an explicit request demands it).
//
// Receive path: one dispatch path. The reactor's I/O thread decodes
// complete envelopes and calls on_frame. A response runs its call's
// continuation right there (call_async; a reactor timer fails it at the
// deadline), so a relay holds no thread while it waits, and the blocking
// call() is a latch over it. Every other envelope runs its handler to
// completion right there too, in receive order: a hop costs no thread
// handoff, and a connection holds no thread of its own, idle or busy,
// which is what lets one proxy carry 10k+ connections on the reactor's
// threads alone (bench_connections). So a handler must not block. The few
// ops that do (a remote login's password stretch, a node's user service)
// hand themselves to offload(), which runs them on the process-wide
// ThreadCache; the decision lives in the handler that knows it blocks.
//
// Backpressure: offload() caps the tasks in flight per connection at
// kMaxOffloads. At the cap the connection pauses reactor reads — bytes
// then accumulate in the kernel socket buffer (or in-process pipe),
// pushing back on the sender — until one of them finishes. Every other
// envelope is paced by the I/O thread that runs it. On the send side, a
// writer waits for space in the channel's bounded send queue before it
// takes the send lock, never while holding it, and a reactor I/O thread
// never waits at all (it is the thread that drains the queue).
//
// Exported metrics: pg_connection_malformed_envelopes_total (received
// frames dropped because they do not parse as an envelope; each
// connection logs only its first).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/thread_cache.hpp"
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
  /// Invoked for every envelope that is not a response to a pending call,
  /// on the reactor I/O thread, serially and in receive order. Must never
  /// block: no blocking call(), no close() or reactor remove barrier, no
  /// wait for another thread, and no lock held across any of these. An op
  /// whose work blocks hands it to offload(). Must be thread-safe against
  /// other connections' handlers.
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

  /// Offloaded tasks in flight per connection before reads pause.
  static constexpr std::size_t kMaxOffloads = 16;

  /// Registers a callback fired exactly once when the connection dies
  /// (remote failure or local close()), with the close reason. On remote
  /// death it runs on the I/O thread, after every delivered envelope's
  /// handler; on local close() it runs on the closing thread. Set before
  /// start(); must not block.
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

  /// Runs `work(request, *this)` on the process ThreadCache, off the I/O
  /// thread: how a handler whose op blocks answers it. The task keeps the
  /// connection alive (it must be owned by a ConnectionPtr), runs under the
  /// trace context the handler ran under, and exports its spans of a
  /// foreign trace as an inline handler's are. At kMaxOffloads tasks in
  /// flight, reads pause until one finishes. The handle lets an owner wait
  /// for the task before it dies.
  ThreadCache::Handle offload(const proto::Envelope& request,
                              EnvelopeHandler work);

  /// Closes the link, detaches from the reactor (after which no handler
  /// runs, unless close() is called from one) and fails pending calls on
  /// this thread. Offloaded tasks may still be running; they hold the
  /// connection.
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
  struct PendingCall {
    ReplyCallback done;
    net::Reactor::TimerId deadline = 0;
    std::uint64_t attempt = 0;  // tells a stale deadline from the live one
  };

  /// Reactor I/O-thread callbacks. Neither may block.
  void on_frame(BytesView frame);
  void on_stream_closed(const Status& reason);

  /// Dedup, then the handler under the envelope's trace context.
  void process_envelope(const proto::Envelope& envelope);
  /// Runs `fn` with `context` as the thread's trace context, so spans it
  /// opens parent across the hop. When span export is on and the trace is
  /// foreign, the spans `fn` finishes are shipped back toward its origin.
  template <typename Fn>
  void run_traced(telemetry::TraceContext context, proto::OpCode op, Fn&& fn);
  void send_span_export(const std::vector<telemetry::SpanRecord>& spans);
  void set_reads_paused(bool paused);
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
  std::atomic<std::uint64_t> reactor_id_{0};  // 0 = not registered
  std::atomic<bool> alive_{true};
  std::atomic<bool> started_{false};
  std::atomic<bool> close_fired_{false};
  std::atomic<bool> export_spans_{false};
  std::string exporter_site_;  // written before start()
  std::atomic<TimeMicros> last_activity_;
  bool warned_malformed_ = false;  // only the I/O thread touches it

  std::mutex offload_mutex_;
  std::size_t offloads_ = 0;  // in flight; guarded by offload_mutex_

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
