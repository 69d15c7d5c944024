#include "proxy/connection.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "net/reactor.hpp"
#include "proto/messages.hpp"
#include "telemetry/metrics.hpp"

namespace pg::proxy {

namespace {
/// Completed-request ids remembered per connection for retransmit replies.
constexpr std::size_t kDedupWindow = 128;

/// Received frames that did not parse as an envelope, over every
/// connection. Resolved once per process.
telemetry::Counter& malformed_envelopes() {
  static telemetry::Counter& counter =
      telemetry::MetricRegistry::global().counter(
          "pg_connection_malformed_envelopes_total",
          "Received frames dropped because they do not parse as an envelope");
  return counter;
}
}  // namespace

TimeMicros steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_response_op(proto::OpCode op) {
  switch (op) {
    case proto::OpCode::kHelloAck:
    case proto::OpCode::kAuthResponse:
    case proto::OpCode::kStatusReport:
    case proto::OpCode::kJobAccept:
    case proto::OpCode::kJobComplete:
    case proto::OpCode::kMpiOpenAck:
    case proto::OpCode::kPong:
    case proto::OpCode::kTunnelData:
    case proto::OpCode::kReply:
    case proto::OpCode::kError:
      return true;
    default:
      return false;
  }
}

Connection::Connection(std::string peer_name, net::ChannelPtr channel,
                       tls::MessageLinkPtr link, bool initiator,
                       EnvelopeHandler handler)
    : peer_name_(std::move(peer_name)),
      channel_(std::move(channel)),
      link_(std::move(link)),
      handler_(std::move(handler)),
      last_activity_(steady_micros()),
      next_id_(initiator ? 1 : 2) {
  // send_parts waits for queue space before taking send_mutex_, never
  // inside it (see there).
  channel_->pace_writes_externally();
}

Connection::~Connection() { close(); }

void Connection::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  net::Reactor::Callbacks callbacks;
  callbacks.on_frame = [this](BytesView frame) { on_frame(frame); };
  callbacks.on_closed = [this](const Status& reason) {
    on_stream_closed(reason);
  };
  Result<net::Reactor::Id> id = net::Reactor::global().add_channel(
      *channel_, *link_->decoder(), std::move(callbacks));
  if (!id.is_ok()) {
    // The channel refused event mode: surface a dead connection rather
    // than a silent hang.
    record_close_reason(id.status());
    alive_.store(false, std::memory_order_release);
    finalize_close();
    return;
  }
  reactor_id_.store(id.value(), std::memory_order_release);
}

void Connection::set_on_close(std::function<void(const Status&)> on_close) {
  std::lock_guard<std::mutex> lock(reason_mutex_);
  on_close_ = std::move(on_close);
}

void Connection::set_span_export(bool enabled, std::string exporter_site) {
  exporter_site_ = std::move(exporter_site);
  export_spans_.store(enabled, std::memory_order_release);
}

Status Connection::close_reason() const {
  std::lock_guard<std::mutex> lock(reason_mutex_);
  return close_reason_;
}

void Connection::record_close_reason(const Status& reason) {
  std::lock_guard<std::mutex> lock(reason_mutex_);
  if (close_reason_.is_ok()) close_reason_ = reason;
}

Status Connection::send_parts(proto::OpCode op, std::uint64_t request_id,
                              BytesView payload) {
  if (!alive_.load(std::memory_order_acquire))
    return error(ErrorCode::kUnavailable,
                 "connection to " + peer_name_ + " is down");
  // Carry the calling thread's trace context across the hop; the peer
  // installs it before dispatching (see process_envelope).
  const telemetry::TraceContext ctx = telemetry::Tracer::current();
  // Backpressure waits happen here, before send_mutex_: a writer that slept
  // holding it would stall an I/O thread's inline handler sending on this
  // connection, and that I/O thread may be the one that drains the queue.
  // On an I/O thread this returns at once.
  channel_->wait_writable();
  std::lock_guard<std::mutex> lock(send_mutex_);
  proto::serialize_envelope(op, request_id, ctx.trace_id, ctx.span_id,
                            payload, send_buf_);
  return link_->send(send_buf_);
}

Status Connection::notify(proto::OpCode op, BytesView payload,
                          std::uint64_t request_id) {
  return send_parts(op, request_id, payload);
}

void Connection::call_async(proto::OpCode op, BytesView payload,
                            std::uint64_t id, TimeMicros timeout,
                            ReplyCallback done) {
  std::uint64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    attempt = ++attempts_;
    PendingCall& slot = pending_[id];
    slot.done = std::move(done);
    slot.attempt = attempt;
    // Armed under the lock, so a deadline that fires at once still finds
    // the slot filled in.
    slot.deadline = net::Reactor::global().schedule_timer(
        timeout,
        [this, id, attempt] {
          // Built first: once the slot is taken, close() no longer waits
          // for this callback, so `this` may go.
          Status late = error(ErrorCode::kDeadlineExceeded,
                              "call to " + peer_name_ + " timed out");
          if (std::optional<PendingCall> taken = take_pending(id, attempt))
            taken->done(std::move(late));
        });
  }
  // Once the connection is dead (alive_ is cleared before fail_pending
  // runs) the send fails and takes the slot back.
  const Status sent = send_parts(op, id, payload);
  if (sent.is_ok()) return;
  if (std::optional<PendingCall> slot = take_pending(id, attempt))
    slot->done(sent);
}

Result<proto::Envelope> Connection::call(proto::OpCode op, BytesView payload,
                                         TimeMicros timeout) {
  return await_result<Result<proto::Envelope>>([&](ReplyCallback done) {
    call_async(op, payload, allocate_request_id(), timeout, std::move(done));
  });
}

std::uint64_t Connection::allocate_request_id() {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  const std::uint64_t id = next_id_;
  next_id_ += 2;
  return id;
}

std::optional<Connection::PendingCall> Connection::take_pending(
    std::uint64_t id, std::uint64_t attempt) {
  std::optional<PendingCall> slot;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    const auto it = pending_.find(id);
    if (it == pending_.end() ||
        (attempt != 0 && it->second.attempt != attempt))
      return std::nullopt;
    slot.emplace(std::move(it->second));
    pending_.erase(it);
  }
  // From the deadline callback itself this is a no-op.
  net::Reactor::global().cancel_timer(slot->deadline);
  return slot;
}

void Connection::fail_pending() {
  std::map<std::uint64_t, PendingCall> failed;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    failed.swap(pending_);
  }
  for (auto& [id, slot] : failed) {
    // Waits out a deadline callback that is running; it finds no slot.
    net::Reactor::global().cancel_timer(slot.deadline);
    slot.done(error(ErrorCode::kUnavailable,
                    "connection to " + peer_name_ + " failed mid-call"));
  }
}

Status Connection::respond(const proto::Envelope& request, proto::OpCode op,
                           BytesView payload) {
  if (request.request_id != 0) {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    const auto it = dedup_.find(request.request_id);
    if (it != dedup_.end()) {
      it->second.responded = true;
      it->second.op = op;
      it->second.response_payload.assign(payload.begin(), payload.end());
    }
  }
  return notify(op, payload, request.request_id);
}

// -------------------------------------------------------- reactor callbacks

void Connection::on_frame(BytesView frame) {
  last_activity_.store(steady_micros(), std::memory_order_relaxed);

  Result<proto::Envelope> parsed = proto::Envelope::deserialize(frame);
  if (!parsed.is_ok()) {
    // Counted, and logged once per connection: a peer sending garbage must
    // not flood the log from the I/O thread every connection shares.
    malformed_envelopes().increment();
    if (!warned_malformed_) {
      warned_malformed_ = true;
      PG_WARN << "dropping malformed envelope from " << peer_name_
              << " (later ones are only counted): "
              << parsed.status().to_string();
    }
    return;
  }
  proto::Envelope env = parsed.take();

  if (env.request_id != 0 && is_response_op(env.op)) {
    if (std::optional<PendingCall> slot = take_pending(env.request_id, 0)) {
      slot->done(std::move(env));
      return;
    }
    // Not one of ours: ops like kTunnelData travel both as requests and
    // as responses, so an unmatched id means this is an incoming request
    // (id parity keeps the two directions' ids disjoint). Fall through.
  }
  // close() waits out this call through the reactor's remove barrier.
  process_envelope(env);
}

void Connection::on_stream_closed(const Status& reason) {
  record_close_reason(reason.is_ok()
                          ? error(ErrorCode::kUnavailable, "link closed")
                          : reason);
  alive_.store(false, std::memory_order_release);
  fail_pending();
  // Every delivered envelope's handler has run by now.
  finalize_close();
}

// ----------------------------------------------------------------- dispatch

template <typename Fn>
void Connection::run_traced(telemetry::TraceContext context,
                            proto::OpCode op, Fn&& fn) {
  telemetry::ScopedTraceContext trace_scope(context);
  if (!export_spans_.load(std::memory_order_acquire) ||
      context.trace_id == 0 || op == proto::OpCode::kTraceExport ||
      telemetry::Tracer::global().originated_here(context.trace_id)) {
    fn();
    return;
  }
  // Foreign trace: collect the spans `fn` finishes (on this thread) and
  // ship them back toward the origin.
  std::vector<telemetry::SpanRecord> collected;
  {
    telemetry::ScopedSpanSink sink(
        [&collected,
         trace_id = context.trace_id](const telemetry::SpanRecord& record) {
          if (record.trace_id == trace_id) collected.push_back(record);
        });
    fn();
  }
  if (!collected.empty() && alive()) send_span_export(collected);
}

void Connection::process_envelope(const proto::Envelope& env) {
  if (env.request_id != 0 && !is_response_op(env.op)) {
    // Request dedup: a retried request whose original is still being
    // handled is dropped; one already answered gets the cached response
    // retransmitted instead of re-running the handler.
    std::unique_lock<std::mutex> lock(dedup_mutex_);
    const auto it = dedup_.find(env.request_id);
    if (it != dedup_.end()) {
      if (it->second.responded) {
        const proto::OpCode resp_op = it->second.op;
        const Bytes resp_payload = it->second.response_payload;
        lock.unlock();
        (void)notify(resp_op, resp_payload, env.request_id);
      }
      return;
    }
    dedup_.emplace(env.request_id, DedupEntry{});
    dedup_order_.push_back(env.request_id);
    while (dedup_order_.size() > kDedupWindow) {
      dedup_.erase(dedup_order_.front());
      dedup_order_.pop_front();
    }
  }
  run_traced(telemetry::TraceContext{env.trace_id, env.span_id}, env.op,
             [&] { handler_(env, *this); });
}

ThreadCache::Handle Connection::offload(const proto::Envelope& request,
                                        EnvelopeHandler work) {
  {
    std::lock_guard<std::mutex> lock(offload_mutex_);
    if (++offloads_ == kMaxOffloads) set_reads_paused(true);
  }
  return ThreadCache::run([self = shared_from_this(), request,
                           work = std::move(work),
                           context = telemetry::Tracer::current()] {
    self->run_traced(context, request.op, [&] { work(request, *self); });
    // Pause and resume happen under the lock, so they cannot reorder.
    std::lock_guard<std::mutex> lock(self->offload_mutex_);
    if (self->offloads_-- == kMaxOffloads) self->set_reads_paused(false);
  });
}

void Connection::send_span_export(
    const std::vector<telemetry::SpanRecord>& spans) {
  proto::TraceExport msg;
  msg.exporter_site = exporter_site_;
  msg.spans.reserve(spans.size());
  for (const telemetry::SpanRecord& r : spans) {
    proto::ExportedSpan s;
    s.trace_id = r.trace_id;
    s.span_id = r.span_id;
    s.parent_span_id = r.parent_span_id;
    s.name = r.name;
    s.component = r.component;
    s.start_micros = r.start_micros;
    s.end_micros = r.end_micros;
    s.ok = r.ok;
    s.note = r.note;
    msg.spans.push_back(std::move(s));
  }
  (void)notify(proto::OpCode::kTraceExport, msg.serialize());
}

void Connection::set_reads_paused(bool paused) {
  const std::uint64_t rid = reactor_id_.load(std::memory_order_acquire);
  if (rid == 0) return;
  if (paused) {
    net::Reactor::global().pause_reads(rid);
  } else {
    net::Reactor::global().resume_reads(rid);
  }
}

// ------------------------------------------------------------------- close

void Connection::finalize_close() {
  if (close_fired_.exchange(true, std::memory_order_acq_rel)) return;
  std::function<void(const Status&)> on_close;
  Status reason;
  {
    std::lock_guard<std::mutex> lock(reason_mutex_);
    on_close = std::move(on_close_);
    on_close_ = nullptr;
    reason = close_reason_;
  }
  if (on_close) on_close(reason);
}

void Connection::close() {
  close(error(ErrorCode::kUnavailable, "closed locally"));
}

void Connection::close(const Status& reason) {
  record_close_reason(reason);
  alive_.store(false, std::memory_order_release);
  // Closing the link wakes writers blocked on event-mode backpressure and
  // makes the peer see EOF.
  link_->close();
  // Detach from the reactor. On return no on_frame/on_closed for this
  // connection is running or will run (removal barrier) — unless we *are*
  // the I/O thread, which remove_channel detects and skips.
  const std::uint64_t rid =
      reactor_id_.exchange(0, std::memory_order_acq_rel);
  if (rid != 0) net::Reactor::global().remove_channel(rid);
  fail_pending();
  finalize_close();
}

}  // namespace pg::proxy
