// Distributed trace spans for the proxy grid.
//
// One grid operation (login -> schedule -> MPI open -> data -> done) crosses
// several proxies; a trace ties the pieces back together. The model is the
// usual parent/child span tree:
//
//   * TraceContext {trace_id, span_id} names a position in the tree. It is
//     carried on every control Envelope (proto/envelope.hpp) and installed
//     on the receiving connection's reader thread, so spans opened by a
//     remote handler parent to the sender's span automatically.
//   * Span is RAII: started through Tracer, finished (recorded into the
//     process-local ring buffer) on end()/destruction. While alive it is
//     the thread's *current* context, so nested spans self-parent.
//   * Tracer::global() owns the ring buffer; the web interface renders
//     /trace/<id> from it and tests assert over it.
//
// Cross-thread propagation is explicit: capture Tracer::current() (or
// span.context()) before handing work to another thread and install it
// there with ScopedTraceContext.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace pg::telemetry {

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// A finished span as stored in the ring buffer.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string name;
  std::string component;  // e.g. the proxy's site
  std::int64_t start_micros = 0;
  std::int64_t end_micros = 0;
  bool ok = true;
  std::string note;
};

class Tracer;

/// RAII span handle. Movable; records exactly once.
class Span {
 public:
  Span() = default;  // inactive
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  TraceContext context() const {
    return TraceContext{record_.trace_id, record_.span_id};
  }
  bool active() const { return tracer_ != nullptr; }

  void set_ok(bool ok) { record_.ok = ok; }
  void set_note(std::string note) { record_.note = std::move(note); }

  /// Finishes the span: restores the thread's previous current context and
  /// commits the record. Idempotent.
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, SpanRecord record, TraceContext previous)
      : tracer_(tracer), record_(std::move(record)), previous_(previous) {}

  Tracer* tracer_ = nullptr;
  SpanRecord record_;
  TraceContext previous_;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  static Tracer& global();

  /// The calling thread's current context (the innermost live span, or
  /// whatever ScopedTraceContext installed).
  static TraceContext current();

  /// Starts a span. Parent defaults to the thread's current context; a new
  /// trace id is allocated when there is no parent. The span becomes the
  /// thread's current context until end().
  Span start_span(const std::string& name, const std::string& component = "");
  Span start_span_with_parent(const std::string& name, TraceContext parent,
                              const std::string& component = "");

  /// Ingests a span completed on another proxy (kTraceExport). Dedupes by
  /// (trace_id, span_id): in-process grids share this tracer, so a span
  /// that already lives in the ring is dropped instead of double-recorded.
  void import_span(const SpanRecord& record);

  /// True when `trace_id` was allocated by this tracer (the trace's origin
  /// is in this process). Remote proxies export spans of traces they did
  /// NOT originate back toward the origin. Tracking is bounded; the oldest
  /// origins are forgotten first.
  bool originated_here(std::uint64_t trace_id) const;

  /// All recorded spans of one trace, in completion order.
  std::vector<SpanRecord> trace(std::uint64_t trace_id) const;

  /// Distinct trace ids still present in the buffer, most recent first.
  std::vector<std::uint64_t> recent_traces(std::size_t limit = 32) const;

  std::vector<SpanRecord> snapshot() const;

  /// Drops every recorded span (tests).
  void clear();

 private:
  friend class Span;
  void commit(const SpanRecord& record);
  std::uint64_t next_id();

  void remember(std::uint64_t key, std::unordered_set<std::uint64_t>& set,
                std::deque<std::uint64_t>& order);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;   // next write slot once the ring is full
  std::uint64_t seq_ = 1;  // id source; salted into trace ids
  // Bounded FIFO sets (guarded by mutex_): trace ids this tracer
  // allocated, and (trace_id, span_id) keys already imported.
  std::unordered_set<std::uint64_t> originated_;
  std::deque<std::uint64_t> originated_order_;
  std::unordered_set<std::uint64_t> imported_;
  std::deque<std::uint64_t> imported_order_;
};

/// Installs a per-thread span sink for the scope: every span *committed by
/// this thread* (Span::end) is also handed to `sink`, after it is recorded.
/// The proxy wraps remote-envelope handler dispatch in one of these to
/// collect the spans the handler finished, for export to the trace origin.
/// Imported spans never re-enter a sink. Nests; inner sink wins.
class ScopedSpanSink {
 public:
  using Sink = std::function<void(const SpanRecord&)>;

  explicit ScopedSpanSink(Sink sink);
  ~ScopedSpanSink();

  ScopedSpanSink(const ScopedSpanSink&) = delete;
  ScopedSpanSink& operator=(const ScopedSpanSink&) = delete;

 private:
  friend class Span;
  Sink sink_;
  ScopedSpanSink* previous_;
};

/// Installs `ctx` as the thread's current trace context for the scope —
/// the receive-side half of context propagation.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// Clears the calling thread's current context and span sink. A reused
/// thread (common/thread_cache) calls it between tasks, so a span or sink
/// one task left behind never reaches the next.
void reset_thread_trace_state();

}  // namespace pg::telemetry
