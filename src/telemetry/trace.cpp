#include "telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace pg::telemetry {

namespace {

thread_local TraceContext g_current;
thread_local ScopedSpanSink* g_span_sink = nullptr;

constexpr std::size_t kMaxTracked = 8192;  // originated / imported sets

std::int64_t now_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 — spreads the sequential id source across the id space so
/// trace ids from different proxies in one process don't look adjacent.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ------------------------------------------------------------------ span

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      record_(std::move(other.record_)),
      previous_(other.previous_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    record_ = std::move(other.record_);
    previous_ = other.previous_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::end() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  // Restore only if we are still the innermost span on this thread (a span
  // moved to another thread must not clobber that thread's context).
  if (g_current.trace_id == record_.trace_id &&
      g_current.span_id == record_.span_id) {
    g_current = previous_;
  }
  record_.end_micros = now_micros();
  tracer->commit(record_);
  if (g_span_sink != nullptr && g_span_sink->sink_) {
    g_span_sink->sink_(record_);
  }
}

// ---------------------------------------------------------------- tracer

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

TraceContext Tracer::current() { return g_current; }

std::uint64_t Tracer::next_id() {
  static std::atomic<std::uint64_t> counter{1};
  // Mixed so ids are non-zero and well spread; the raw counter guarantees
  // uniqueness within the process.
  std::uint64_t id = 0;
  while (id == 0) id = mix(counter.fetch_add(1, std::memory_order_relaxed));
  return id;
}

Span Tracer::start_span(const std::string& name,
                        const std::string& component) {
  return start_span_with_parent(name, g_current, component);
}

Span Tracer::start_span_with_parent(const std::string& name,
                                    TraceContext parent,
                                    const std::string& component) {
  SpanRecord record;
  if (parent.valid()) {
    record.trace_id = parent.trace_id;
  } else {
    record.trace_id = next_id();
    std::lock_guard<std::mutex> lock(mutex_);
    remember(record.trace_id, originated_, originated_order_);
  }
  record.span_id = next_id();
  record.parent_span_id = parent.valid() ? parent.span_id : 0;
  record.name = name;
  record.component = component;
  record.start_micros = now_micros();

  const TraceContext previous = g_current;
  g_current = TraceContext{record.trace_id, record.span_id};
  return Span(this, std::move(record), previous);
}

void Tracer::commit(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[head_] = record;
    head_ = (head_ + 1) % capacity_;
  }
  ++seq_;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: [head_, end) then [0, head_).
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanRecord> Tracer::trace(std::uint64_t trace_id) const {
  std::vector<SpanRecord> out;
  for (SpanRecord& record : snapshot()) {
    if (record.trace_id == trace_id) out.push_back(std::move(record));
  }
  return out;
}

std::vector<std::uint64_t> Tracer::recent_traces(std::size_t limit) const {
  const std::vector<SpanRecord> all = snapshot();
  std::vector<std::uint64_t> out;
  for (auto it = all.rbegin(); it != all.rend() && out.size() < limit; ++it) {
    if (std::find(out.begin(), out.end(), it->trace_id) == out.end()) {
      out.push_back(it->trace_id);
    }
  }
  return out;
}

void Tracer::remember(std::uint64_t key,
                      std::unordered_set<std::uint64_t>& set,
                      std::deque<std::uint64_t>& order) {
  if (!set.insert(key).second) return;
  order.push_back(key);
  while (order.size() > kMaxTracked) {
    set.erase(order.front());
    order.pop_front();
  }
}

bool Tracer::originated_here(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return originated_.count(trace_id) != 0;
}

void Tracer::import_span(const SpanRecord& record) {
  // Mix both ids so (a, b) and (b, a) do not collide on the same key.
  const std::uint64_t key = record.trace_id ^ mix(record.span_id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (imported_.count(key) != 0) return;
    remember(key, imported_, imported_order_);
    // In-process grids share one tracer: the exporting "remote" proxy
    // already committed this span into our ring. Skip the re-insert.
    for (const SpanRecord& existing : ring_) {
      if (existing.trace_id == record.trace_id &&
          existing.span_id == record.span_id) {
        return;
      }
    }
  }
  commit(record);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

// ------------------------------------------------------------- span sink

ScopedSpanSink::ScopedSpanSink(Sink sink)
    : sink_(std::move(sink)), previous_(g_span_sink) {
  g_span_sink = this;
}

ScopedSpanSink::~ScopedSpanSink() { g_span_sink = previous_; }

// ------------------------------------------------------- scoped context

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : previous_(g_current) {
  g_current = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { g_current = previous_; }

void reset_thread_trace_state() {
  g_current = TraceContext{};
  g_span_sink = nullptr;
}

}  // namespace pg::telemetry
