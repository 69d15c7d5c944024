// gridbench — the grid benchmark's measuring process.
//
// Stands up an in-process grid through grid::GridBuilder, drives one
// workload through the public APIs only, checks every output, and prints
// one JSON line of raw results (latency summaries, counter snapshots taken
// before and after the measured phase, resource peaks, and in traced runs
// span self times and standalone layer probes). perfbench/run.py builds
// this binary, runs it and turns the raw results into metrics.
//
//   gridbench --workload pingpong --seed 1 --seconds 10 --trace 0
//
// Workloads (every one a closed loop; see perfbench/README.md):
//   pingpong        2 sites x 1 node, 64 B cross-site MPI ping-pong
//   lossy_pingpong  pingpong with 0.2% of intra-site writes dropped
//   stream          2 sites x 2 nodes, 64 KiB pairwise exchange, window 2
//   control_mix     4 sites x 4 nodes, 3 clients: login, status, run_app,
//                   submit_job + wait_job of an app that sends no messages
//   control_barrier control_mix with an 8-/4-rank barrier app instead (it
//                   reproduces a known lost-message hang; not gated)
//
// Traffic crosses in-process memory channels, not a real network link.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/rsa.hpp"
#include "grid/grid.hpp"
#include "mpi/message.hpp"
#include "mpi/runtime.hpp"
#include "net/memory_channel.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"
#include "proxy/connection.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "tls/link.hpp"
#include "tls/record.hpp"

namespace {

using namespace pg;
using SteadyClock = std::chrono::steady_clock;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Timed builds per run; setup_s is their median. Single builds vary by tens
/// of percent on a shared host, the median of this many does not. Half run
/// before the measured phase and half after it, so the median spans the
/// whole run rather than one moment of the host's load.
constexpr int kSetupBuilds = 32;
/// Warm-up on the measured grid before timing: the first app after build()
/// runs slower while windows and caches fill.
constexpr double kWarmupSeconds = 1.0;
/// control_mix users; with the resource sampler that is 4 load-generator
/// threads.
constexpr int kControlClients = 3;

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

// ------------------------------------------------------------ statistics

struct Summary {
  std::size_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, mean = 0;
};

double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = quantile_sorted(v, 0.50);
  s.p90 = quantile_sorted(v, 0.90);
  s.p99 = quantile_sorted(v, 0.99);
  s.mean = std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  return s;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string summary_json(const Summary& s) {
  std::ostringstream out;
  out << "{\"count\":" << s.count << ",\"p50\":" << json_num(s.p50)
      << ",\"p90\":" << json_num(s.p90) << ",\"p99\":" << json_num(s.p99)
      << ",\"mean\":" << json_num(s.mean) << "}";
  return out.str();
}

// ------------------------------------------------------------ op log

/// Latency distribution in fixed memory: log-spaced buckets 1% wide from
/// 0.1 us up. Recording more ops never grows the process, so peak_rss_mb
/// does not rise with throughput. Quantiles interpolate inside a bucket.
class Histogram {
 public:
  void add(double us) {
    ++count_;
    sum_ += us;
    ++buckets_[bucket_of(us)];
  }

  Summary summary() const {
    Summary s;
    s.count = count_;
    if (count_ == 0) return s;
    s.p50 = quantile(0.50);
    s.p90 = quantile(0.90);
    s.p99 = quantile(0.99);
    s.mean = sum_ / static_cast<double>(count_);
    return s;
  }

 private:
  static constexpr double kFloorUs = 0.1;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2400;  // the last starts near 40 min

  /// Bucket i >= 1 holds [edge(i), edge(i + 1)); bucket 0 holds [0, 0.1 us).
  static double edge(std::size_t i) {
    return i == 0 ? 0 : kFloorUs * std::pow(kGrowth, static_cast<double>(i - 1));
  }
  static std::size_t bucket_of(double us) {
    if (!(us >= kFloorUs)) return 0;
    const auto i = static_cast<std::size_t>(std::log(us / kFloorUs) / std::log(kGrowth)) + 1;
    return std::min(i, kBuckets - 1);
  }
  double quantile(double q) const {
    const double rank = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = buckets_[i];
      if (c != 0 && static_cast<double>(seen + c) >= rank) {
        const double lo = edge(i), hi = edge(i + 1);
        return lo + (hi - lo) * (rank - static_cast<double>(seen)) / static_cast<double>(c);
      }
      seen += c;
    }
    return edge(kBuckets - 1);
  }

  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
};

/// Length of the windows the measured phase is cut into. Throughput and
/// mean latency are reported as medians over windows, so one burst of host
/// contention moves one window, not the whole run.
constexpr double kWindowUs = 2e6;

/// Per-kind outcome of every operation the workload attempted: latency of
/// the successful ones, failures by error code. Failures are recorded, never
/// retried away.
class OpLog {
 public:
  /// The measured phase; ops are binned into kWindowUs windows of it.
  double window_start_us = 0;
  double window_end_us = 0;

  void ok(const std::string& kind, double micros, bool traced = false) {
    const double end_us = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    Kind& k = kinds_[kind];
    ++k.attempted;
    record(k, end_us, micros, traced);
  }
  /// Latency statistics cover successful ops; failures are counted here,
  /// by op kind and error code.
  void fail(const std::string& kind, const std::string& code) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++kinds_[kind].attempted;
    ++failures_[kind + ":" + code];
  }
  /// Latency sample of a pooled view ("launch" = run_app + job) that does
  /// not count as an attempt of its own.
  void sample(const std::string& kind, double micros, bool traced) {
    const double end_us = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    record(kinds_[kind], end_us, micros, traced);
  }

  Summary untraced(const std::string& kind) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = kinds_.find(kind);
    return it == kinds_.end() ? Summary{} : it->second.untraced.summary();
  }

  std::string json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"kinds\":{";
    bool first = true;
    for (const auto& [name, k] : kinds_) {
      if (!first) out << ",";
      first = false;
      out << json_str(name) << ":{\"attempted\":" << k.attempted
          << ",\"untraced\":" << summary_json(k.untraced.summary())
          << ",\"slow\":" << summary_json(k.slow.summary())
          << ",\"traced\":" << summary_json(k.traced.summary())
          << ",\"windows\":" << windows_json(k) << "}";
    }
    out << "},\"failures\":{";
    first = true;
    for (const auto& [name, n] : failures_) {
      if (!first) out << ",";
      first = false;
      out << json_str(name) << ":" << n;
    }
    out << "}}";
    return out.str();
  }

 private:
  /// Round trips slower than this paid a retransmission timeout (the RTO
  /// floor is 12.5 ms; a clean round trip stays far below 10 ms).
  static constexpr double kSlowUs = 10'000;

  struct Kind {
    std::uint64_t attempted = 0;
    Histogram untraced, traced, slow;
    std::vector<std::uint64_t> window_count;
    std::vector<double> window_sum;
  };

  void record(Kind& k, double end_us, double micros, bool traced) {
    (traced ? k.traced : k.untraced).add(micros);
    if (!traced && micros > kSlowUs) k.slow.add(micros);
    const auto n = static_cast<std::size_t>(
        std::max(0.0, (window_end_us - window_start_us) / kWindowUs + 1e-9));
    const double at = (end_us - window_start_us) / kWindowUs;
    if (at < 0 || at >= static_cast<double>(n)) return;
    if (k.window_count.size() < n) {
      k.window_count.resize(n, 0);
      k.window_sum.resize(n, 0);
    }
    const auto i = static_cast<std::size_t>(at);
    ++k.window_count[i];
    k.window_sum[i] += micros;
  }

  /// [[count, mean_us], ...] per whole window of the measured phase.
  std::string windows_json(const Kind& k) const {
    const auto n = static_cast<std::size_t>(
        std::max(0.0, (window_end_us - window_start_us) / kWindowUs + 1e-9));
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t count = i < k.window_count.size() ? k.window_count[i] : 0;
      const double sum = i < k.window_sum.size() ? k.window_sum[i] : 0;
      out << (i ? "," : "") << "[" << count << ","
          << json_num(count ? sum / static_cast<double>(count) : 0) << "]";
    }
    out << "]";
    return out.str();
  }

  mutable std::mutex mutex_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::uint64_t> failures_;
};

// ------------------------------------------------------------ spans

/// Benchmark-side spans around each call into a layer. Recorded only while
/// tracing is on; kept in memory and summarized at exit. Self time is the
/// span's duration minus the time covered by spans nested inside it.
class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }
  std::atomic<bool> enabled{false};

  void record(const char* name, double self_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    self_us_[name].push_back(self_us);
  }

  std::string json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto& [name, samples] : self_us_) {
      if (!first) out << ",";
      first = false;
      out << json_str(name) << ":{\"self\":" << summary_json(summarize(samples))
          << "}";
    }
    out << "}";
    return out.str();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> self_us_;
};

/// Thread-local buffer so hot loops do not take SpanLog's mutex per span.
struct SpanBuffer {
  struct Entry {
    const char* name;
    double self_us;
  };
  std::vector<Entry> entries;
  std::vector<double> child_us;  // open-span stack: time covered by children
  void flush() {
    for (const Entry& e : entries)
      SpanLog::instance().record(e.name, e.self_us);
    entries.clear();
  }
  ~SpanBuffer() { flush(); }
};
thread_local SpanBuffer t_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool on)
      : name_(name), on_(on && SpanLog::instance().enabled.load()) {
    if (!on_) return;
    t_spans.child_us.push_back(0);
    start_ = now_us();
  }
  ~ScopedSpan() {
    if (!on_) return;
    const double total = now_us() - start_;
    const double children = t_spans.child_us.back();
    t_spans.child_us.pop_back();
    if (!t_spans.child_us.empty()) t_spans.child_us.back() += total;
    t_spans.entries.push_back({name_, total - children});
    if (t_spans.entries.size() >= 8192) t_spans.flush();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  bool on_;
  double start_ = 0;
};

// ------------------------------------------------------------ resources

/// One low-rate sampler thread: high-water marks of the process's thread
/// count and RSS while the measured phase runs. It is one of the load
/// generator's threads, so clients + sampler stay within the core count.
class ResourceSampler {
 public:
  ResourceSampler() = default;
  ~ResourceSampler() { stop(); }
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void start() {
    stop_ = false;
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    sample();
  }
  std::int64_t peak_threads() const { return peak_threads_; }
  double peak_rss_mb() const { return static_cast<double>(peak_rss_kb_) / 1024.0; }

 private:
  void sample() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        peak_threads_ = std::max<std::int64_t>(peak_threads_,
                                               std::stoll(line.substr(8)));
      } else if (line.rfind("VmRSS:", 0) == 0) {
        peak_rss_kb_ = std::max<std::int64_t>(peak_rss_kb_,
                                              std::stoll(line.substr(6)));
      }
    }
  }
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::int64_t peak_threads_ = 0;
  std::int64_t peak_rss_kb_ = 0;
};

// ------------------------------------------------------------ snapshots

/// The proxy counters the per-layer metrics read from metrics().
std::string proxy_metrics_json(const proxy::ProxyMetrics& m) {
  std::ostringstream out;
  out << "{\"mpi_batch_flushes\":" << m.mpi_batch_flushes
      << ",\"mpi_batch_duplicates\":" << m.mpi_batch_duplicates << "}";
  return out.str();
}

std::string traffic_json(const grid::TrafficReport& t) {
  auto cls = [](const grid::TrafficReport::PerClass& c) {
    std::ostringstream out;
    out << "{\"messages\":" << c.messages
        << ",\"payload_bytes\":" << c.payload_bytes
        << ",\"wire_bytes\":" << c.wire_bytes
        << ",\"crypto_bytes\":" << c.crypto_bytes
        << ",\"handshake_bytes\":" << c.handshake_bytes << "}";
    return out.str();
  };
  std::ostringstream out;
  out << "{\"inter_site\":" << cls(t.inter_site)
      << ",\"intra_site\":" << cls(t.intra_site)
      << ",\"handshakes\":" << t.handshakes
      << ",\"control_calls\":" << t.control_calls
      << ",\"control_notifies\":" << t.control_notifies << "}";
  return out.str();
}

/// Registry, every proxy's metrics() and the traffic report at one instant.
/// The registry is process-global, so only differences between two
/// snapshots of the same grid mean anything.
std::string snapshot_json(grid::Grid& grid) {
  std::ostringstream out;
  out << "{\"registry\":" << telemetry::MetricRegistry::global().to_json()
      << ",\"proxies\":{";
  bool first = true;
  for (const std::string& site : grid.sites()) {
    if (!first) out << ",";
    first = false;
    out << json_str(site) << ":" << proxy_metrics_json(grid.proxy(site).metrics());
  }
  out << "},\"traffic\":" << traffic_json(grid.traffic_report())
      << ",\"intra_dropped\":"
      << (grid.intra_site_injector() ? grid.intra_site_injector()->dropped() : 0)
      << "}";
  return out.str();
}

// ------------------------------------------------------------ payloads

/// Deterministic pseudo-random bytes from the run seed.
Bytes seeded_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return rng.next_bytes(n);
}

void put_u64(Bytes& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}
std::uint64_t get_u64(const Bytes& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}
void put_f64(Bytes& b, std::size_t at, double v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}
double get_f64(const Bytes& b, std::size_t at) {
  double v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

// ------------------------------------------------------------ shared state

constexpr std::uint32_t kTagData = 1;
constexpr std::uint32_t kTagStop = 2;
constexpr std::uint32_t kTagCredit = 3;
constexpr std::uint32_t kTagFin = 4;
constexpr std::uint32_t kTagGather = 5;
constexpr std::uint32_t kTagRelease = 6;

constexpr std::size_t kPingBytes = 64;
constexpr std::size_t kStreamBytes = 64 * 1024;
/// Unacknowledged stream messages per direction. On one CPU a window of 8
/// queued ~10 ms of sealing behind each message, close to the 12.5 ms RTO
/// floor, and the proxies resent batches that were only late. At 2 the
/// queue stays near 3 ms and goodput is the same.
constexpr std::size_t kStreamWindow = 2;
constexpr std::size_t kStreamPatterns = 16;
constexpr std::size_t kStreamHeader = 16;  // seq u64, send time f64
/// Bound on a plausible stream sequence number (a run sends tens of
/// thousands per direction); a larger one is a corrupted header.
constexpr std::uint64_t kMaxStreamSeq = 1 << 24;
constexpr double kDropRate = 0.002;
/// Per-launch deadline (run_app timeout, wait_job timeout, batch-job run
/// timeout): ~50x the normal p99, so a launch that never completes costs a
/// bounded stall instead of the 120 s default.
constexpr TimeMicros kLaunchDeadline = 250 * 1000;

/// What the registered applications read and write. One measured app runs
/// at a time, except in the control workloads, whose apps are stateless.
struct RunContext {
  std::uint64_t seed = 1;
  double deadline_us = 0;     // loops stop at this steady time
  double trace_from_us = 0;   // ops starting after this are traced
  net::FaultInjectorPtr lossy;  // set: drop writes while the loop runs
  OpLog* ops = nullptr;
  bool record = false;        // false during warm-up
  // stream
  std::vector<Bytes> patterns;
  std::atomic<std::uint64_t> verified_bytes{0};
  std::atomic<std::uint64_t> late_bytes{0};
  std::atomic<std::uint64_t> bad_messages{0};
};
RunContext g_ctx;

bool tracing_now(double t) {
  return SpanLog::instance().enabled.load() && g_ctx.trace_from_us > 0 &&
         t >= g_ctx.trace_from_us;
}

// ------------------------------------------------------------ applications

/// Rank 0 times send+recv of a 64 B message; rank 1 echoes. Each echo must
/// equal what was sent. Runs until the context deadline (or `iterations`
/// when nonzero, for the local probe). Round trips from the `skip`-th on go
/// into `log` when it is set.
Status pingpong_body(mpi::Comm& comm, std::size_t iterations, std::size_t skip,
                     OpLog* log, std::uint64_t* mismatches) {
  if (comm.rank() > 1) return Status::ok();
  if (comm.rank() == 1) {
    for (;;) {
      Result<mpi::MpiMessage> m = comm.recv_message(0, mpi::kAnyTag);
      if (!m.is_ok()) return m.status();
      if (m.value().tag == kTagStop) return Status::ok();
      PG_RETURN_IF_ERROR(comm.send(0, kTagData, m.value().payload));
    }
  }
  Bytes msg = seeded_bytes(g_ctx.seed * 7919 + 1, kPingBytes);
  const bool lossy = g_ctx.lossy != nullptr;
  if (lossy) {
    net::FaultPolicy policy;
    policy.drop_rate = kDropRate;
    g_ctx.lossy->set_policy(policy);
  }
  Status status;
  for (std::uint64_t i = 0;; ++i) {
    const double t0 = now_us();
    if (iterations > 0 ? i >= iterations : t0 >= g_ctx.deadline_us) break;
    put_u64(msg, 0, i);
    const bool traced = tracing_now(t0);
    {
      ScopedSpan span("mpi.send", traced);
      status = comm.send(1, kTagData, msg);
    }
    if (!status.is_ok()) break;
    Result<Bytes> back = [&] {
      ScopedSpan span("mpi.recv_wait", traced);
      return comm.recv(1, kTagData);
    }();
    const double t1 = now_us();
    if (!back.is_ok()) {
      status = back.status();
      break;
    }
    if (back.value() != msg) {
      ++*mismatches;
      continue;
    }
    if (log != nullptr && i >= skip) log->ok("round_trip", t1 - t0, traced);
  }
  if (lossy) g_ctx.lossy->set_policy(net::FaultPolicy{});
  const Status stop = comm.send(1, kTagStop, {});
  return status.is_ok() ? stop : status;
}

Status pingpong_app(mpi::Comm& comm) {
  std::uint64_t mismatches = 0;
  const Status s =
      pingpong_body(comm, 0, 0, g_ctx.record ? g_ctx.ops : nullptr, &mismatches);
  if (comm.rank() == 0 && g_ctx.record) {
    for (std::uint64_t i = 0; i < mismatches; ++i)
      g_ctx.ops->fail("round_trip", "echo_mismatch");
    if (!s.is_ok()) g_ctx.ops->fail("round_trip", error_code_name(s.code()));
  }
  return s;
}

/// Pairwise exchange: rank r streams 64 KiB messages to rank (r+2)%4 and
/// back, at most kStreamWindow unacknowledged messages per direction
/// (credit window: the receiver returns one credit per message). Every
/// message is checked for size and for the byte pattern its sequence number
/// selects; a sequence number seen twice is a duplicate delivery.
Status stream_app(mpi::Comm& comm) {
  const std::uint32_t size = comm.size();
  const std::uint32_t partner = (comm.rank() + size / 2) % size;
  const auto src = static_cast<std::int32_t>(partner);
  std::uint64_t sent = 0, credited = 0, received = 0;
  std::int64_t partner_total = -1;
  bool fin_sent = false;
  std::vector<bool> seen;
  Bytes msg(kStreamBytes);
  Bytes credit(8);
  for (;;) {
    if (!fin_sent) {
      if (now_us() >= g_ctx.deadline_us) {
        Bytes fin(8);
        put_u64(fin, 0, sent);
        PG_RETURN_IF_ERROR(comm.send(partner, kTagFin, fin));
        fin_sent = true;
      } else {
        while (sent - credited < kStreamWindow) {
          const Bytes& pattern =
              g_ctx.patterns[(comm.rank() * 131 + sent) % kStreamPatterns];
          std::memcpy(msg.data(), pattern.data(), kStreamBytes);
          put_u64(msg, 0, sent);
          const double t = now_us();
          put_f64(msg, 8, t);
          ScopedSpan s("mpi.send", tracing_now(t));
          PG_RETURN_IF_ERROR(comm.send(partner, kTagData, msg));
          ++sent;
        }
      }
    }
    if (fin_sent && partner_total >= 0 &&
        received == static_cast<std::uint64_t>(partner_total))
      break;
    Result<mpi::MpiMessage> m = [&] {
      ScopedSpan r("mpi.recv_wait", tracing_now(now_us()));
      return comm.recv_message(src, mpi::kAnyTag);
    }();
    if (!m.is_ok()) return m.status();
    const Bytes& payload = m.value().payload;
    switch (m.value().tag) {
      case kTagData: {
        const double t = now_us();
        const std::uint64_t seq =
            payload.size() == kStreamBytes ? get_u64(payload, 0) : kMaxStreamSeq;
        if (seq < seen.size() && seen[seq]) {
          // A second delivery of one message: not counted, not credited.
          g_ctx.bad_messages.fetch_add(1);
          break;
        }
        bool good = seq < kMaxStreamSeq;
        double sent_at = 0;
        if (good) {
          if (seq >= seen.size()) seen.resize(seq + 1, false);
          seen[seq] = true;
          sent_at = get_f64(payload, 8);
          const Bytes& pattern =
              g_ctx.patterns[(partner * 131 + seq) % kStreamPatterns];
          good = std::memcmp(payload.data() + kStreamHeader,
                             pattern.data() + kStreamHeader,
                             kStreamBytes - kStreamHeader) == 0;
        }
        ++received;
        if (!good) {
          g_ctx.bad_messages.fetch_add(1);
        } else if (t <= g_ctx.deadline_us) {
          g_ctx.verified_bytes.fetch_add(kStreamBytes);
          if (g_ctx.record) g_ctx.ops->ok("message", t - sent_at, tracing_now(sent_at));
        } else {
          g_ctx.late_bytes.fetch_add(kStreamBytes);
        }
        put_u64(credit, 0, received);
        PG_RETURN_IF_ERROR(comm.send(partner, kTagCredit, credit));
        break;
      }
      case kTagCredit:
        ++credited;
        break;
      case kTagFin:
        partner_total = static_cast<std::int64_t>(get_u64(payload, 0));
        break;
      default:
        return error(ErrorCode::kProtocolError, "stream: unexpected tag");
    }
  }
  return Status::ok();
}

/// Barrier written with point-to-point calls: every rank reports its rank
/// number to rank 0, which checks them all and releases everyone.
Status barrier_app(mpi::Comm& comm) {
  const bool traced = tracing_now(now_us());
  Bytes mine(4);
  const std::uint32_t rank = comm.rank();
  std::memcpy(mine.data(), &rank, 4);
  if (rank != 0) {
    {
      ScopedSpan s("mpi.send", traced);
      PG_RETURN_IF_ERROR(comm.send(0, kTagGather, mine));
    }
    ScopedSpan r("mpi.recv_wait", traced);
    Result<Bytes> rel = comm.recv(0, kTagRelease);
    if (!rel.is_ok()) return rel.status();
    return rel.value().size() == 1 ? Status::ok()
                                   : error(ErrorCode::kInternal, "bad release");
  }
  for (std::uint32_t r = 1; r < comm.size(); ++r) {
    Result<Bytes> got = [&] {
      ScopedSpan w("mpi.recv_wait", traced);
      return comm.recv(static_cast<std::int32_t>(r), kTagGather);
    }();
    if (!got.is_ok()) return got.status();
    std::uint32_t value = 0;
    if (got.value().size() != 4) return error(ErrorCode::kInternal, "bad gather");
    std::memcpy(&value, got.value().data(), 4);
    if (value != r) return error(ErrorCode::kInternal, "gather mismatch");
  }
  const Bytes release(1, 0x5a);
  for (std::uint32_t r = 1; r < comm.size(); ++r) {
    ScopedSpan s("mpi.send", traced);
    PG_RETURN_IF_ERROR(comm.send(r, kTagRelease, release));
  }
  return Status::ok();
}

/// A launch that sends no messages: each rank checks its place in the
/// communicator and returns. control_mix launches it, so the workload
/// measures the control plane without the barrier's lost-message hang
/// (see control_barrier and perfbench/README.md).
Status launch_app(mpi::Comm& comm) {
  return comm.rank() < comm.size() && comm.size() > 0
             ? Status::ok()
             : error(ErrorCode::kInternal, "rank outside its communicator");
}

void register_apps() {
  auto& registry = mpi::AppRegistry::instance();
  registry.register_app("perfbench.pingpong", pingpong_app);
  registry.register_app("perfbench.stream", stream_app);
  registry.register_app("perfbench.barrier", barrier_app);
  registry.register_app("perfbench.launch", launch_app);
}

// ------------------------------------------------------------ grid setup

struct Topology {
  std::size_t sites;
  std::size_t nodes;
  bool faults;
};

const std::vector<std::string> kPermissions = {"mpi.run", "status.query",
                                               "job.submit"};

Result<std::unique_ptr<grid::Grid>> build_grid(const Topology& topo,
                                               std::uint64_t seed) {
  grid::GridBuilder builder;
  builder.seed(seed);
  for (std::size_t s = 0; s < topo.sites; ++s)
    builder.add_nodes("site" + std::to_string(s), topo.nodes);
  builder.add_user("bench", "pw", kPermissions);
  builder.fault_injection(topo.faults);
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    // A batch job that hangs must free its worker at the benchmark's own
    // launch deadline and must not be retried out of sight.
    config.job_run_timeout = kLaunchDeadline;
    config.job_max_attempts = 1;
  });
  return builder.build();
}

/// Builds and shuts down the topology once per index in [first, last),
/// appending the timed build's wall time to setup_s (index -1 is untimed: it
/// pays the process's one-time costs such as reactor start and instrument
/// registration). Build i uses the fixed builder seed 1001 + i, so every
/// run pays for the same RSA prime searches and setup_s measures bring-up
/// rather than key-generation luck.
bool time_builds(const Topology& topo, int first, int last,
                 std::vector<double>& setup_s) {
  for (int i = first; i < last; ++i) {
    const double t0 = now_us();
    auto built = build_grid(topo, 1000 + static_cast<std::uint64_t>(i + 1));
    const double t1 = now_us();
    if (!built.is_ok()) {
      std::fprintf(stderr, "grid build failed: %s\n",
                   built.status().to_string().c_str());
      return false;
    }
    if (i >= 0) setup_s.push_back((t1 - t0) / 1e6);
    built.value()->shutdown();
  }
  return true;
}

/// Times the first half of the setup builds, then builds the grid the
/// workload runs on from the run seed (and with it the fault injector's
/// drop stream).
std::unique_ptr<grid::Grid> setup(const Options& opt, const Topology& topo,
                                  std::vector<double>& setup_s) {
  if (!time_builds(topo, -1, kSetupBuilds / 2, setup_s)) return nullptr;
  auto built = build_grid(topo, opt.seed);
  if (!built.is_ok()) {
    std::fprintf(stderr, "grid build failed: %s\n", built.status().to_string().c_str());
    return nullptr;
  }
  return built.take();
}

// ------------------------------------------------------------ probes

/// Median of `reps` batch means of `fn` (batches of `batch` calls).
template <typename Fn>
double probe_us(int reps, int batch, Fn fn) {
  std::vector<double> means;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_us();
    for (int i = 0; i < batch; ++i) fn();
    means.push_back((now_us() - t0) / batch);
  }
  return summarize(means).p50;
}

std::string run_probes(std::uint64_t seed) {
  std::map<std::string, double> out;

  {  // mpi: local ping-pong, no middleware (paper Figure 3a)
    OpLog local;
    std::uint64_t mismatches = 0;
    // The first 500 round trips warm up.
    const mpi::AppFn fn = [&](mpi::Comm& comm) {
      return pingpong_body(comm, 3000, 500, &local, &mismatches);
    };
    const mpi::RunReport report = mpi::run_local(fn, 2);
    out["mpi.local_rtt_us"] = report.status.is_ok() && mismatches == 0
                                  ? local.untraced("round_trip").p50
                                  : -1;
  }

  {  // net: Connection::call(kPing) over a memory-channel pair
    net::ChannelPair pair = net::make_memory_channel_pair();
    tls::MessageLinkPtr link_a = tls::make_plain_link(*pair.a);
    tls::MessageLinkPtr link_b = tls::make_plain_link(*pair.b);
    proxy::Connection client("probe-server", std::move(pair.a),
                             std::move(link_a), true,
                             [](const proto::Envelope&, proxy::Connection&) {});
    proxy::Connection server(
        "probe-client", std::move(pair.b), std::move(link_b), false,
        [](const proto::Envelope& env, proxy::Connection& conn) {
          if (env.op == proto::OpCode::kPing)
            (void)conn.respond(env, proto::OpCode::kPong, {});
        });
    client.start();
    server.start();
    std::vector<double> rtts;
    bool ok = true;
    for (int i = 0; i < 3000 && ok; ++i) {
      const double t0 = now_us();
      ok = client.call(proto::OpCode::kPing, {}).is_ok();
      if (i >= 500) rtts.push_back(now_us() - t0);
    }
    client.close();
    server.close();
    out["net.conn_rtt_us"] = ok ? summarize(rtts).p50 : -1;
  }

  {  // tls: seal + open of one data record
    Rng rng(seed);
    const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
                iv = rng.next_bytes(12);
    for (const std::size_t n : {std::size_t{64}, std::size_t{64 * 1024}}) {
      tls::internal::RecordCipher sealer(key, mac, iv), opener(key, mac, iv);
      const Bytes plain = rng.next_bytes(n);
      Bytes wire, rec;
      bool ok = true;
      const double us = probe_us(n == 64 ? 41 : 21, n == 64 ? 200 : 10, [&] {
        ok &= sealer.seal_record(tls::internal::RecordType::kData, plain, wire).is_ok();
        rec.assign(wire.begin() + tls::internal::kRecordHeaderSize, wire.end());
        Result<std::size_t> len =
            opener.open_in_place(tls::internal::RecordType::kData, rec);
        ok &= len.is_ok() && len.value() == n &&
              std::equal(plain.begin(), plain.end(), rec.begin());
      });
      out[n == 64 ? "tls.seal_open_64_us" : "tls.seal_open_64k_us"] = ok ? us : -1;
    }
  }

  {  // crypto: one 768-bit RSA signature
    Rng rng(seed + 1);
    const crypto::RsaKeyPair keys = crypto::rsa_generate(768, rng);
    const Bytes message = rng.next_bytes(64);
    Bytes sig;
    const double us = probe_us(21, 5, [&] { sig = crypto::rsa_sign(keys.priv, message); });
    out["crypto.rsa_sign_768_us"] =
        crypto::rsa_verify(keys.pub, message, sig) ? us : -1;
  }

  {  // proto: serialize + parse a one-frame kMpiBatch envelope
    proto::MpiBatch batch;
    batch.origin = "site0";
    batch.seq = 1;
    proto::MpiFrame frame;
    frame.app_id = 7;
    frame.src_rank = 0;
    frame.tag = kTagData;
    frame.dst_ranks = {1};
    frame.payload = seeded_bytes(seed + 2, kPingBytes);
    batch.frames.push_back(frame);
    bool ok = true;
    const double us = probe_us(41, 500, [&] {
      proto::Envelope env;
      env.op = proto::OpCode::kMpiBatch;
      env.payload = batch.serialize();
      const Bytes wire = env.serialize();
      Result<proto::Envelope> back = proto::Envelope::deserialize(wire);
      ok &= back.is_ok();
      if (!back.is_ok()) return;
      Result<proto::MpiBatch> parsed = proto::MpiBatch::parse(back.value().payload);
      ok &= parsed.is_ok() && parsed.value().frames.size() == 1 &&
            parsed.value().frames[0] == frame;
    });
    out["proto.envelope_codec_us"] = ok ? us : -1;
  }

  std::ostringstream json;
  json << "{";
  bool first = true;
  for (const auto& [name, v] : out) {
    if (!first) json << ",";
    first = false;
    json << json_str(name) << ":" << json_num(v);
  }
  json << "}";
  return json.str();
}

// ------------------------------------------------------------ workloads

struct Outcome {
  std::vector<std::string> problems;
  std::uint64_t launches = 0;
  std::uint64_t launch_misses = 0;
  void problem(const std::string& p) { problems.push_back(p); }
};

/// One timed run of a registered data-plane app at site0 (warm-up or
/// measured). `record` routes its samples into the op log.
proxy::AppRunResult run_data_app(grid::Grid& grid, const Bytes& token,
                                 const std::string& app, std::uint32_t ranks,
                                 double seconds, bool record) {
  g_ctx.record = record;
  g_ctx.deadline_us = now_us() + seconds * 1e6;
  sched::SchedulerPtr scheduler = sched::make_round_robin_scheduler();
  const auto timeout = static_cast<TimeMicros>(seconds * 1e6) + 30 * kMicrosPerSecond;
  return grid.proxy("site0").run_app("bench", token, app, ranks, *scheduler, {},
                                     timeout);
}

/// One closed-loop portal user: log in at a seeded random site, query the
/// status of every site, run an 8-rank app, submit a 4-rank job and wait for
/// it. Every call has its own deadline; a failure is recorded by op kind and
/// error code, and the loop moves on.
void control_client(grid::Grid& grid, const std::string& app, std::uint64_t seed,
                    int client, Outcome& outcome, std::mutex& outcome_mutex) {
  Rng rng(seed * 104729 + static_cast<std::uint64_t>(client));
  std::vector<std::string> sites = grid.sites();
  std::sort(sites.begin(), sites.end());
  sched::SchedulerPtr scheduler = sched::make_round_robin_scheduler();
  OpLog& ops = *g_ctx.ops;
  std::uint64_t launches = 0, misses = 0;
  double t0 = 0;
  bool traced = false;
  auto begin = [&] {
    t0 = now_us();
    traced = tracing_now(t0);
  };
  // Records the op that began at t0; `pool` also files its latency under a
  // pooled view ("query" or "launch").
  auto finish = [&](const char* kind, const char* pool, const Status& status,
                    const std::string& code = "") {
    const double us = now_us() - t0;
    if (std::strcmp(pool, "launch") == 0) {
      ++launches;
      if (status.code() == ErrorCode::kDeadlineExceeded) ++misses;
    }
    if (status.is_ok() && code.empty()) {
      ops.ok(kind, us, traced);
      ops.sample(pool, us, traced);
    } else {
      ops.fail(kind, code.empty() ? error_code_name(status.code()) : code);
    }
  };

  while (now_us() < g_ctx.deadline_us) {
    const std::string& origin = sites[rng.next_u64() % sites.size()];
    begin();
    Result<Bytes> token = [&] {
      ScopedSpan s("auth.login", traced);
      return grid.login(origin, "bench", "pw");
    }();
    finish("login", "query", token.status());
    if (!token.is_ok()) continue;

    begin();
    Result<std::vector<proto::StatusReport>> reports = [&] {
      ScopedSpan s("monitor.status", traced);
      return grid.status(origin, token.value());
    }();
    std::string status_check;
    if (reports.is_ok()) {
      std::vector<std::string> seen;
      for (const auto& r : reports.value()) seen.push_back(r.site);
      std::sort(seen.begin(), seen.end());
      if (seen != sites) status_check = "wrong_report_set";
    }
    finish("status", "query", reports.status(), status_check);

    proxy::ProxyServer& proxy = grid.proxy(origin);
    begin();
    const proxy::AppRunResult run = [&] {
      ScopedSpan s("proxy.run_app", traced);
      return proxy.run_app("bench", token.value(), app, 8,
                           *scheduler, {}, kLaunchDeadline);
    }();
    finish("run_app", "launch", run.status);

    begin();
    Result<std::uint64_t> job = [&] {
      ScopedSpan s("proxy.submit_job", traced);
      return proxy.submit_job("bench", token.value(), app, 4,
                              sched::Policy::kRoundRobin);
    }();
    if (!job.is_ok()) {
      finish("job", "launch", job.status());
      continue;
    }
    Result<proxy::JobRecord> done = [&] {
      ScopedSpan s("proxy.wait_job", traced);
      return proxy.wait_job(job.value(), kLaunchDeadline);
    }();
    if (!done.is_ok()) {
      finish("job", "launch", done.status());
    } else if (done.value().state == proxy::JobState::kSucceeded) {
      finish("job", "launch", Status::ok());
    } else if (done.value().state == proxy::JobState::kPending ||
               done.value().state == proxy::JobState::kRunning) {
      // Still in flight at the deadline: the launch never completed.
      finish("job", "launch", error(ErrorCode::kDeadlineExceeded, "job"));
    } else {
      finish("job", "launch", done.value().outcome,
             std::string("job_") + proxy::job_state_name(done.value().state) +
                 "_" + error_code_name(done.value().outcome.code()));
    }
  }
  std::lock_guard<std::mutex> lock(outcome_mutex);
  outcome.launches += launches;
  outcome.launch_misses += misses;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: gridbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  Topology topo{};
  if (opt.workload == "pingpong") {
    topo = {2, 1, false};
  } else if (opt.workload == "lossy_pingpong") {
    topo = {2, 1, true};
  } else if (opt.workload == "stream") {
    topo = {2, 2, false};
  } else if (opt.workload == "control_mix" || opt.workload == "control_barrier") {
    topo = {4, 4, false};
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  register_apps();
  OpLog ops;
  g_ctx.seed = opt.seed;
  g_ctx.ops = &ops;
  for (std::size_t i = 0; i < kStreamPatterns; ++i)
    g_ctx.patterns.push_back(seeded_bytes(opt.seed * 31 + i, kStreamBytes));

  std::vector<double> setup_s;
  std::unique_ptr<grid::Grid> grid = setup(opt, topo, setup_s);
  if (!grid) return 1;
  Result<Bytes> token = grid->login("site0", "bench", "pw");
  if (!token.is_ok()) {
    std::fprintf(stderr, "login failed: %s\n", token.status().to_string().c_str());
    return 1;
  }

  Outcome outcome;
  std::string before, after, after_probe;
  ResourceSampler sampler;
  double measure_s = 0;

  // Tracing (when on) covers the second half of the measured phase; the
  // first half is the untraced reference for the tracing overhead.
  auto arm_trace = [&](double start) {
    SpanLog::instance().enabled = opt.trace;
    g_ctx.trace_from_us = opt.trace ? start + opt.seconds * 0.5e6 : 0;
  };

  const bool control = topo.sites == 4;
  if (control) {
    const std::string app =
        opt.workload == "control_mix" ? "perfbench.launch" : "perfbench.barrier";
    const int clients = kControlClients;
    // Warm-up: same loop, unrecorded into a throwaway log.
    OpLog warm;
    g_ctx.ops = &warm;
    Outcome warm_outcome;
    std::mutex outcome_mutex;
    g_ctx.deadline_us = now_us() + kWarmupSeconds * 1e6;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c)
        threads.emplace_back(control_client, std::ref(*grid), app, opt.seed + 99, c,
                             std::ref(warm_outcome), std::ref(outcome_mutex));
      for (auto& t : threads) t.join();
    }
    g_ctx.ops = &ops;
    before = snapshot_json(*grid);
    sampler.start();
    const double start = now_us();
    arm_trace(start);
    g_ctx.deadline_us = start + opt.seconds * 1e6;
    ops.window_start_us = start;
    ops.window_end_us = g_ctx.deadline_us;
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c)
        threads.emplace_back(control_client, std::ref(*grid), app, opt.seed, c,
                             std::ref(outcome), std::ref(outcome_mutex));
      for (auto& t : threads) t.join();
    }
    measure_s = (g_ctx.deadline_us - start) / 1e6;
    sampler.stop();
    SpanLog::instance().enabled = false;
    after = snapshot_json(*grid);
  } else {
    const bool stream = opt.workload == "stream";
    const std::string app = stream ? "perfbench.stream" : "perfbench.pingpong";
    const std::uint32_t ranks = stream ? 4 : 2;
    if (opt.workload == "lossy_pingpong") g_ctx.lossy = grid->intra_site_injector();
    // Warm-up runs lossless: windows, RTO estimators and caches fill first.
    net::FaultInjectorPtr lossy = g_ctx.lossy;
    g_ctx.lossy = nullptr;
    proxy::AppRunResult warm =
        run_data_app(*grid, token.value(), app, ranks, kWarmupSeconds, false);
    g_ctx.lossy = lossy;
    if (!warm.status.is_ok()) {
      outcome.problem("warm-up run failed: " + warm.status.to_string());
    }
    if (stream) {
      // Partners (r, r+2) must sit on different sites: the exchange is
      // meant to cross the inter-site tunnel.
      std::map<std::uint32_t, std::string> site_of;
      for (const auto& p : warm.placements) site_of[p.rank] = p.site;
      for (std::uint32_t r = 0; r < 2; ++r)
        if (site_of[r] == site_of[r + 2]) outcome.problem("stream partners share a site");
    }
    g_ctx.verified_bytes = 0;
    g_ctx.late_bytes = 0;
    before = snapshot_json(*grid);
    sampler.start();
    const double start = now_us();
    arm_trace(start);
    ops.window_start_us = start;
    ops.window_end_us = start + opt.seconds * 1e6;
    proxy::AppRunResult run =
        run_data_app(*grid, token.value(), app, ranks, opt.seconds, true);
    g_ctx.lossy = nullptr;
    sampler.stop();
    SpanLog::instance().enabled = false;
    after = snapshot_json(*grid);
    ++outcome.launches;
    if (!run.status.is_ok()) {
      if (run.status.code() == ErrorCode::kDeadlineExceeded) ++outcome.launch_misses;
      outcome.problem("measured run failed: " + run.status.to_string());
    }
    measure_s = (g_ctx.deadline_us - start) / 1e6;
    if (g_ctx.bad_messages.load() > 0)
      outcome.problem(std::to_string(g_ctx.bad_messages.load()) +
                      " stream messages failed their size/pattern check");
  }

  std::string probes = "{}";
  if (opt.trace) {
    // Control-plane probe for the data workloads, which never log in,
    // query status or schedule during their measured phase.
    if (!control) {
      // Spans only around login and status: the probe's launches stay
      // untraced so they do not mix into the workload's spans.
      SpanLog::instance().enabled = true;
      g_ctx.trace_from_us = 0;
      sched::SchedulerPtr scheduler = sched::make_round_robin_scheduler();
      for (int i = 0; i < 30; ++i) {
        Result<Bytes> tok = [&] {
          ScopedSpan s("auth.login", true);
          return grid->login("site0", "bench", "pw");
        }();
        if (!tok.is_ok()) {
          outcome.problem("probe login failed");
          break;
        }
        Result<std::vector<proto::StatusReport>> st = [&] {
          ScopedSpan s("monitor.status", true);
          return grid->status("site0", tok.value());
        }();
        if (!st.is_ok() || st.value().size() != topo.sites) {
          outcome.problem("probe status failed");
          break;
        }
        const proxy::AppRunResult r =
            grid->proxy("site0").run_app("bench", tok.value(), "perfbench.launch",
                                         2, *scheduler, {}, kLaunchDeadline);
        ++outcome.launches;
        if (!r.status.is_ok()) {
          outcome.problem("probe launch failed: " + r.status.to_string());
          break;
        }
      }
      SpanLog::instance().enabled = false;
    }
    after_probe = snapshot_json(*grid);
  }
  grid->shutdown();
  grid.reset();
  t_spans.flush();
  if (!time_builds(topo, kSetupBuilds / 2, kSetupBuilds, setup_s)) return 1;
  if (opt.trace) probes = run_probes(opt.seed);

  std::ostringstream out;
  out << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"seconds\":" << json_num(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    out << (i ? "," : "") << json_num(setup_s[i]);
  out << "],\"measure_s\":" << json_num(measure_s)
      << ",\"ops\":" << ops.json() << ",\"problems\":[";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i)
    out << (i ? "," : "") << json_str(outcome.problems[i]);
  out << "],\"launches\":" << outcome.launches
      << ",\"launch_deadline_misses\":" << outcome.launch_misses
      << ",\"verified_bytes\":" << g_ctx.verified_bytes.load()
      << ",\"late_bytes\":" << g_ctx.late_bytes.load()
      << ",\"peak_threads\":" << sampler.peak_threads()
      << ",\"peak_rss_mb\":" << json_num(sampler.peak_rss_mb())
      << ",\"before\":" << before << ",\"after\":" << after;
  if (opt.trace) {
    out << ",\"after_probe\":" << after_probe
        << ",\"spans\":" << SpanLog::instance().json() << ",\"probes\":" << probes;
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
  return 0;
}
