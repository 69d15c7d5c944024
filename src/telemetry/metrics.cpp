#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pg::telemetry {

namespace internal {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShardCount;
  return slot;
}

}  // namespace internal

// ------------------------------------------------------------- histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::vector<std::atomic<std::uint64_t>>(
      internal::kShardCount * (bounds_.size() + 1));
}

void Histogram::observe(double value) {
  const std::size_t bucket =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                value) -
                               bounds_.begin());
  const std::size_t shard = internal::thread_shard();
  counts_[shard * (bounds_.size() + 1) + bucket].fetch_add(
      1, std::memory_order_relaxed);
  std::atomic<double>& sum = shards_[shard].sum;
  double expected = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(expected, expected + value,
                                    std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (std::size_t shard = 0; shard < internal::kShardCount; ++shard) {
    for (std::size_t bucket = 0; bucket <= bounds_.size(); ++bucket) {
      snap.counts[bucket] +=
          counts_[shard * (bounds_.size() + 1) + bucket].load(
              std::memory_order_relaxed);
    }
    snap.sum += shards_[shard].sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

std::vector<double> duration_buckets_micros() {
  // 1us .. 10s, roughly x4 per step.
  return {1,     4,      16,      64,      256,      1024,
          4096,  16384,  65536,   262144,  1048576,  10000000};
}

std::vector<double> size_buckets_bytes() {
  return {64,    256,    1024,    4096,    16384,   65536,
          262144, 1048576, 4194304, 16777216};
}

// -------------------------------------------------------------- registry

MetricRegistry& MetricRegistry::global() {
  // Intentionally leaked, like Reactor::global(): the reactor's I/O and
  // timer threads are never joined and may still bump counters while
  // static destructors run at process exit.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace {

/// Canonical `{k="v",...}` encoding; "" for the empty label set. Doubles as
/// the instrument key so equal label sets collapse to one instrument.
std::string encode_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

/// Labels with one extra pair appended (for histogram `le` buckets).
std::string encode_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels extended = labels;
  extended[key] = value;
  return encode_labels(extended);
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

MetricRegistry::Family& MetricRegistry::family(const std::string& name,
                                               Kind kind,
                                               const std::string& help) {
  Family& fam = families_[name];
  if (fam.instruments.empty()) {
    fam.kind = kind;
    fam.help = help;
  }
  return fam;
}

Counter& MetricRegistry::counter(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::kCounter, help);
  Instrument& inst = fam.instruments[encode_labels(labels)];
  if (!inst.counter) {
    inst.labels = labels;
    inst.counter = std::make_unique<Counter>();
  }
  return *inst.counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const std::string& help,
                             const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::kGauge, help);
  Instrument& inst = fam.instruments[encode_labels(labels)];
  if (!inst.gauge) {
    inst.labels = labels;
    inst.gauge = std::make_unique<Gauge>();
  }
  return *inst.gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& fam = family(name, Kind::kHistogram, help);
  Instrument& inst = fam.instruments[encode_labels(labels)];
  if (!inst.histogram) {
    inst.labels = labels;
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *inst.histogram;
}

std::string MetricRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) out << "# HELP " << name << " " << fam.help << "\n";
    out << "# TYPE " << name << " "
        << (fam.kind == Kind::kCounter
                ? "counter"
                : fam.kind == Kind::kGauge ? "gauge" : "histogram")
        << "\n";
    for (const auto& [key, inst] : fam.instruments) {
      if (fam.kind == Kind::kCounter) {
        out << name << key << " " << inst.counter->value() << "\n";
      } else if (fam.kind == Kind::kGauge) {
        out << name << key << " " << inst.gauge->value() << "\n";
      } else {
        const Histogram::Snapshot snap = inst.histogram->snapshot();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
          cumulative += snap.counts[i];
          out << name << "_bucket"
              << encode_labels_with(inst.labels, "le",
                                    format_double(snap.bounds[i]))
              << " " << cumulative << "\n";
        }
        out << name << "_bucket"
            << encode_labels_with(inst.labels, "le", "+Inf") << " "
            << snap.count << "\n";
        out << name << "_sum" << key << " " << snap.sum << "\n";
        out << name << "_count" << key << " " << snap.count << "\n";
      }
    }
  }
  return out.str();
}

std::string MetricRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam.instruments) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << json_escape(name) << "\",\"labels\":{";
      bool first_label = true;
      for (const auto& [lk, lv] : inst.labels) {
        if (!first_label) out << ",";
        first_label = false;
        out << "\"" << json_escape(lk) << "\":\"" << json_escape(lv) << "\"";
      }
      out << "},";
      if (fam.kind == Kind::kCounter) {
        out << "\"type\":\"counter\",\"value\":" << inst.counter->value();
      } else if (fam.kind == Kind::kGauge) {
        out << "\"type\":\"gauge\",\"value\":" << inst.gauge->value();
      } else {
        const Histogram::Snapshot snap = inst.histogram->snapshot();
        out << "\"type\":\"histogram\",\"count\":" << snap.count
            << ",\"sum\":" << snap.sum << ",\"buckets\":[";
        for (std::size_t i = 0; i < snap.counts.size(); ++i) {
          if (i > 0) out << ",";
          out << "{\"le\":";
          if (i < snap.bounds.size()) {
            out << snap.bounds[i];
          } else {
            out << "\"+Inf\"";
          }
          out << ",\"count\":" << snap.counts[i] << "}";
        }
        out << "]";
      }
      out << "}";
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace pg::telemetry
