// Unit and property tests for src/common: bytes, serde, status, rng, and
// the application thread cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/status.hpp"
#include "common/thread_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pg {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = hex_encode(data);
  EXPECT_EQ(hex, "0001abff7f");
  Bytes back;
  ASSERT_TRUE(hex_decode(hex, back));
  EXPECT_EQ(back, data);
}

TEST(Bytes, HexDecodeRejectsMalformed) {
  Bytes out;
  EXPECT_FALSE(hex_decode("abc", out));   // odd length
  EXPECT_FALSE(hex_decode("zz", out));    // bad digit
  EXPECT_TRUE(hex_decode("", out));       // empty is valid
  EXPECT_TRUE(out.empty());
}

TEST(Bytes, HexDecodeAcceptsUpperCase) {
  Bytes out;
  ASSERT_TRUE(hex_decode("DEADBEEF", out));
  EXPECT_EQ(hex_encode(out), "deadbeef");
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = to_bytes("secret-mac-value");
  const Bytes b = to_bytes("secret-mac-value");
  const Bytes c = to_bytes("secret-mac-valuX");
  const Bytes d = to_bytes("short");
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = error(ErrorCode::kPermissionDenied, "no mpi.run");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(s.to_string(), "permission_denied: no mpi.run");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_STRNE(error_code_name(static_cast<ErrorCode>(c)), "unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r(error(ErrorCode::kNotFound, "missing"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("payload"));
  EXPECT_EQ(r.take(), "payload");
}

TEST(Serde, FixedWidthRoundTrip) {
  BufferWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_bool(true);
  w.put_double(3.25);

  BufferReader r(w.data());
  std::uint8_t v8;
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  bool vb;
  double vd;
  ASSERT_TRUE(r.get_u8(v8).is_ok());
  ASSERT_TRUE(r.get_u16(v16).is_ok());
  ASSERT_TRUE(r.get_u32(v32).is_ok());
  ASSERT_TRUE(r.get_u64(v64).is_ok());
  ASSERT_TRUE(r.get_bool(vb).is_ok());
  ASSERT_TRUE(r.get_double(vd).is_ok());
  EXPECT_EQ(v8, 0xab);
  EXPECT_EQ(v16, 0x1234);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(vb);
  EXPECT_EQ(vd, 3.25);
  EXPECT_TRUE(r.expect_end().is_ok());
}

TEST(Serde, BigEndianLayout) {
  BufferWriter w;
  w.put_u32(0x01020304);
  const Bytes expected = {0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(w.data(), expected);
}

TEST(Serde, StringAndBytes) {
  BufferWriter w;
  w.put_string("grid");
  w.put_bytes(Bytes{1, 2, 3});
  BufferReader r(w.data());
  std::string s;
  Bytes b;
  ASSERT_TRUE(r.get_string(s).is_ok());
  ASSERT_TRUE(r.get_bytes(b).is_ok());
  EXPECT_EQ(s, "grid");
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
}

TEST(Serde, TruncationDetected) {
  BufferWriter w;
  w.put_u32(7);
  BufferReader r(w.data());
  std::uint64_t v;
  EXPECT_EQ(r.get_u64(v).code(), ErrorCode::kProtocolError);
}

TEST(Serde, TrailingBytesDetected) {
  BufferWriter w;
  w.put_u8(1);
  w.put_u8(2);
  BufferReader r(w.data());
  std::uint8_t v;
  ASSERT_TRUE(r.get_u8(v).is_ok());
  EXPECT_FALSE(r.expect_end().is_ok());
}

TEST(Serde, BytesLengthLieDetected) {
  // A length prefix larger than the remaining payload must fail cleanly.
  BufferWriter w;
  w.put_varint(100);
  w.put_u8(1);
  BufferReader r(w.data());
  Bytes out;
  EXPECT_EQ(r.get_bytes(out).code(), ErrorCode::kProtocolError);
}

TEST(Serde, BadBoolRejected) {
  const Bytes raw = {0x02};
  BufferReader r(raw);
  bool v;
  EXPECT_EQ(r.get_bool(v).code(), ErrorCode::kProtocolError);
}

TEST(Serde, VarintOverflowRejected) {
  // 11 continuation bytes cannot encode a u64.
  const Bytes raw(11, 0xff);
  BufferReader r(raw);
  std::uint64_t v;
  EXPECT_EQ(r.get_varint(v).code(), ErrorCode::kProtocolError);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  BufferWriter w;
  w.put_varint(GetParam());
  BufferReader r(w.data());
  std::uint64_t v = 0;
  ASSERT_TRUE(r.get_varint(v).is_ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.expect_end().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 12345,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBytesLength) {
  Rng rng(3);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{33}}) {
    EXPECT_EQ(rng.next_bytes(n).size(), n);
  }
}

// ---------------------------------------------------------- thread cache

telemetry::Gauge& cached_threads(const char* state) {
  return telemetry::MetricRegistry::global().gauge(
      "pg_thread_cache_threads", "", {{"state", state}});
}

telemetry::Counter& threads_spawned() {
  return telemetry::MetricRegistry::global().counter(
      "pg_thread_cache_spawned_total");
}

TEST(ThreadCache, SequentialTasksReuseOneThread) {
  std::thread::id first;
  std::thread::id second;
  ThreadCache::run([&first] { first = std::this_thread::get_id(); }).wait();
  const std::uint64_t spawned = threads_spawned().value();
  ThreadCache::run([&second] { second = std::this_thread::get_id(); }).wait();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, std::this_thread::get_id());
  EXPECT_EQ(threads_spawned().value(), spawned);
}

TEST(ThreadCache, IdleThreadExitsAfterLinger) {
  ThreadCache::run([] {}).wait();
  const auto parked = std::chrono::steady_clock::now();
  EXPECT_GE(cached_threads("idle").value(), 1);
  EXPECT_EQ(cached_threads("busy").value(), 0);
  for (int i = 0; i < 500 && cached_threads("idle").value() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cached_threads("idle").value(), 0);
  EXPECT_GE(std::chrono::steady_clock::now() - parked,
            ThreadCache::kIdleLinger / 2);
  // The next task needs a fresh thread.
  const std::uint64_t spawned = threads_spawned().value();
  ThreadCache::run([] {}).wait();
  EXPECT_EQ(threads_spawned().value(), spawned + 1);
}

TEST(ThreadCache, WaitReturnsAfterCapturesAreDestroyed) {
  std::atomic<bool> destroyed{false};
  std::promise<void> go;
  std::shared_future<void> started = go.get_future().share();
  auto capture = std::shared_ptr<int>(new int(0), [&destroyed](int* p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    delete p;
    destroyed = true;
  });
  const ThreadCache::Handle handle =
      ThreadCache::run([capture, started] { started.wait(); });
  capture.reset();  // the task now holds the last reference
  go.set_value();
  handle.wait();
  EXPECT_TRUE(destroyed);
}

TEST(ThreadCache, TasksThatWaitOnEachOtherAllFinish) {
  // Every task blocks until all 16 have started: a cache that queued
  // tasks behind a fixed set of threads would time them out.
  constexpr int kTasks = 16;
  std::mutex mutex;
  std::condition_variable all_here;
  int arrived = 0;
  std::atomic<int> met{0};
  std::vector<ThreadCache::Handle> handles;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(ThreadCache::run([&] {
      std::unique_lock<std::mutex> lock(mutex);
      if (++arrived == kTasks) all_here.notify_all();
      if (all_here.wait_for(lock, std::chrono::seconds(10),
                            [&] { return arrived == kTasks; }))
        ++met;
    }));
  }
  for (const ThreadCache::Handle& handle : handles) handle.wait();
  EXPECT_EQ(met.load(), kTasks);
}

TEST(ThreadCache, ReusedThreadStartsWithEmptyTraceState) {
  // The first task leaves a live span and span sink behind on its thread.
  telemetry::Span leaked_span;
  std::unique_ptr<telemetry::ScopedSpanSink> leaked_sink;
  std::atomic<int> sunk{0};
  std::thread::id first;
  ThreadCache::run([&] {
    first = std::this_thread::get_id();
    leaked_sink = std::make_unique<telemetry::ScopedSpanSink>(
        [&sunk](const telemetry::SpanRecord&) { ++sunk; });
    leaked_span = telemetry::Tracer::global().start_span("leaked");
  }).wait();

  std::thread::id second;
  telemetry::TraceContext seen;
  ThreadCache::run([&] {
    second = std::this_thread::get_id();
    seen = telemetry::Tracer::current();
    telemetry::Tracer::global().start_span("probe").end();
  }).wait();
  ASSERT_EQ(first, second);
  EXPECT_FALSE(seen.valid());
  EXPECT_EQ(sunk.load(), 0);
  leaked_span.end();
  leaked_sink.reset();
}

TEST(ThreadCache, DoneTurnsTrueOnceTheTaskFinished) {
  EXPECT_TRUE(ThreadCache::Handle().done());
  std::promise<void> go;
  std::shared_future<void> release = go.get_future().share();
  const ThreadCache::Handle handle =
      ThreadCache::run([release] { release.wait(); });
  EXPECT_FALSE(handle.done());
  go.set_value();
  handle.wait();
  EXPECT_TRUE(handle.done());
}

}  // namespace
}  // namespace pg
