// E12 — event-driven proxy core at scale (ISSUE 7 tentpole proof).
//
// Holds 10k+ concurrent connections open against the process-global reactor
// and measures request latency through a hot subset while the rest idle.
// Under the old thread-per-connection reader model this fleet would need
// 20k+ reader threads; the reactor holds it on its I/O threads plus the
// main thread, which the `os_threads` counter proves against
// `reactor_io_threads`.
//
// The fleet mixes real TCP sockets (epoll edge-triggered path, capped by
// RLIMIT_NOFILE) with in-process memory channels (the fd-less readiness
// shim) so both reactor paths carry load.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "net/memory_channel.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "proxy/connection.hpp"
#include "tls/link.hpp"

namespace {

using namespace pg;

/// Live threads in this process, from /proc/self/status. The headline
/// number: ~10k connections must NOT mean ~10k threads.
long thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::strtol(line.c_str() + 8, nullptr, 10);
  }
  return -1;
}

/// How many TCP connection pairs the fd budget allows (2 fds per pair,
/// generous headroom for the process's other fds).
std::size_t tcp_budget() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
    (void)getrlimit(RLIMIT_NOFILE, &lim);
  }
  if (lim.rlim_cur < 2048) return 0;
  return std::min<std::size_t>(3000, (lim.rlim_cur - 2048) / 2);
}

struct ConnPairHolder {
  proxy::ConnectionPtr a;  // calling end
  proxy::ConnectionPtr b;  // echo end
};

ConnPairHolder make_conn_pair(net::ChannelPtr chan_a, net::ChannelPtr chan_b) {
  auto link_a = tls::make_plain_link(*chan_a);
  auto link_b = tls::make_plain_link(*chan_b);
  ConnPairHolder out;
  out.a = std::make_unique<proxy::Connection>(
      "echo", std::move(chan_a), std::move(link_a), true,
      [](const proto::Envelope&, proxy::Connection&) {});
  out.b = std::make_unique<proxy::Connection>(
      "caller", std::move(chan_b), std::move(link_b), false,
      [](const proto::Envelope& env, proxy::Connection& conn) {
        if (env.op == proto::OpCode::kPing)
          (void)conn.respond(env, proto::OpCode::kPong, env.payload);
      });
  out.a->start();
  out.b->start();
  return out;
}

/// The held-open fleet. Built once and leaked: teardown is not what this
/// bench measures, and the global reactor outlives statics anyway.
struct Fleet {
  std::vector<ConnPairHolder> pairs;
  std::size_t tcp_pairs = 0;

  explicit Fleet(std::size_t total) {
    pairs.reserve(total);
    const std::size_t tcp_target = std::min(total, tcp_budget());
    if (tcp_target > 0) {
      auto listener = net::TcpListener::bind(0);
      if (listener.is_ok()) {
        for (std::size_t i = 0; i < tcp_target; ++i) {
          auto client =
              net::tcp_connect("127.0.0.1", listener.value().port());
          if (!client.is_ok()) break;
          auto accepted = listener.value().accept();
          if (!accepted.is_ok()) break;
          pairs.push_back(make_conn_pair(client.take(), accepted.take()));
        }
      }
      tcp_pairs = pairs.size();
    }
    while (pairs.size() < total) {
      net::ChannelPair chans = net::make_memory_channel_pair();
      pairs.push_back(make_conn_pair(std::move(chans.a), std::move(chans.b)));
    }
  }
};

Fleet& fleet_of(std::size_t total) {
  static auto* fleets = new std::vector<std::unique_ptr<Fleet>>();
  for (auto& f : *fleets) {
    if (f->pairs.size() == total) return *f;
  }
  fleets->push_back(std::make_unique<Fleet>(total));
  return *fleets->back();
}

/// Request latency through a hot subset while `total - hot` connections sit
/// idle on the same reactor. Idle connections must be nearly free.
void BM_PingWithConcurrentConnections(benchmark::State& state) {
  const std::size_t total = static_cast<std::size_t>(state.range(0));
  Fleet& fleet = fleet_of(total);
  // Hot subset straddles the TCP/memory boundary so both paths are hit.
  const std::size_t hot = std::min<std::size_t>(64, fleet.pairs.size());
  const std::size_t stride = fleet.pairs.size() / hot;
  const Bytes payload = to_bytes(std::string(256, 'q'));

  std::size_t i = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    ConnPairHolder& pair = fleet.pairs[(i % hot) * stride];
    Result<proto::Envelope> response =
        pair.a->call(proto::OpCode::kPing, payload, 10 * kMicrosPerSecond);
    if (!response.is_ok()) {
      state.SkipWithError(response.status().to_string().c_str());
      break;
    }
    bytes += payload.size() + response.value().payload.size();
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["connections"] =
      static_cast<double>(fleet.pairs.size() * 2);  // both ends registered
  state.counters["tcp_connections"] = static_cast<double>(fleet.tcp_pairs * 2);
  // Not "threads": google-benchmark writes its own field of that name.
  state.counters["os_threads"] = static_cast<double>(thread_count());
  state.counters["reactor_io_threads"] =
      static_cast<double>(net::Reactor::global().io_thread_count());
}
BENCHMARK(BM_PingWithConcurrentConnections)
    ->Arg(100)
    ->Arg(5000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Connection lifecycle rate: open (reactor registration), one round trip,
/// close (reactor detach). The churn path CI's sanitizer matrix also
/// hammers.
void BM_ConnectionChurn(benchmark::State& state) {
  const Bytes payload = to_bytes("churn");
  std::uint64_t ok = 0;
  for (auto _ : state) {
    net::ChannelPair chans = net::make_memory_channel_pair();
    ConnPairHolder pair =
        make_conn_pair(std::move(chans.a), std::move(chans.b));
    Result<proto::Envelope> response =
        pair.a->call(proto::OpCode::kPing, payload, 10 * kMicrosPerSecond);
    if (!response.is_ok()) {
      state.SkipWithError(response.status().to_string().c_str());
      break;
    }
    ++ok;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ok));
}
BENCHMARK(BM_ConnectionChurn)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
