// End-to-end integration tests: full grid bring-up, authentication, status,
// MPI applications across sites in both security modes, tunnels, CLI and
// failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "grid/cli.hpp"
#include "grid/grid.hpp"
#include "mpi/datatypes.hpp"
#include "mpi/runtime.hpp"
#include "proxy/shard_ring.hpp"

namespace pg::grid {
namespace {

/// Registers the distributed-pi application once for the whole binary.
void register_apps() {
  static bool done = [] {
    mpi::AppRegistry::instance().register_app(
        "pi", [](mpi::Comm& comm) -> Status {
          constexpr std::uint64_t kIntervals = 20000;
          double local = 0.0;
          for (std::uint64_t i = comm.rank(); i < kIntervals;
               i += comm.size()) {
            const double x = (i + 0.5) / kIntervals;
            local += 4.0 / (1.0 + x * x);
          }
          Result<double> total =
              comm.allreduce(local / kIntervals, mpi::ReduceOp::kSum);
          if (!total.is_ok()) return total.status();
          if (std::abs(total.value() - M_PI) > 1e-6)
            return error(ErrorCode::kInternal, "pi value wrong");
          return Status::ok();
        });
    mpi::AppRegistry::instance().register_app(
        "ring", [](mpi::Comm& comm) -> Status {
          // Token circulates the whole world once.
          const std::uint32_t next = (comm.rank() + 1) % comm.size();
          const std::int32_t prev = static_cast<std::int32_t>(
              (comm.rank() + comm.size() - 1) % comm.size());
          if (comm.rank() == 0) {
            PG_RETURN_IF_ERROR(comm.send(next, 1, mpi::pack_u64(1)));
            Result<Bytes> token = comm.recv(prev, 1);
            if (!token.is_ok()) return token.status();
            if (mpi::unpack_u64(token.value()).value() != comm.size())
              return error(ErrorCode::kInternal, "ring count wrong");
            return Status::ok();
          }
          Result<Bytes> token = comm.recv(prev, 1);
          if (!token.is_ok()) return token.status();
          return comm.send(next, 1,
                           mpi::pack_u64(
                               mpi::unpack_u64(token.value()).value() + 1));
        });
    mpi::AppRegistry::instance().register_app(
        "noop", [](mpi::Comm&) -> Status { return Status::ok(); });
    mpi::AppRegistry::instance().register_app(
        "bcast-check", [](mpi::Comm& comm) -> Status {
          const Bytes data(2048, 0x5a);
          Result<Bytes> got =
              comm.broadcast(0, comm.rank() == 0 ? data : Bytes{});
          if (!got.is_ok()) return got.status();
          if (got.value() != data)
            return error(ErrorCode::kInternal, "broadcast payload wrong");
          return Status::ok();
        });
    return true;
  }();
  (void)done;
}

std::unique_ptr<Grid> make_grid(proxy::SecurityMode mode =
                                    proxy::SecurityMode::kProxyTunneling,
                                std::size_t sites = 2,
                                std::size_t nodes_per_site = 2) {
  register_apps();
  GridBuilder builder;
  builder.seed(1234).key_bits(768).security_mode(mode);
  for (std::size_t s = 0; s < sites; ++s) {
    const std::string site = "site" + std::string(1, static_cast<char>('A' + s));
    builder.add_nodes(site, nodes_per_site);
  }
  builder.add_user("alice", "correct-horse",
                   {"mpi.run", "status.query", "job.submit"});
  builder.add_user("bob", "builder", {"status.query"});
  Result<std::unique_ptr<Grid>> grid = builder.build();
  EXPECT_TRUE(grid.is_ok()) << grid.status().to_string();
  return grid.is_ok() ? grid.take() : nullptr;
}

TEST(GridBringUp, SitesAndPeersConnected) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 3, 1);
  ASSERT_NE(grid, nullptr);
  EXPECT_EQ(grid->sites().size(), 3u);
  for (const auto& site : grid->sites()) {
    EXPECT_EQ(grid->proxy(site).peers().size(), 2u) << site;
    for (const auto& peer : grid->proxy(site).peers()) {
      EXPECT_TRUE(grid->proxy(site).peer_alive(peer));
    }
  }
}

TEST(GridBringUp, InterSiteLinksAreEncrypted) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  for (const auto& link : grid->proxy("siteA").link_report()) {
    if (link.inter_site) {
      EXPECT_TRUE(link.encrypted) << link.peer;
    } else {
      EXPECT_FALSE(link.encrypted) << link.peer;  // proxy-tunneling mode
    }
  }
}

TEST(GridBringUp, PerNodeModeEncryptsNodeLinks) {
  auto grid = make_grid(proxy::SecurityMode::kPerNodeSecurity);
  ASSERT_NE(grid, nullptr);
  for (const auto& link : grid->proxy("siteA").link_report()) {
    EXPECT_TRUE(link.encrypted) << link.peer;
  }
}

TEST(GridAuth, LoginAndTicketFlow) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok()) << token.status().to_string();

  Result<Bytes> bad = grid->login("siteA", "alice", "wrong");
  EXPECT_EQ(bad.status().code(), ErrorCode::kUnauthenticated);

  Result<Bytes> ghost = grid->login("siteA", "ghost", "x");
  EXPECT_FALSE(ghost.is_ok());
}

TEST(GridAuth, TicketFromOneSiteWorksAtAnother) {
  // Realm-shared ticket key: alice logs in at siteA, her ticket authorizes
  // operations validated by siteB (the destination-proxy check).
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  EXPECT_TRUE(grid->proxy("siteB")
                  .authenticator()
                  .authorize(token.value(), "mpi.run", grid->clock().now())
                  .is_ok());
}

TEST(GridStatus, QueryAllSites) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 3, 2);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  Result<std::vector<proto::StatusReport>> reports =
      grid->status("siteA", token.value());
  ASSERT_TRUE(reports.is_ok()) << reports.status().to_string();
  ASSERT_EQ(reports.value().size(), 3u);
  for (const auto& report : reports.value()) {
    EXPECT_EQ(report.nodes.size(), 2u) << report.site;
  }
}

TEST(GridStatus, SubsetQueryCostsOnlyThatSubset) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 4, 1);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  const std::uint64_t calls_before =
      grid->proxy("siteA").metrics().control_calls_sent;
  Result<std::vector<proto::StatusReport>> reports =
      grid->status("siteA", token.value(), {"siteB"});
  ASSERT_TRUE(reports.is_ok());
  EXPECT_EQ(reports.value().size(), 1u);
  // Exactly one remote call for one remote site (E4's property).
  EXPECT_EQ(grid->proxy("siteA").metrics().control_calls_sent - calls_before,
            1u);
}

TEST(GridStatus, PermissionEnforced) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  // bob has status.query but not mpi.run; carol does not exist.
  Result<Bytes> bob = grid->login("siteA", "bob", "builder");
  ASSERT_TRUE(bob.is_ok());
  EXPECT_TRUE(grid->status("siteA", bob.value()).is_ok());

  const proxy::AppRunResult denied =
      grid->run_app("siteA", "bob", bob.value(), "noop", 2,
                    SchedulerPolicy::kRoundRobin);
  EXPECT_EQ(denied.status.code(), ErrorCode::kPermissionDenied);
}

TEST(GridMpi, PiAcrossTwoSites) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "pi", 4,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.exit_code, 0u);
  ASSERT_EQ(result.placements.size(), 4u);

  // Round-robin over 2 sites x 2 nodes must span both sites.
  std::set<std::string> used_sites;
  for (const auto& p : result.placements) used_sites.insert(p.site);
  EXPECT_EQ(used_sites.size(), 2u);

  // Inter-site MPI traffic flowed through the proxies.
  const std::uint64_t remote_msgs =
      grid->proxy("siteA").metrics().mpi_messages_remote +
      grid->proxy("siteB").metrics().mpi_messages_remote;
  EXPECT_GT(remote_msgs, 0u);
}

TEST(GridMpi, CrossSiteBroadcastCostsOneEnvelopePerRemoteSite) {
  // The fast-path acceptance property: a 16-rank broadcast across 2 sites
  // crosses the inter-site link in at most (sites - 1) data envelopes —
  // one multi-destination batch per remote site, fanned out by the far
  // proxy — instead of one per remote rank.
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, 2);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "bcast-check", 16,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.exit_code, 0u);
  std::set<std::string> used_sites;
  for (const auto& p : result.placements) used_sites.insert(p.site);
  ASSERT_EQ(used_sites.size(), 2u);

  const proxy::ProxyMetrics a = grid->proxy("siteA").metrics();
  const proxy::ProxyMetrics b = grid->proxy("siteB").metrics();
  const std::uint64_t remote_envelopes =
      a.mpi_messages_remote + b.mpi_messages_remote;
  EXPECT_GE(remote_envelopes, 1u);   // the payload did cross sites
  EXPECT_LE(remote_envelopes, grid->sites().size() - 1);
  // The crossing happened through the batcher, and the receiving proxy
  // fanned the one envelope out to its local ranks.
  EXPECT_GE(a.mpi_batch_messages + b.mpi_batch_messages, 1u);
  EXPECT_GE(a.mpi_fanout + b.mpi_fanout, 12u);
}

TEST(GridMpi, RingAcrossThreeSites) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 3, 2);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteB", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  const proxy::AppRunResult result =
      grid->run_app("siteB", "alice", token.value(), "ring", 6,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  std::set<std::string> used_sites;
  for (const auto& p : result.placements) used_sites.insert(p.site);
  EXPECT_EQ(used_sites.size(), 3u);
}

TEST(GridMpi, WorksInPerNodeSecurityMode) {
  auto grid = make_grid(proxy::SecurityMode::kPerNodeSecurity);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "pi", 4,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
}

TEST(GridMpi, UnknownExecutableFailsCleanly) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "does-not-exist", 4,
                    SchedulerPolicy::kRoundRobin);
  EXPECT_FALSE(result.status.is_ok());
}

TEST(GridMpi, SequentialAppsReuseGrid) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  for (int i = 0; i < 3; ++i) {
    const proxy::AppRunResult result =
        grid->run_app("siteA", "alice", token.value(), "pi", 4,
                      SchedulerPolicy::kLoadBalanced);
    ASSERT_TRUE(result.status.is_ok()) << "iteration " << i << ": "
                                       << result.status.to_string();
  }
}

TEST(GridMpi, EdgeTunnelingEncryptsOnlyInterSiteTraffic) {
  // The paper's central overhead claim, as a test: in proxy mode, intra-site
  // links carry zero crypto bytes; in per-node mode they carry plenty.
  auto proxy_grid = make_grid(proxy::SecurityMode::kProxyTunneling);
  ASSERT_NE(proxy_grid, nullptr);
  Result<Bytes> token = proxy_grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  ASSERT_TRUE(proxy_grid
                  ->run_app("siteA", "alice", token.value(), "pi", 4,
                            SchedulerPolicy::kRoundRobin)
                  .status.is_ok());
  const TrafficReport proxy_traffic = proxy_grid->traffic_report();
  EXPECT_EQ(proxy_traffic.intra_site.crypto_bytes, 0u);
  EXPECT_GT(proxy_traffic.inter_site.crypto_bytes, 0u);

  auto pernode_grid = make_grid(proxy::SecurityMode::kPerNodeSecurity);
  ASSERT_NE(pernode_grid, nullptr);
  Result<Bytes> token2 = pernode_grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token2.is_ok());
  ASSERT_TRUE(pernode_grid
                  ->run_app("siteA", "alice", token2.value(), "pi", 4,
                            SchedulerPolicy::kRoundRobin)
                  .status.is_ok());
  const TrafficReport pernode_traffic = pernode_grid->traffic_report();
  EXPECT_GT(pernode_traffic.intra_site.crypto_bytes, 0u);
  // Per-node mode also pays more handshakes (one per node).
  EXPECT_GT(pernode_traffic.handshakes, proxy_traffic.handshakes);
}

TEST(GridTunnel, ExplicitSecureNodeLink) {
  // One node asks for a safe channel in an otherwise-plaintext site
  // (paper: "it can be made available by the proxy through an explicit
  // call").
  register_apps();
  GridBuilder builder;
  builder.seed(99).key_bits(768);
  monitor::NodeProfile secure_node;
  secure_node.name = "vault";
  builder.add_nodes("siteA", 1);
  builder.add_node("siteA", secure_node, /*explicit_secure=*/true);
  builder.add_user("alice", "pw", {"status.query"});
  auto grid = builder.build();
  ASSERT_TRUE(grid.is_ok()) << grid.status().to_string();

  bool saw_plain = false, saw_secure = false;
  for (const auto& link : grid.value()->proxy("siteA").link_report()) {
    if (link.peer == "vault") {
      EXPECT_TRUE(link.encrypted);
      saw_secure = true;
    } else if (!link.inter_site) {
      EXPECT_FALSE(link.encrypted);
      saw_plain = true;
    }
  }
  EXPECT_TRUE(saw_plain);
  EXPECT_TRUE(saw_secure);
}

TEST(GridTunnel, CrossSiteServiceCall) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);

  grid->node_agent("siteB", "node1")
      .register_service("echo", [](BytesView request) {
        Bytes out = to_bytes("echo:");
        append(out, request);
        return out;
      });

  Result<Bytes> response = grid->node_agent("siteA", "node0")
                               .call_service("siteB", "node1", "echo",
                                             to_bytes("hello"));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(to_string(response.value()), "echo:hello");
}

TEST(GridTunnel, SameSiteServiceCall) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  grid->node_agent("siteA", "node1")
      .register_service("double", [](BytesView request) {
        const auto v = mpi::unpack_u64(request);
        return mpi::pack_u64(v.is_ok() ? v.value() * 2 : 0);
      });
  Result<Bytes> response =
      grid->node_agent("siteA", "node0")
          .call_service("siteA", "node1", "double", mpi::pack_u64(21));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(mpi::unpack_u64(response.value()).value(), 42u);
}

TEST(GridTunnel, UnknownServiceFails) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> response =
      grid->node_agent("siteA", "node0")
          .call_service("siteB", "node0", "no-such-service", {});
  EXPECT_FALSE(response.is_ok());
}

/// Runs `call(i)` for i in [0, n) on n threads released together.
template <typename Call>
void run_together(std::size_t n, Call call) {
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return go; });
      }
      call(i);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
}

TEST(GridTunnel, ConcurrentCallsReachTheirOwnTargets) {
  // Every node numbers its tunnels from its own salt, so calls from 8
  // nodes at once never share a tunnel id at the proxies that relay them.
  constexpr std::size_t kNodes = 8;
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, kNodes);
  ASSERT_NE(grid, nullptr);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    grid->node_agent("siteB", name).register_service(
        "whoami", [name](BytesView) { return to_bytes(name); });
  }
  std::vector<Result<Bytes>> replies(kNodes, Result<Bytes>(Bytes{}));
  run_together(kNodes, [&](std::size_t i) {
    const std::string name = "node" + std::to_string(i);
    replies[i] = grid->node_agent("siteA", name)
                     .call_service("siteB", name, "whoami", {});
  });
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(replies[i].is_ok()) << i << ": "
                                    << replies[i].status().to_string();
    EXPECT_EQ(to_string(replies[i].value()), "node" + std::to_string(i));
  }
}

TEST(GridTunnel, RelaysHoldNoThreadWhileWaiting) {
  // 8 cross-site calls whose services each wait for all 8 to arrive: every
  // relay must be in flight at once, which a fixed relay pool would cap.
  constexpr int kCalls = 8;
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, kCalls);
  ASSERT_NE(grid, nullptr);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  int inside = 0;
  int peak = 0;
  for (int i = 0; i < kCalls; ++i) {
    grid->node_agent("siteB", "node" + std::to_string(i))
        .register_service("rendezvous", [&](BytesView) {
          std::unique_lock<std::mutex> lock(mutex);
          ++arrived;
          peak = std::max(peak, ++inside);
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return arrived >= kCalls; });
          --inside;
          return Bytes{};
        });
  }
  std::vector<Status> results(kCalls);
  run_together(kCalls, [&](std::size_t i) {
    const std::string name = "node" + std::to_string(i);
    results[i] = grid->node_agent("siteA", name)
                     .call_service("siteB", name, "rendezvous", {})
                     .status();
  });
  for (const Status& status : results)
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(peak, kCalls) << "relays in flight at once";
}

TEST(GridTunnel, RelaySurvivesReconnectOfItsSourceLink) {
  // siteB relays a call to its node over the link from siteA; the link
  // dies and is replaced before the node answers. The relay must answer on
  // the retired connection it pinned, not on freed memory.
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, 2);
  ASSERT_NE(grid, nullptr);
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
  bool left = false;
  grid->node_agent("siteB", "node1")
      .register_service("gate", [&](BytesView request) {
        std::unique_lock<std::mutex> lock(mutex);
        entered = true;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return released; });
        left = true;
        cv.notify_all();
        return Bytes(request.begin(), request.end());
      });
  auto& caller = grid->node_agent("siteA", "node0");

  std::thread first([&] {
    // Its siteA hop dies with the link, so it fails; it must not hang.
    (void)caller.call_service("siteB", "node1", "gate", to_bytes("first"),
                              10 * kMicrosPerSecond);
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }
  grid->kill_link("siteA", "siteB");
  for (int i = 0; i < 1000 && (grid->proxy("siteA").peer_alive("siteB") ||
                               grid->proxy("siteB").peer_alive("siteA"));
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(grid->reconnect_link("siteA", "siteB").is_ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return left; }));
  }
  first.join();

  Result<Bytes> again =
      caller.call_service("siteB", "node1", "gate", to_bytes("again"));
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(to_string(again.value()), "again");
}

TEST(GridFailure, DeadSiteOnlyCostsItself) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 3, 1);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  grid->kill_proxy("siteC");

  // Distributed control: siteA still reaches siteB and itself.
  Result<std::vector<proto::StatusReport>> reports =
      grid->status("siteA", token.value());
  ASSERT_TRUE(reports.is_ok());
  EXPECT_EQ(reports.value().size(), 2u);

  // And applications still run on the surviving sites.
  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "pi", 2,
                    SchedulerPolicy::kLoadBalanced);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  for (const auto& p : result.placements) EXPECT_NE(p.site, "siteC");
}

TEST(GridFailure, DeadNodeDroppedFromStatusAndScheduling) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, 2);
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteA", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  grid->kill_node("siteB", "node1");

  // The dead node disappears from the advertised status...
  Result<std::vector<proto::StatusReport>> reports =
      grid->status("siteA", token.value());
  ASSERT_TRUE(reports.is_ok());
  std::size_t nodes_visible = 0;
  for (const auto& report : reports.value()) {
    nodes_visible += report.nodes.size();
    for (const auto& node : report.nodes) {
      EXPECT_FALSE(report.site == "siteB" && node.name == "node1");
    }
  }
  EXPECT_EQ(nodes_visible, 3u);

  // ...so a new application schedules around it and succeeds.
  const proxy::AppRunResult result =
      grid->run_app("siteA", "alice", token.value(), "pi", 4,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  for (const auto& p : result.placements) {
    EXPECT_FALSE(p.site == "siteB" && p.node == "node1");
  }
}

TEST(GridFailure, SeveredLinkDetected) {
  auto grid = make_grid(proxy::SecurityMode::kProxyTunneling, 2, 1);
  ASSERT_NE(grid, nullptr);
  EXPECT_TRUE(grid->proxy("siteA").peer_alive("siteB"));
  grid->kill_link("siteA", "siteB");
  // Closing is symmetric; both sides see it (possibly after the reader
  // observes EOF).
  for (int i = 0; i < 100 && grid->proxy("siteA").peer_alive("siteB"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(grid->proxy("siteA").peer_alive("siteB"));
}

TEST(GridCli, FullSession) {
  auto grid = make_grid();
  ASSERT_NE(grid, nullptr);
  CommandLine cli(*grid, "siteA");

  std::ostringstream out;
  EXPECT_TRUE(cli.execute("help", out));
  EXPECT_TRUE(cli.execute("status", out));  // not logged in yet
  EXPECT_NE(out.str().find("not logged in"), std::string::npos);

  out.str("");
  EXPECT_TRUE(cli.execute("login siteA alice correct-horse", out));
  EXPECT_NE(out.str().find("logged in as alice"), std::string::npos);
  EXPECT_TRUE(cli.logged_in());

  out.str("");
  EXPECT_TRUE(cli.execute("status", out));
  EXPECT_NE(out.str().find("site siteA"), std::string::npos);
  EXPECT_NE(out.str().find("site siteB"), std::string::npos);

  out.str("");
  EXPECT_TRUE(cli.execute("run pi 4 rr", out));
  EXPECT_NE(out.str().find("completed (exit 0)"), std::string::npos);

  out.str("");
  EXPECT_TRUE(cli.execute("peers siteA", out));
  EXPECT_NE(out.str().find("siteB(up)"), std::string::npos);

  out.str("");
  EXPECT_FALSE(cli.execute("frobnicate", out));
}

// ---------------------------------------------------------- sharded tier

std::unique_ptr<Grid> make_sharded_grid() {
  register_apps();
  GridBuilder builder;
  builder.seed(97).key_bits(512);
  builder.add_site("siteS", 2);
  builder.add_nodes("siteS", 3).add_nodes("siteT", 1);
  builder.add_user("alice", "correct-horse",
                   {"mpi.run", "status.query", "job.submit"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.shard_gossip_interval = 20 * kMicrosPerMilli;
  });
  Result<std::unique_ptr<Grid>> grid = builder.build();
  EXPECT_TRUE(grid.is_ok()) << grid.status().to_string();
  return grid.is_ok() ? grid.take() : nullptr;
}

TEST(GridSharding, BringUpSplitsNodesAcrossShardsDeterministically) {
  auto grid = make_sharded_grid();
  ASSERT_NE(grid, nullptr);

  // One proxy per shard plus the unsharded site, fully meshed.
  const std::vector<std::string> expect = {"siteS", "siteS#1", "siteT"};
  EXPECT_EQ(grid->sites(), expect);
  for (const auto& site : grid->sites()) {
    EXPECT_EQ(grid->proxy(site).peers().size(), 2u) << site;
  }

  // Node homes follow the consistent-hash ring exactly — any peer can
  // recompute the placement without asking anyone.
  const proxy::ShardRing ring = proxy::ShardRing::for_site("siteS", 2);
  for (int n = 0; n < 3; ++n) {
    const std::string key = "node" + std::to_string(n);
    EXPECT_EQ(grid->shard_for("siteS", key), ring.owner(key)) << key;
  }
  EXPECT_EQ(grid->shard_for("siteT", "anything"), "siteT");

  // Between them the shards own every virtual slave...
  EXPECT_EQ(grid->proxy("siteS").metrics().shard_owned_keys +
                grid->proxy("siteS#1").metrics().shard_owned_keys,
            3);

  // ...and both agree shard 0 holds the status-collector lease.
  EXPECT_EQ(grid->proxy("siteS").status_lease().holder(), "siteS");
  EXPECT_EQ(grid->proxy("siteS#1").status_lease().holder(), "siteS");
  EXPECT_TRUE(grid->proxy("siteS").status_lease().is_holder());
  EXPECT_FALSE(grid->proxy("siteS#1").status_lease().is_holder());
}

TEST(GridSharding, AnyShardAnswersForTheWholeSite) {
  auto grid = make_sharded_grid();
  ASSERT_NE(grid, nullptr);

  // Gossip converges: EITHER shard's merged report covers all three
  // virtual slaves under the logical site name.
  for (const char* shard : {"siteS", "siteS#1"}) {
    proto::StatusReport merged;
    for (int i = 0; i < 5000; ++i) {
      merged = grid->proxy(shard).site_status();
      if (merged.nodes.size() == 3) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(merged.site, "siteS") << shard;
    EXPECT_EQ(merged.nodes.size(), 3u) << shard;
  }

  // A grid-wide pull still sees each shard's nodes exactly once (the
  // scheduler's view stays partition-disjoint; no double counting).
  Result<Bytes> token = grid->login("siteS", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());
  Result<std::vector<proto::StatusReport>> reports =
      grid->status("siteT", token.value());
  ASSERT_TRUE(reports.is_ok()) << reports.status().to_string();
  EXPECT_EQ(reports.value().size(), 3u);
  std::size_t nodes_visible = 0;
  for (const auto& report : reports.value()) {
    nodes_visible += report.nodes.size();
  }
  EXPECT_EQ(nodes_visible, 4u);
}

TEST(GridSharding, TicketMintedAtOneShardWorksAtAnother) {
  auto grid = make_sharded_grid();
  ASSERT_NE(grid, nullptr);
  Result<Bytes> token = grid->login("siteS", "alice", "correct-horse");
  ASSERT_TRUE(token.is_ok());

  // Realm-sealed tickets: the sibling shard authorizes the session with
  // no handoff or shared session table...
  EXPECT_TRUE(grid->proxy("siteS#1")
                  .authenticator()
                  .authorize(token.value(), "mpi.run", grid->clock().now())
                  .is_ok());

  // ...and an app launched from the unsharded site spans both shards'
  // slaves without knowing the site is sharded at all.
  const proxy::AppRunResult result =
      grid->run_app("siteT", "alice", token.value(), "pi", 4,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
}

}  // namespace
}  // namespace pg::grid
