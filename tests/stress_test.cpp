// Stress and concurrency tests: simultaneous applications, mixed workloads
// (MPI + tunnels + status traffic), larger topologies, repeated bring-up.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "grid/grid.hpp"
#include "gridfs/gridfs.hpp"
#include "mpi/datatypes.hpp"
#include "mpi/runtime.hpp"

namespace pg::grid {
namespace {

void register_stress_apps() {
  static const bool done = [] {
    mpi::AppRegistry::instance().register_app(
        "stress-allreduce", [](mpi::Comm& comm) -> Status {
          for (int i = 0; i < 5; ++i) {
            Result<double> v = comm.allreduce(1.0, mpi::ReduceOp::kSum);
            if (!v.is_ok()) return v.status();
            if (v.value() != comm.size())
              return error(ErrorCode::kInternal, "bad allreduce");
          }
          return Status::ok();
        });
    mpi::AppRegistry::instance().register_app(
        "stress-chatter", [](mpi::Comm& comm) -> Status {
          // Every rank exchanges with every other rank.
          std::vector<Bytes> outgoing(comm.size());
          for (std::uint32_t r = 0; r < comm.size(); ++r) {
            outgoing[r] = mpi::pack_u64(comm.rank() * 1000 + r);
          }
          Result<std::vector<Bytes>> incoming = comm.alltoall(outgoing);
          if (!incoming.is_ok()) return incoming.status();
          for (std::uint32_t r = 0; r < comm.size(); ++r) {
            if (mpi::unpack_u64(incoming.value()[r]).value() !=
                r * 1000 + comm.rank())
              return error(ErrorCode::kInternal, "bad alltoall");
          }
          return Status::ok();
        });
    return true;
  }();
  (void)done;
}

std::unique_ptr<Grid> build_grid(std::size_t sites, std::size_t nodes,
                                 std::uint64_t seed) {
  register_stress_apps();
  GridBuilder builder;
  builder.seed(seed).key_bits(512);
  for (std::size_t s = 0; s < sites; ++s) {
    builder.add_nodes("site" + std::to_string(s), nodes);
  }
  builder.add_user("u", "p",
                   {"mpi.run", "status.query", "job.submit", "fs.read",
                    "fs.write"});
  auto built = builder.build();
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  return built.is_ok() ? built.take() : nullptr;
}

TEST(Stress, TwoConcurrentAppsFromDifferentSites) {
  auto grid = build_grid(2, 2, 101);
  ASSERT_NE(grid, nullptr);
  auto token_a = grid->login("site0", "u", "p");
  auto token_b = grid->login("site1", "u", "p");
  ASSERT_TRUE(token_a.is_ok());
  ASSERT_TRUE(token_b.is_ok());

  // Two applications run simultaneously, submitted from different origins;
  // each proxy multiplexes both apps' traffic over the same tunnel.
  std::atomic<bool> ok_a{false}, ok_b{false};
  std::thread runner_a([&] {
    ok_a = grid->run_app("site0", "u", token_a.value(), "stress-allreduce",
                         4, SchedulerPolicy::kRoundRobin)
               .status.is_ok();
  });
  std::thread runner_b([&] {
    ok_b = grid->run_app("site1", "u", token_b.value(), "stress-chatter", 4,
                         SchedulerPolicy::kRoundRobin)
               .status.is_ok();
  });
  runner_a.join();
  runner_b.join();
  EXPECT_TRUE(ok_a.load());
  EXPECT_TRUE(ok_b.load());
}

TEST(Stress, MixedWorkloadMpiTunnelsStatus) {
  auto grid = build_grid(2, 2, 103);
  ASSERT_NE(grid, nullptr);
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  auto fs0 = gridfs::GridFileService::attach(grid->proxy("site0"));
  auto fs1 = gridfs::GridFileService::attach(grid->proxy("site1"));
  ASSERT_TRUE(fs0.is_ok());
  ASSERT_TRUE(fs1.is_ok());

  grid->node_agent("site1", "node0").register_service(
      "hash", [](BytesView in) { return mpi::pack_u64(in.size()); });

  std::atomic<int> failures{0};
  std::thread mpi_thread([&] {
    for (int i = 0; i < 3; ++i) {
      if (!grid->run_app("site0", "u", token.value(), "stress-allreduce", 4,
                         SchedulerPolicy::kLoadBalanced)
               .status.is_ok())
        ++failures;
    }
  });
  std::thread fs_thread([&] {
    for (int i = 0; i < 10; ++i) {
      std::string name = "f";
      name += std::to_string(i);
      if (!fs0.value()->put(token.value(), "u", "site1", name,
                            Bytes(100, static_cast<std::uint8_t>(i)))
               .is_ok())
        ++failures;
    }
  });
  std::thread tunnel_thread([&] {
    for (int i = 0; i < 10; ++i) {
      auto reply = grid->node_agent("site0", "node1")
                       .call_service("site1", "node0", "hash",
                                     Bytes(static_cast<std::size_t>(i), 0));
      if (!reply.is_ok() ||
          mpi::unpack_u64(reply.value()).value() != static_cast<std::uint64_t>(i))
        ++failures;
    }
  });
  std::thread status_thread([&] {
    for (int i = 0; i < 10; ++i) {
      if (!grid->status("site0", token.value()).is_ok()) ++failures;
    }
  });
  mpi_thread.join();
  fs_thread.join();
  tunnel_thread.join();
  status_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fs1.value()->local_file_count(), 10u);
}

TEST(Stress, WideApp) {
  // 4 sites x 4 nodes, 32 ranks all talking.
  auto grid = build_grid(4, 4, 107);
  ASSERT_NE(grid, nullptr);
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());
  const proxy::AppRunResult result =
      grid->run_app("site0", "u", token.value(), "stress-allreduce", 32,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  std::set<std::string> sites_used;
  for (const auto& p : result.placements) sites_used.insert(p.site);
  EXPECT_EQ(sites_used.size(), 4u);
}

TEST(Stress, LargeMessagesAcrossSites) {
  register_stress_apps();
  mpi::AppRegistry::instance().register_app(
      "big-transfer", [](mpi::Comm& comm) -> Status {
        const std::size_t kSize = 2 * 1024 * 1024;
        if (comm.rank() == 0) {
          Rng rng(1);
          const Bytes blob = rng.next_bytes(kSize);
          PG_RETURN_IF_ERROR(comm.send(1, 9, blob));
          Result<Bytes> echoed = comm.recv(1, 9);
          if (!echoed.is_ok()) return echoed.status();
          if (echoed.value() != blob)
            return error(ErrorCode::kInternal, "blob corrupted in transit");
        } else if (comm.rank() == 1) {
          Result<Bytes> blob = comm.recv(0, 9);
          if (!blob.is_ok()) return blob.status();
          PG_RETURN_IF_ERROR(comm.send(0, 9, blob.value()));
        }
        return Status::ok();
      });

  auto grid = build_grid(2, 1, 109);
  ASSERT_NE(grid, nullptr);
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());
  // rank0 -> site0/node0, rank1 -> site1/node0: the 2 MiB blob crosses the
  // encrypted tunnel intact both ways.
  const proxy::AppRunResult result =
      grid->run_app("site0", "u", token.value(), "big-transfer", 2,
                    SchedulerPolicy::kRoundRobin);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
}

TEST(Stress, RepeatedBringUpAndTeardown) {
  for (int i = 0; i < 3; ++i) {
    auto grid = build_grid(2, 1, 200 + static_cast<std::uint64_t>(i));
    ASSERT_NE(grid, nullptr);
    auto token = grid->login("site0", "u", "p");
    ASSERT_TRUE(token.is_ok());
    ASSERT_TRUE(grid->status("site0", token.value()).is_ok());
    grid->shutdown();
  }
}

}  // namespace
}  // namespace pg::grid
