// MiniMPI tests: mailbox matching, point-to-point, every collective
// (validated against sequential references), and failure behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatypes.hpp"
#include "mpi/fabric.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/runtime.hpp"
#include "telemetry/metrics.hpp"

namespace pg::mpi {
namespace {

// ---------------------------------------------------------------- mailbox

TEST(Mailbox, FifoWithinMatch) {
  Mailbox box;
  ASSERT_TRUE(box.deliver(MpiMessage{1, 0, 5, to_bytes("first")}).is_ok());
  ASSERT_TRUE(box.deliver(MpiMessage{1, 0, 5, to_bytes("second")}).is_ok());
  EXPECT_EQ(to_string(box.recv(1, 5).value().payload), "first");
  EXPECT_EQ(to_string(box.recv(1, 5).value().payload), "second");
}

TEST(Mailbox, MatchesBySourceAndTag) {
  Mailbox box;
  ASSERT_TRUE(box.deliver(MpiMessage{1, 0, 5, to_bytes("s1t5")}).is_ok());
  ASSERT_TRUE(box.deliver(MpiMessage{2, 0, 5, to_bytes("s2t5")}).is_ok());
  ASSERT_TRUE(box.deliver(MpiMessage{1, 0, 6, to_bytes("s1t6")}).is_ok());

  EXPECT_EQ(to_string(box.recv(2, 5).value().payload), "s2t5");
  EXPECT_EQ(to_string(box.recv(1, 6).value().payload), "s1t6");
  EXPECT_EQ(to_string(box.recv(1, 5).value().payload), "s1t5");
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, Wildcards) {
  Mailbox box;
  ASSERT_TRUE(box.deliver(MpiMessage{3, 0, 9, to_bytes("x")}).is_ok());
  const auto any = box.recv(kAnySource, kAnyTag);
  ASSERT_TRUE(any.is_ok());
  EXPECT_EQ(any.value().src, 3u);
  EXPECT_EQ(any.value().tag, 9u);
}

TEST(Mailbox, BlockingRecvWokenByDelivery) {
  Mailbox box;
  std::thread sender([&box] {
    ASSERT_TRUE(box.deliver(MpiMessage{0, 1, 1, to_bytes("late")}).is_ok());
  });
  const auto got = box.recv(0, 1);
  sender.join();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(got.value().payload), "late");
}

TEST(Mailbox, CloseWakesBlockedRecv) {
  Mailbox box;
  std::thread closer([&box] { box.close(); });
  const auto got = box.recv(kAnySource, kAnyTag);
  closer.join();
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
}

TEST(Mailbox, QueuedMessagesSurviveClose) {
  Mailbox box;
  ASSERT_TRUE(box.deliver(MpiMessage{0, 1, 1, to_bytes("kept")}).is_ok());
  box.close();
  EXPECT_TRUE(box.recv(kAnySource, kAnyTag).is_ok());
  EXPECT_FALSE(box.deliver(MpiMessage{}).is_ok());
}

TEST(Mailbox, TargetedWakeupLeavesNonMatchingReceiverBlocked) {
  // Two receivers block on disjoint (src, tag) matches; a delivery must
  // wake only the one whose predicate it satisfies.
  Mailbox box;
  std::atomic<int> got_a{0};
  std::atomic<int> got_b{0};
  std::thread receiver_a([&] {
    const auto m = box.recv(1, 10);
    if (m.is_ok()) got_a.store(1);
  });
  std::thread receiver_b([&] {
    const auto m = box.recv(2, 20);
    if (m.is_ok()) got_b.store(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(box.deliver(MpiMessage{2, 0, 20, to_bytes("b")}).is_ok());
  for (int i = 0; i < 1000 && got_b.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got_b.load(), 1);
  EXPECT_EQ(got_a.load(), 0);  // its message never arrived; still parked

  ASSERT_TRUE(box.deliver(MpiMessage{1, 0, 10, to_bytes("a")}).is_ok());
  receiver_a.join();
  receiver_b.join();
  EXPECT_EQ(got_a.load(), 1);
}

TEST(Mailbox, TryRecvNonBlocking) {
  Mailbox box;
  EXPECT_EQ(box.try_recv(kAnySource, kAnyTag).status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(box.deliver(MpiMessage{0, 1, 1, {}}).is_ok());
  EXPECT_TRUE(box.try_recv(kAnySource, kAnyTag).is_ok());
}

// ------------------------------------------------------------- datatypes

TEST(Datatypes, RoundTrips) {
  EXPECT_EQ(unpack_double(pack_double(3.5)).value(), 3.5);
  EXPECT_EQ(unpack_u64(pack_u64(99)).value(), 99u);
  EXPECT_EQ(unpack_string(pack_string("hello")).value(), "hello");
  const std::vector<double> vals = {1.0, -2.5, 1e300};
  EXPECT_EQ(unpack_doubles(pack_doubles(vals)).value(), vals);
}

TEST(Datatypes, RejectGarbage) {
  EXPECT_FALSE(unpack_double(Bytes{1, 2}).is_ok());
  EXPECT_FALSE(unpack_doubles(Bytes{0xff, 0xff}).is_ok());
}

// ----------------------------------------------------------- point-to-point

TEST(PointToPoint, PingPong) {
  const auto report = run_local(
      [](Comm& comm) -> Status {
        if (comm.rank() == 0) {
          PG_RETURN_IF_ERROR(comm.send(1, 7, to_bytes("ping")));
          Result<Bytes> reply = comm.recv(1, 7);
          if (!reply.is_ok()) return reply.status();
          EXPECT_EQ(to_string(reply.value()), "pong");
        } else {
          Result<Bytes> msg = comm.recv(0, 7);
          if (!msg.is_ok()) return msg.status();
          EXPECT_EQ(to_string(msg.value()), "ping");
          PG_RETURN_IF_ERROR(comm.send(0, 7, to_bytes("pong")));
        }
        return Status::ok();
      },
      2);
  EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
}

TEST(PointToPoint, RingPassing) {
  constexpr std::uint32_t kRanks = 8;
  const auto report = run_local(
      [](Comm& comm) -> Status {
        const std::uint32_t next = (comm.rank() + 1) % comm.size();
        const std::uint32_t prev = (comm.rank() + comm.size() - 1) % comm.size();
        std::uint64_t token = 0;
        if (comm.rank() == 0) {
          PG_RETURN_IF_ERROR(comm.send(next, 1, pack_u64(1)));
          Result<Bytes> back = comm.recv(static_cast<std::int32_t>(prev), 1);
          if (!back.is_ok()) return back.status();
          token = unpack_u64(back.value()).value();
          EXPECT_EQ(token, comm.size());
        } else {
          Result<Bytes> in = comm.recv(static_cast<std::int32_t>(prev), 1);
          if (!in.is_ok()) return in.status();
          token = unpack_u64(in.value()).value();
          PG_RETURN_IF_ERROR(comm.send(next, 1, pack_u64(token + 1)));
        }
        return Status::ok();
      },
      kRanks);
  EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
}

TEST(PointToPoint, AnySourceReceivesAll) {
  const auto report = run_local(
      [](Comm& comm) -> Status {
        if (comm.rank() == 0) {
          std::uint64_t sum = 0;
          for (std::uint32_t i = 1; i < comm.size(); ++i) {
            Result<MpiMessage> m = comm.recv_message(kAnySource, 3);
            if (!m.is_ok()) return m.status();
            sum += unpack_u64(m.value().payload).value();
          }
          EXPECT_EQ(sum, 1u + 2 + 3);
        } else {
          PG_RETURN_IF_ERROR(comm.send(0, 3, pack_u64(comm.rank())));
        }
        return Status::ok();
      },
      4);
  EXPECT_TRUE(report.status.is_ok());
}

TEST(PointToPoint, ReservedTagRejected) {
  const auto report = run_local(
      [](Comm& comm) -> Status {
        if (comm.size() < 2) return Status::ok();
        if (comm.rank() == 0) {
          EXPECT_EQ(comm.send(1, kReservedTagBase, to_bytes("x")).code(),
                    ErrorCode::kInvalidArgument);
        }
        return Status::ok();
      },
      2);
  EXPECT_TRUE(report.status.is_ok());
}

TEST(PointToPoint, OutOfRangeDestinationRejected) {
  const auto report = run_local(
      [](Comm& comm) -> Status {
        EXPECT_EQ(comm.send(99, 1, to_bytes("x")).code(),
                  ErrorCode::kInvalidArgument);
        return Status::ok();
      },
      1);
  EXPECT_TRUE(report.status.is_ok());
}

// ------------------------------------------------------------ collectives

class CollectiveTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CollectiveTest, Barrier) {
  const std::uint32_t ranks = GetParam();
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  const auto report = run_local(
      [&](Comm& comm) -> Status {
        ++before;
        PG_RETURN_IF_ERROR(comm.barrier());
        // After any rank passes the barrier, every rank must have arrived.
        EXPECT_EQ(before.load(), static_cast<int>(comm.size()));
        ++after;
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
  EXPECT_EQ(after.load(), static_cast<int>(ranks));
}

TEST_P(CollectiveTest, Broadcast) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        const Bytes data =
            comm.rank() == 1 % comm.size() ? to_bytes("payload") : Bytes{};
        Result<Bytes> got = comm.broadcast(1 % comm.size(), data);
        if (!got.is_ok()) return got.status();
        EXPECT_EQ(to_string(got.value()), "payload");
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, ReduceSum) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        const double mine = comm.rank() + 1.0;
        Result<double> total = comm.reduce(0, mine, ReduceOp::kSum);
        if (!total.is_ok()) return total.status();
        if (comm.rank() == 0) {
          const double n = comm.size();
          EXPECT_DOUBLE_EQ(total.value(), n * (n + 1) / 2);
        }
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, AllreduceMinMax) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        const double mine = static_cast<double>(comm.rank());
        Result<double> max = comm.allreduce(mine, ReduceOp::kMax);
        Result<double> min = comm.allreduce(mine, ReduceOp::kMin);
        if (!max.is_ok()) return max.status();
        if (!min.is_ok()) return min.status();
        EXPECT_DOUBLE_EQ(max.value(), comm.size() - 1.0);
        EXPECT_DOUBLE_EQ(min.value(), 0.0);
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, GatherInRankOrder) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        Result<std::vector<Bytes>> all =
            comm.gather(0, pack_u64(comm.rank() * 10));
        if (!all.is_ok()) return all.status();
        if (comm.rank() == 0) {
          EXPECT_EQ(all.value().size(), comm.size());
          if (all.value().size() != comm.size())
            return error(ErrorCode::kInternal, "gather size wrong");
          for (std::uint32_t r = 0; r < comm.size(); ++r) {
            EXPECT_EQ(unpack_u64(all.value()[r]).value(), r * 10);
          }
        }
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, ScatterDeliversOwnChunk) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        std::vector<Bytes> chunks;
        if (comm.rank() == 0) {
          for (std::uint32_t r = 0; r < comm.size(); ++r) {
            chunks.push_back(pack_u64(r * 7));
          }
        }
        Result<Bytes> mine = comm.scatter(0, chunks);
        if (!mine.is_ok()) return mine.status();
        EXPECT_EQ(unpack_u64(mine.value()).value(), comm.rank() * 7);
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, Allgather) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        Result<std::vector<Bytes>> all = comm.allgather(pack_u64(comm.rank()));
        if (!all.is_ok()) return all.status();
        for (std::uint32_t r = 0; r < comm.size(); ++r) {
          EXPECT_EQ(unpack_u64(all.value()[r]).value(), r);
        }
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, Alltoall) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        std::vector<Bytes> outgoing;
        for (std::uint32_t r = 0; r < comm.size(); ++r) {
          outgoing.push_back(pack_u64(comm.rank() * 100 + r));
        }
        Result<std::vector<Bytes>> incoming = comm.alltoall(outgoing);
        if (!incoming.is_ok()) return incoming.status();
        for (std::uint32_t r = 0; r < comm.size(); ++r) {
          EXPECT_EQ(unpack_u64(incoming.value()[r]).value(),
                    r * 100 + comm.rank());
        }
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, VectorReduce) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](mpi::Comm& comm) -> Status {
        const std::vector<double> mine = {
            static_cast<double>(comm.rank()), 1.0,
            static_cast<double>(comm.rank()) * -1.0};
        Result<std::vector<double>> sum =
            comm.allreduce_vector(mine, ReduceOp::kSum);
        if (!sum.is_ok()) return sum.status();
        const double n = comm.size();
        EXPECT_DOUBLE_EQ(sum.value()[0], n * (n - 1) / 2);
        EXPECT_DOUBLE_EQ(sum.value()[1], n);
        EXPECT_DOUBLE_EQ(sum.value()[2], -n * (n - 1) / 2);

        Result<std::vector<double>> max =
            comm.allreduce_vector(mine, ReduceOp::kMax);
        if (!max.is_ok()) return max.status();
        EXPECT_DOUBLE_EQ(max.value()[0], n - 1);
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
}

TEST(VectorReduce, LengthMismatchDetected) {
  const auto report = run_local(
      [](mpi::Comm& comm) -> Status {
        // Rank 1 contributes the wrong length; root must reject.
        const std::vector<double> mine(comm.rank() == 1 ? 2 : 3, 1.0);
        Result<std::vector<double>> sum =
            comm.reduce_vector(0, mine, ReduceOp::kSum);
        if (comm.rank() == 0) {
          EXPECT_FALSE(sum.is_ok());
        }
        return Status::ok();
      },
      2);
  EXPECT_TRUE(report.status.is_ok());
}

TEST_P(CollectiveTest, BackToBackCollectivesDoNotCollide) {
  const std::uint32_t ranks = GetParam();
  const auto report = run_local(
      [](Comm& comm) -> Status {
        for (int iter = 0; iter < 20; ++iter) {
          Result<double> sum =
              comm.allreduce(static_cast<double>(iter), ReduceOp::kSum);
          if (!sum.is_ok()) return sum.status();
          EXPECT_DOUBLE_EQ(sum.value(), iter * static_cast<double>(comm.size()));
        }
        return Status::ok();
      },
      ranks);
  EXPECT_TRUE(report.status.is_ok());
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// A realistic numerical workload: distributed computation of pi by
// numerical integration (the classic MPI "cpi" example).
TEST(Application, ComputePi) {
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kIntervals = 100000;
  std::atomic<double> pi{0.0};
  const auto report = run_local(
      [&pi](Comm& comm) -> Status {
        double local = 0.0;
        for (std::uint64_t i = comm.rank(); i < kIntervals; i += comm.size()) {
          const double x = (i + 0.5) / kIntervals;
          local += 4.0 / (1.0 + x * x);
        }
        local /= kIntervals;
        Result<double> total = comm.reduce(0, local, ReduceOp::kSum);
        if (!total.is_ok()) return total.status();
        if (comm.rank() == 0) pi = total.value();
        return Status::ok();
      },
      kRanks);
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_NEAR(pi.load(), M_PI, 1e-6);
}

// ---------------------------------------------------------------- runtime

TEST(Runtime, ReportsPerRankFailures) {
  const auto report = run_local(
      [](Comm& comm) -> Status {
        if (comm.rank() == 2)
          return error(ErrorCode::kInternal, "rank 2 exploded");
        return Status::ok();
      },
      4);
  EXPECT_FALSE(report.status.is_ok());
  ASSERT_EQ(report.rank_status.size(), 4u);
  EXPECT_TRUE(report.rank_status[0].is_ok());
  EXPECT_FALSE(report.rank_status[2].is_ok());
}

TEST(Runtime, FabricCountsTraffic) {
  LocalFabric fabric(2);
  std::vector<std::uint32_t> ranks = {0, 1};
  const auto report = run_ranks(
      fabric,
      [](Comm& comm) -> Status {
        if (comm.rank() == 0)
          return comm.send(1, 1, Bytes(100, 0));
        return comm.recv(0, 1).status();
      },
      ranks, 2);
  EXPECT_TRUE(report.status.is_ok());
  EXPECT_EQ(fabric.messages_routed(), 1u);
  EXPECT_EQ(fabric.bytes_routed(), 100u);
}

TEST(Runtime, DefaultMulticastAndBatchDeliverToEveryDestination) {
  // The Fabric base-class fallbacks: multicast and send_batch degrade to a
  // loop of send(), stamping each copy's dst.
  LocalFabric fabric(4);
  MpiMessage message{0, 0, 7, to_bytes("fan")};
  ASSERT_TRUE(fabric.multicast(message, {1, 2, 3}).is_ok());
  for (std::uint32_t r : {1u, 2u, 3u}) {
    const auto got = fabric.recv(r, 0, 7);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value().dst, r);
    EXPECT_EQ(to_string(got.value().payload), "fan");
  }
  EXPECT_EQ(fabric.messages_routed(), 3u);

  const std::vector<MpiMessage> batch = {{0, 1, 8, to_bytes("x")},
                                         {0, 2, 8, to_bytes("y")}};
  ASSERT_TRUE(fabric.send_batch(batch).is_ok());
  EXPECT_EQ(to_string(fabric.recv(1, 0, 8).value().payload), "x");
  EXPECT_EQ(to_string(fabric.recv(2, 0, 8).value().payload), "y");
  EXPECT_EQ(fabric.messages_routed(), 5u);
}

TEST(AppRegistry, RegisterLookupUnregister) {
  auto& registry = AppRegistry::instance();
  registry.register_app("test-app", [](Comm&) { return Status::ok(); });
  EXPECT_TRUE(registry.has_app("test-app"));
  EXPECT_TRUE(registry.lookup("test-app").is_ok());
  registry.unregister_app("test-app");
  EXPECT_FALSE(registry.has_app("test-app"));
  EXPECT_EQ(registry.lookup("test-app").status().code(), ErrorCode::kNotFound);
}

TEST(Runtime, OneLocalRankRunsOnTheCallingThread) {
  telemetry::Counter& spawned = telemetry::MetricRegistry::global().counter(
      "pg_thread_cache_spawned_total");
  const std::uint64_t before = spawned.value();
  std::thread::id rank_thread;
  LocalFabric fabric(2);
  const RunReport report = run_ranks(
      fabric,
      [&rank_thread](Comm& comm) {
        rank_thread = std::this_thread::get_id();
        return comm.rank() == 1 ? Status::ok()
                                : error(ErrorCode::kInternal, "wrong rank");
      },
      {1}, 2);
  EXPECT_TRUE(report.status.is_ok()) << report.status.to_string();
  EXPECT_EQ(rank_thread, std::this_thread::get_id());
  EXPECT_EQ(spawned.value(), before);
}

}  // namespace
}  // namespace pg::mpi
