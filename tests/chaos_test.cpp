// Chaos suite: the whole grid under seeded network faults plus a node
// kill. The assertion is convergence, not any particular schedule: every
// submitted job must reach a terminal state (kSucceeded, or kFailed with
// its retry budget spent / a non-transient cause), no wait may hang, and
// the grid must shut down cleanly afterwards.
//
// The fault schedule is deterministic per seed; CI sweeps PG_CHAOS_SEED
// across ~20 values so flakes show up as a reproducible seed, not a
// shrug.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "grid/grid.hpp"
#include "mpi/datatypes.hpp"
#include "mpi/runtime.hpp"
#include "net/memory_channel.hpp"
#include "proto/messages.hpp"
#include "proxy/resilience.hpp"
#include "telemetry/metrics.hpp"

namespace pg::grid {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("PG_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 8051;  // fixed default; CI varies it
}

void register_chaos_apps() {
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "chaos-barrier", [](mpi::Comm& comm) { return comm.barrier(); });
    mpi::AppRegistry::instance().register_app(
        "chaos-slow", [](mpi::Comm& comm) {
          Status s = comm.barrier();
          if (!s.is_ok()) return s;
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          return comm.barrier();
        });
    return true;
  }();
  (void)registered;
}

// ------------------------------------------------- FaultyChannel basics

TEST(FaultyChannel, SameSeedSameSchedule) {
  // Two injectors with one seed make identical decisions for the same
  // write sequence — the property the seed sweep relies on.
  net::FaultPolicy policy;
  policy.drop_rate = 0.3;
  policy.duplicate_rate = 0.2;
  policy.corrupt_rate = 0.1;

  auto run = [&policy](std::uint64_t seed) {
    net::FaultInjector injector(seed);
    injector.set_policy(policy);
    std::string trace;
    for (int i = 0; i < 64; ++i) {
      const auto d = injector.decide(/*forward=*/true);
      trace += d.drop ? 'D' : d.duplicate ? '2' : d.corrupt ? 'C' : '.';
    }
    return trace;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(FaultyChannel, ScheduledDropKillsExactlyThatWrite) {
  net::ChannelPair pair = net::make_memory_channel_pair();
  auto injector = std::make_shared<net::FaultInjector>(1);
  injector->schedule_drop(2);
  net::ChannelPtr faulty = net::make_faulty_channel(
      std::move(pair.a), injector, net::FaultDirection::kForward);

  const Bytes one = to_bytes("one"), two = to_bytes("two"),
              three = to_bytes("three");
  ASSERT_TRUE(faulty->write(one).is_ok());
  ASSERT_TRUE(faulty->write(two).is_ok());  // swallowed
  ASSERT_TRUE(faulty->write(three).is_ok());
  faulty->close();

  Bytes buffer(64, 0);
  std::string received;
  for (;;) {
    const Result<std::size_t> n = pair.b->read(buffer.data(), buffer.size());
    if (!n.is_ok() || n.value() == 0) break;
    received.append(reinterpret_cast<const char*>(buffer.data()), n.value());
  }
  EXPECT_EQ(received, "onethree");
  EXPECT_EQ(injector->dropped(), 1u);
  EXPECT_EQ(injector->writes_seen(), 3u);
}

TEST(FaultyChannel, OneWayPartitionDropsOnlyForward) {
  auto injector = std::make_shared<net::FaultInjector>(2);
  net::FaultPolicy policy;
  policy.partition_forward = true;
  injector->set_policy(policy);

  net::ChannelPair pair = net::make_memory_channel_pair();
  net::ChannelPtr fwd = net::make_faulty_channel(
      std::move(pair.a), injector, net::FaultDirection::kForward);
  net::ChannelPtr rev = net::make_faulty_channel(
      std::move(pair.b), injector, net::FaultDirection::kReverse);

  ASSERT_TRUE(fwd->write(to_bytes("lost")).is_ok());   // partitioned away
  ASSERT_TRUE(rev->write(to_bytes("back")).is_ok());   // still flows
  Bytes buffer(16, 0);
  const Result<std::size_t> n = fwd->read(buffer.data(), buffer.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(buffer.data()),
                        n.value()),
            "back");
  EXPECT_EQ(injector->dropped(), 1u);
  fwd->close();
  rev->close();
}

// ------------------------------------------------------ grid under chaos

TEST(Chaos, JobsConvergeUnderDropsAndNodeKill) {
  register_chaos_apps();
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("PG_CHAOS_SEED=" + std::to_string(seed));

  GridBuilder builder;
  builder.seed(seed).key_bits(512).fault_injection();
  builder.add_nodes("site0", 2).add_nodes("site1", 2).add_nodes("site2", 2);
  builder.add_user("u", "p", {"mpi.run", "status.query", "job.submit"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.heartbeat_interval = 50 * kMicrosPerMilli;
    config.heartbeat_miss_threshold = 3;
    config.job_max_attempts = 3;
    config.job_run_timeout = 4 * kMicrosPerSecond;
    config.retry.per_try_timeout = kMicrosPerSecond;
    config.retry.initial_backoff = 10 * kMicrosPerMilli;
    config.retry.max_backoff = 200 * kMicrosPerMilli;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  // Chaos on: >=10% drop everywhere, plus delivery delays. On the GSSL
  // inter-site mesh a dropped record desynchronizes the sequence MACs and
  // kills the link (heartbeats then detect it and on_peer_down purges the
  // site); on the plaintext node links a drop is a lost message that
  // retries and job re-dispatch must absorb.
  {
    net::FaultPolicy inter;
    inter.drop_rate = 0.10;
    inter.delay_rate = 0.2;
    inter.max_delay = 2 * kMicrosPerMilli;
    grid->inter_site_injector()->set_policy(inter);

    net::FaultPolicy intra;
    intra.drop_rate = 0.10;
    intra.delay_rate = 0.2;
    intra.max_delay = kMicrosPerMilli;
    grid->intra_site_injector()->set_policy(intra);
  }

  // Jobs from every site; submission itself must survive the chaos.
  struct Submitted {
    std::string site;
    std::uint64_t job_id = 0;
  };
  const std::vector<std::string> sites = {"site0", "site1", "site2"};
  std::vector<Submitted> jobs;
  for (int i = 0; i < 6; ++i) {
    const std::string& site = sites[i % sites.size()];
    const auto id = grid->proxy(site).submit_job(
        "u", token.value(), i % 2 == 0 ? "chaos-barrier" : "chaos-slow", 2,
        sched::Policy::kLoadBalanced);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    jobs.push_back({site, id.value()});

    // Halfway through, take a node down for good.
    if (i == 2) grid->kill_node("site0", "node0");
  }

  // Convergence: every job terminal, every wait returns.
  for (const Submitted& job : jobs) {
    const auto record =
        grid->proxy(job.site).wait_job(job.job_id, 60 * kMicrosPerSecond);
    ASSERT_TRUE(record.is_ok())
        << job.site << " job " << job.job_id << ": "
        << record.status().to_string();
    const proxy::JobRecord& r = record.value();
    EXPECT_TRUE(r.state == proxy::JobState::kSucceeded ||
                r.state == proxy::JobState::kFailed)
        << job_state_name(r.state);
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_LE(r.attempts.size(), r.max_attempts);
    if (r.state == proxy::JobState::kFailed) {
      // A failed job either spent its whole budget on transient errors or
      // hit a non-transient one — never "gave up early".
      EXPECT_TRUE(r.attempts.size() == r.max_attempts ||
                  !proxy::is_transient(r.outcome))
          << r.attempts.size() << " attempts, " << r.outcome.to_string();
    }
  }

  // The chaos was real, and the grid noticed it.
  EXPECT_GT(grid->inter_site_injector()->dropped() +
                grid->intra_site_injector()->dropped(),
            0u);
  std::uint64_t disconnects = 0;
  for (const std::string& site : sites) {
    disconnects += grid->proxy(site).metrics().disconnects;
  }
  EXPECT_GE(disconnects, 1u);  // at least the killed node's link

  // Quiesce the fault stream so teardown isn't throttled by delays.
  grid->inter_site_injector()->set_policy({});
  grid->intra_site_injector()->set_policy({});
  grid->shutdown();
}

TEST(Chaos, CrossSiteCollectivesConvergeUnderDropAndDuplicate) {
  // Collective-heavy jobs spanning sites while the links drop AND
  // duplicate writes. On the GSSL mesh a duplicated record desynchronizes
  // the sequence MACs and kills the link just like a drop; on the
  // plaintext node links the batch dedup window absorbs replayed batch
  // envelopes. The assertion stays convergence: every job terminal,
  // clean shutdown.
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "chaos-collective", [](mpi::Comm& comm) -> Status {
          for (int iter = 0; iter < 3; ++iter) {
            Result<Bytes> root_word = comm.broadcast(
                0, comm.rank() == 0 ? mpi::pack_u64(iter) : Bytes{});
            if (!root_word.is_ok()) return root_word.status();
            if (mpi::unpack_u64(root_word.value()).value() !=
                static_cast<std::uint64_t>(iter))
              return error(ErrorCode::kInternal, "broadcast value wrong");
            Result<double> sum = comm.allreduce(1.0, mpi::ReduceOp::kSum);
            if (!sum.is_ok()) return sum.status();
            if (sum.value() != static_cast<double>(comm.size()))
              return error(ErrorCode::kInternal, "allreduce value wrong");
          }
          return Status::ok();
        });
    return true;
  }();
  (void)registered;

  const std::uint64_t seed = chaos_seed() + 17;
  SCOPED_TRACE("PG_CHAOS_SEED=" + std::to_string(seed));
  GridBuilder builder;
  builder.seed(seed).key_bits(512).fault_injection();
  builder.add_nodes("site0", 2).add_nodes("site1", 2);
  builder.add_user("u", "p", {"mpi.run", "status.query", "job.submit"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.heartbeat_interval = 50 * kMicrosPerMilli;
    config.heartbeat_miss_threshold = 3;
    config.job_max_attempts = 3;
    config.job_run_timeout = 4 * kMicrosPerSecond;
    config.retry.per_try_timeout = kMicrosPerSecond;
    config.retry.initial_backoff = 10 * kMicrosPerMilli;
    config.retry.max_backoff = 200 * kMicrosPerMilli;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  {
    net::FaultPolicy inter;
    inter.drop_rate = 0.05;
    inter.duplicate_rate = 0.05;
    inter.delay_rate = 0.2;
    inter.max_delay = 2 * kMicrosPerMilli;
    grid->inter_site_injector()->set_policy(inter);

    net::FaultPolicy intra;
    intra.drop_rate = 0.05;
    intra.duplicate_rate = 0.10;
    intra.delay_rate = 0.2;
    intra.max_delay = kMicrosPerMilli;
    grid->intra_site_injector()->set_policy(intra);
  }

  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 4; ++i) {
    const auto id = grid->proxy("site0").submit_job(
        "u", token.value(), "chaos-collective", 4, sched::Policy::kRoundRobin);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    jobs.push_back(id.value());
  }
  for (const std::uint64_t job : jobs) {
    const auto record =
        grid->proxy("site0").wait_job(job, 60 * kMicrosPerSecond);
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    EXPECT_TRUE(record.value().state == proxy::JobState::kSucceeded ||
                record.value().state == proxy::JobState::kFailed)
        << job_state_name(record.value().state);
  }

  // The chaos was real.
  EXPECT_GT(grid->inter_site_injector()->dropped() +
                grid->intra_site_injector()->dropped() +
                grid->inter_site_injector()->duplicated() +
                grid->intra_site_injector()->duplicated(),
            0u);

  grid->inter_site_injector()->set_policy({});
  grid->intra_site_injector()->set_policy({});
  grid->shutdown();
}

TEST(Chaos, DuplicateBatchDroppedByDedupWindow) {
  // Deterministic replay: the same (origin, seq) batch envelope delivered
  // twice counts as ONE delivery — the second is dropped and counted.
  GridBuilder builder;
  builder.seed(chaos_seed() + 29).key_bits(512);
  builder.add_nodes("site0", 1).add_nodes("site1", 1);
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();

  proto::MpiBatch batch;
  batch.origin = "replayer";
  batch.seq = 4242;
  proto::MpiFrame frame;
  frame.app_id = 999;  // unknown app: routing drops it harmlessly
  frame.src_rank = 0;
  frame.tag = 1;
  frame.dst_ranks = {1};
  frame.payload = to_bytes("dup");
  batch.frames = {frame};
  const Bytes wire = batch.serialize();

  ASSERT_TRUE(grid->proxy("site0")
                  .notify_peer("site1", proto::OpCode::kMpiBatch, wire)
                  .is_ok());
  ASSERT_TRUE(grid->proxy("site0")
                  .notify_peer("site1", proto::OpCode::kMpiBatch, wire)
                  .is_ok());

  // Notifies are async; wait for the receiver to process both.
  std::uint64_t duplicates = 0;
  for (int i = 0; i < 2000; ++i) {
    duplicates = grid->proxy("site1").metrics().mpi_batch_duplicates;
    if (duplicates >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(duplicates, 1u);
  grid->shutdown();
}

// Phases for the teardown-flush app: 0 = launching, 1 = the side link is
// dead (senders fire into the parked queue), 2 = link restored (everyone
// may exit).
std::atomic<int> g_park_phase{0};
std::atomic<int> g_park_started{0};

TEST(Chaos, ParkedBatchFlushesOnAppTeardown) {
  // Frames queued for a dead site must not strand: app teardown flushes
  // them (reason "teardown") once the link is back, instead of leaving
  // them parked until the (here: enormous) retry interval.
  //
  // Topology matters: the killed link is site1<->site2, which is on no
  // path to the origin (site0), so the run survives — origin-facing
  // failure detection would otherwise fail the run and close the app
  // before anything parks.
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "park-send", [](mpi::Comm& comm) -> Status {
          g_park_started.fetch_add(1);
          while (g_park_phase.load() < 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          // Fire-and-forget to every other rank: whichever ranks sit on
          // the severed pair park their frames; nobody ever receives, so
          // teardown owns the queues.
          for (std::uint32_t r = 0; r < comm.size(); ++r) {
            if (r == comm.rank()) continue;
            for (int i = 0; i < 3; ++i)
              PG_RETURN_IF_ERROR(comm.send(r, 5, to_bytes("parked")));
          }
          while (g_park_phase.load() < 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return Status::ok();
        });
    return true;
  }();
  (void)registered;

  GridBuilder builder;
  builder.seed(chaos_seed() + 31).key_bits(512);
  builder.add_nodes("site0", 1).add_nodes("site1", 1).add_nodes("site2", 1);
  builder.add_user("u", "p", {"mpi.run", "status.query"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    // Park "forever": only teardown may flush within the test's lifetime.
    config.mpi_batch_flush_interval = 600 * kMicrosPerSecond;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  const std::uint64_t teardown_flushes_before =
      telemetry::MetricRegistry::global()
          .counter("pg_mpi_batch_flush_total",
                   "kMpiBatch envelopes flushed, by reason",
                   {{"site", "site1"}, {"reason", "teardown"}})
          .value();

  g_park_phase.store(0);
  g_park_started.store(0);
  proxy::AppRunResult result;
  std::thread runner([&] {
    result = grid->run_app("site0", "u", token.value(), "park-send", 3,
                           SchedulerPolicy::kRoundRobin);
  });

  for (int i = 0; i < 5000 && g_park_started.load() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(g_park_started.load(), 3);

  grid->kill_link("site1", "site2");
  for (int i = 0; i < 1000 && grid->proxy("site1").peer_alive("site2"); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_FALSE(grid->proxy("site1").peer_alive("site2"));

  g_park_phase.store(1);  // senders fire; site1<->site2 frames park
  std::uint64_t queued = 0;
  for (int i = 0; i < 5000; ++i) {
    queued = grid->proxy("site1").metrics().mpi_batch_messages +
             grid->proxy("site2").metrics().mpi_batch_messages;
    if (queued >= 12) break;  // each side: 3 frames per remote peer
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queued, 12u);

  ASSERT_TRUE(grid->reconnect_link("site1", "site2").is_ok());
  g_park_phase.store(2);
  runner.join();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  // App close flushed the parked frames over the healed link.
  std::uint64_t teardown_flushes = 0;
  for (int i = 0; i < 2000; ++i) {
    teardown_flushes =
        telemetry::MetricRegistry::global()
            .counter("pg_mpi_batch_flush_total",
                     "kMpiBatch envelopes flushed, by reason",
                     {{"site", "site1"}, {"reason", "teardown"}})
            .value() -
        teardown_flushes_before;
    if (teardown_flushes >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(teardown_flushes, 1u);
  EXPECT_GE(grid->proxy("site1").metrics().mpi_batch_flushes, 1u);
  grid->shutdown();
}

// Phases for the retransmit-heal app: 0 = launching, 1 = send window open
// (scheduled drops armed), 2 = everyone may exit.
std::atomic<int> g_retx_phase{0};
std::atomic<int> g_retx_started{0};
std::atomic<bool> g_retx_received{false};

TEST(Chaos, RetransmitHealsDroppedDataFrames) {
  // Deterministic drops aimed at the data plane: scheduled write kills on
  // the plaintext intra-site links (the clean message-loss case) land on
  // kMpiBatch envelopes and their acks. The reliable data plane must
  // recover via ack-timeout retransmission — NOT via the job timeout, so
  // pg_job_redispatch_total stays flat while the retransmit counters move
  // and the dedup window absorbs any duplicate deliveries.
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "retx-burst", [](mpi::Comm& comm) -> Status {
          g_retx_started.fetch_add(1);
          while (g_retx_phase.load() < 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (comm.rank() == 0) {
            for (int i = 0; i < 5; ++i)
              PG_RETURN_IF_ERROR(
                  comm.send(1, 7, mpi::pack_u64(100 + i)));
          } else {
            // Retransmission can reorder healed messages behind later
            // ones, so collect the burst as a set.
            std::set<std::uint64_t> got;
            for (int i = 0; i < 5; ++i) {
              Result<Bytes> word = comm.recv(0, 7);
              if (!word.is_ok()) return word.status();
              got.insert(mpi::unpack_u64(word.value()).value());
            }
            for (std::uint64_t v = 100; v < 105; ++v)
              if (got.count(v) == 0)
                return error(ErrorCode::kInternal, "lost message survived");
            g_retx_received.store(true);
          }
          while (g_retx_phase.load() < 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return Status::ok();
        });
    return true;
  }();
  (void)registered;

  GridBuilder builder;
  builder.seed(chaos_seed() + 37).key_bits(512).fault_injection();
  builder.add_nodes("site0", 2);  // one site: every MPI hop is plaintext
  builder.add_user("u", "p", {"mpi.run", "status.query"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.mpi_ack_rto_initial = 5 * kMicrosPerMilli;  // fast recovery
    config.mpi_ack_rto_max = 200 * kMicrosPerMilli;
    // A job timeout far beyond the test budget: if recovery leaned on
    // re-dispatch instead of retransmission, the test would hang and fail.
    config.job_run_timeout = 120 * kMicrosPerSecond;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  auto& registry = telemetry::MetricRegistry::global();
  const auto retransmit_total = [&registry] {
    std::uint64_t total = 0;
    for (const char* sender : {"proxy", "node0", "node1"}) {
      total += registry
                   .counter("pg_mpi_retransmit_total",
                            "kMpiBatch envelopes retransmitted after an RTO",
                            {{"site", "site0"}, {"sender", sender}})
                   .value();
    }
    return total;
  };
  const std::uint64_t retransmits_before = retransmit_total();
  const std::uint64_t redispatch_before =
      registry.counter("pg_job_redispatch_total", "Jobs re-dispatched").value();

  g_retx_phase.store(0);
  g_retx_started.store(0);
  g_retx_received.store(false);
  proxy::AppRunResult result;
  std::thread runner([&] {
    result = grid->run_app("site0", "u", token.value(), "retx-burst", 2,
                           SchedulerPolicy::kRoundRobin);
  });
  for (int i = 0; i < 5000 && g_retx_started.load() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(g_retx_started.load(), 2);
  // Let startup traffic drain so the scheduled kills hit the data burst.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::uint64_t n = grid->intra_site_injector()->writes_seen();
  grid->intra_site_injector()->schedule_drop(n + 1);
  grid->intra_site_injector()->schedule_drop(n + 3);
  grid->intra_site_injector()->schedule_drop(n + 5);

  g_retx_phase.store(1);
  for (int i = 0; i < 10000 && !g_retx_received.load(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(g_retx_received.load());  // every dropped frame was healed
  g_retx_phase.store(2);
  runner.join();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  EXPECT_GE(grid->intra_site_injector()->dropped(), 3u);
  EXPECT_GT(retransmit_total(), retransmits_before);
  // Recovery was retransmission, never a job re-dispatch.
  EXPECT_EQ(
      registry.counter("pg_job_redispatch_total", "Jobs re-dispatched").value(),
      redispatch_before);
  grid->shutdown();
}

// Phases for the lane-ordering app: 0 = launching, 1 = the bulk link is
// dead (sends park), rank 2's receives gate the rest.
std::atomic<int> g_lane_phase{0};
std::atomic<int> g_lane_started{0};
// Over the per-envelope byte budget, so the bulk frame and the small one
// cannot share one envelope: the lanes must produce two sends.
constexpr std::size_t kLaneBulkBytes = proxy::kBatchMaxBytes + 64 * 1024;

TEST(Chaos, LatencyLaneOvertakesParkedBulk) {
  // QoS lanes: a big bulk frame queued FIRST must not head-of-line-block a
  // small frame queued after it. Both park while the site1->site2 link is
  // dead; on the healed link the latency lane drains first, so the small
  // frame arrives ahead of the bulk one even though it was sent second.
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "lane-order", [](mpi::Comm& comm) -> Status {
          g_lane_started.fetch_add(1);
          if (comm.rank() == 1) {
            while (g_lane_phase.load() < 1)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            PG_RETURN_IF_ERROR(comm.send(2, 9, Bytes(kLaneBulkBytes, 0xbb)));
            PG_RETURN_IF_ERROR(comm.send(2, 8, to_bytes("small")));
          } else if (comm.rank() == 2) {
            Result<mpi::MpiMessage> first =
                comm.recv_message(mpi::kAnySource, mpi::kAnyTag);
            if (!first.is_ok()) return first.status();
            if (first.value().tag != 8)
              return error(ErrorCode::kInternal,
                           "bulk frame overtook the latency lane");
            Result<mpi::MpiMessage> second =
                comm.recv_message(mpi::kAnySource, mpi::kAnyTag);
            if (!second.is_ok()) return second.status();
            if (second.value().payload.size() != kLaneBulkBytes)
              return error(ErrorCode::kInternal, "bulk frame lost");
          }
          return Status::ok();
        });
    return true;
  }();
  (void)registered;

  GridBuilder builder;
  builder.seed(chaos_seed() + 41).key_bits(512);
  // The severed pair (site1<->site2) is on no path to the origin (site0),
  // so failure detection never aborts the run while the frames are parked.
  builder.add_nodes("site0", 1).add_nodes("site1", 1).add_nodes("site2", 1);
  builder.add_user("u", "p", {"mpi.run", "status.query"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.mpi_batch_flush_interval = 50 * kMicrosPerMilli;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();
  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());

  auto& registry = telemetry::MetricRegistry::global();
  const auto lane_total = [&registry](const char* lane) {
    return registry
        .counter("pg_mpi_lane_flush_total",
                 "Flushed envelopes that served a lane",
                 {{"site", "site1"}, {"lane", lane}})
        .value();
  };
  const std::uint64_t latency_before = lane_total("latency");
  const std::uint64_t bulk_before = lane_total("bulk");

  g_lane_phase.store(0);
  g_lane_started.store(0);
  proxy::AppRunResult result;
  std::thread runner([&] {
    result = grid->run_app("site0", "u", token.value(), "lane-order", 3,
                           SchedulerPolicy::kRoundRobin);
  });
  for (int i = 0; i < 5000 && g_lane_started.load() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(g_lane_started.load(), 3);

  grid->kill_link("site1", "site2");
  for (int i = 0; i < 1000 && grid->proxy("site1").peer_alive("site2"); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_FALSE(grid->proxy("site1").peer_alive("site2"));

  g_lane_phase.store(1);  // bulk then small fire; both park at site1
  std::uint64_t queued = 0;
  for (int i = 0; i < 5000; ++i) {
    queued = grid->proxy("site1").metrics().mpi_batch_messages;
    if (queued >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(queued, 2u);

  ASSERT_TRUE(grid->reconnect_link("site1", "site2").is_ok());
  runner.join();
  // Rank 2 verified in-app that the small frame arrived first.
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_GE(lane_total("latency") - latency_before, 1u);
  EXPECT_GE(lane_total("bulk") - bulk_before, 1u);
  grid->shutdown();
}

TEST(Chaos, CleanGridUnchangedByInjectorsAtRest) {
  // fault_injection() with all-zero policies must not change behavior:
  // the wrapped grid still builds, runs an app, and reports status.
  register_chaos_apps();
  GridBuilder builder;
  builder.seed(chaos_seed() + 1).key_bits(512).fault_injection();
  builder.add_nodes("site0", 2).add_nodes("site1", 1);
  builder.add_user("u", "p", {"mpi.run", "status.query"});
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();

  auto token = grid->login("site0", "u", "p");
  ASSERT_TRUE(token.is_ok());
  EXPECT_EQ(grid->status("site0", token.value()).value().size(), 2u);
  const auto result =
      grid->run_app("site0", "u", token.value(), "chaos-barrier", 3,
                    SchedulerPolicy::kRoundRobin);
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(grid->inter_site_injector()->dropped(), 0u);
  EXPECT_EQ(grid->intra_site_injector()->dropped(), 0u);
  grid->shutdown();
}

// ------------------------------------------------- sharded proxy tier

TEST(Chaos, ShardKillRehomesNodesAndJobsConverge) {
  // One of siteA's three proxy shards dies for good mid-run. The ring must
  // prune it, every virtual slave it owned must re-home onto the survivors,
  // in-flight jobs must still converge within their attempt budgets, the
  // session ticket minted before the kill must keep working at the
  // survivors, and no reliable-data-plane window may be left waiting on an
  // ack the dead shard swallowed.
  register_chaos_apps();
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("PG_CHAOS_SEED=" + std::to_string(seed));

  GridBuilder builder;
  builder.seed(seed + 47).key_bits(512);
  builder.add_site("siteA", 3);
  builder.add_nodes("siteA", 4).add_nodes("siteB", 2);
  builder.add_user("u", "p", {"mpi.run", "status.query", "job.submit"});
  builder.configure_proxy([](proxy::ProxyConfig& config) {
    config.heartbeat_interval = 50 * kMicrosPerMilli;
    config.heartbeat_miss_threshold = 3;
    config.shard_gossip_interval = 50 * kMicrosPerMilli;
    config.job_max_attempts = 3;
    config.job_run_timeout = 4 * kMicrosPerSecond;
    config.retry.per_try_timeout = kMicrosPerSecond;
    config.retry.initial_backoff = 10 * kMicrosPerMilli;
    config.retry.max_backoff = 200 * kMicrosPerMilli;
  });
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  auto grid = built.take();

  // Ring placement is deterministic (it hashes names, not the seed), so
  // the number of nodes the doomed shard owns is known before the kill.
  ASSERT_EQ(grid->site_shards("siteA").size(), 3u);
  std::uint64_t on_doomed = 0;
  for (int n = 0; n < 4; ++n) {
    if (grid->shard_for("siteA", "node" + std::to_string(n)) == "siteA#1")
      ++on_doomed;
  }
  ASSERT_GE(on_doomed, 1u);  // the kill must actually orphan something

  auto token = grid->login("siteA", "u", "p");
  ASSERT_TRUE(token.is_ok());

  // Delegation while all shards are up: the ticket minted at shard 0
  // authorizes a job at a sibling (realm-sealed tickets, no per-shard
  // session state to migrate).
  {
    const auto id = grid->proxy("siteA#2").submit_job(
        "u", token.value(), "chaos-barrier", 2, sched::Policy::kLoadBalanced);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    const auto record =
        grid->proxy("siteA#2").wait_job(id.value(), 60 * kMicrosPerSecond);
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    EXPECT_EQ(record.value().state, proxy::JobState::kSucceeded);
  }

  auto& registry = telemetry::MetricRegistry::global();
  auto& rehomes = registry.counter(
      "pg_shard_rehome_total",
      "Entities re-homed onto surviving shards after a shard death",
      {{"site", "siteA"}, {"reason", "shard_death"}});
  const std::uint64_t rehomes_before = rehomes.value();

  // Load across the surviving submission points while the shard dies.
  struct Submitted {
    std::string site;
    std::uint64_t job_id = 0;
  };
  const std::vector<std::string> origins = {"siteA", "siteA#2", "siteB"};
  std::vector<Submitted> jobs;
  for (int i = 0; i < 6; ++i) {
    const std::string& origin = origins[i % origins.size()];
    const auto id = grid->proxy(origin).submit_job(
        "u", token.value(), i % 2 == 0 ? "chaos-barrier" : "chaos-slow", 2,
        sched::Policy::kLoadBalanced);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    jobs.push_back({origin, id.value()});

    // 1 of 3 shards dies for good mid-run.
    if (i == 2) grid->kill_proxy("siteA#1");
  }

  // Convergence: every job terminal, every wait returns.
  for (const Submitted& job : jobs) {
    const auto record =
        grid->proxy(job.site).wait_job(job.job_id, 60 * kMicrosPerSecond);
    ASSERT_TRUE(record.is_ok())
        << job.site << " job " << job.job_id << ": "
        << record.status().to_string();
    const proxy::JobRecord& r = record.value();
    EXPECT_TRUE(r.state == proxy::JobState::kSucceeded ||
                r.state == proxy::JobState::kFailed)
        << job_state_name(r.state);
    ASSERT_FALSE(r.attempts.empty());
    EXPECT_LE(r.attempts.size(), r.max_attempts);
    if (r.state == proxy::JobState::kFailed) {
      EXPECT_TRUE(r.attempts.size() == r.max_attempts ||
                  !proxy::is_transient(r.outcome))
          << r.attempts.size() << " attempts, " << r.outcome.to_string();
    }
  }

  // The ring pruned the dead shard and re-homed exactly its nodes.
  for (int i = 0; i < 10000 && grid->site_shards("siteA").size() != 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(grid->site_shards("siteA").size(), 2u);
  std::uint64_t rehomed = 0;
  for (int i = 0; i < 10000; ++i) {
    rehomed = rehomes.value() - rehomes_before;
    if (rehomed >= on_doomed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rehomed, on_doomed);
  for (int n = 0; n < 4; ++n) {
    EXPECT_NE(grid->shard_for("siteA", "node" + std::to_string(n)),
              "siteA#1");
  }

  // The survivors' merged view recovers all four virtual slaves (any
  // surviving shard answers for the whole site)...
  proto::StatusReport merged;
  for (int i = 0; i < 10000; ++i) {
    auto report = grid->site_status("siteA");
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    merged = report.take();
    if (merged.nodes.size() == 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(merged.site, "siteA");
  EXPECT_EQ(merged.nodes.size(), 4u);

  // ...and between them own every one of them (pg_shard_owned_keys).
  std::int64_t owned = 0;
  for (int i = 0; i < 10000; ++i) {
    owned = grid->proxy("siteA").metrics().shard_owned_keys +
            grid->proxy("siteA#2").metrics().shard_owned_keys;
    if (owned == 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(owned, 4);

  // Sessions survive the shard death: the pre-kill ticket still works at
  // both survivors and fresh jobs complete on the re-homed slaves.
  for (const char* origin : {"siteA", "siteA#2"}) {
    const auto id = grid->proxy(origin).submit_job(
        "u", token.value(), "chaos-barrier", 2, sched::Policy::kLoadBalanced);
    ASSERT_TRUE(id.is_ok()) << origin << ": " << id.status().to_string();
    const auto record =
        grid->proxy(origin).wait_job(id.value(), 60 * kMicrosPerSecond);
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    EXPECT_EQ(record.value().state, proxy::JobState::kSucceeded)
        << origin << ": " << job_state_name(record.value().state);
  }

  // Zero lost acks: every surviving proxy's reliable-data-plane window
  // drained — nothing waits forever on an ack the dead shard swallowed.
  const auto inflight = [&registry](const std::string& site) {
    return registry
        .gauge("pg_mpi_inflight_bytes",
               "Payload bytes transmitted but not yet acknowledged",
               {{"site", site}, {"sender", "proxy"}})
        .value();
  };
  std::int64_t pending = -1;
  for (int i = 0; i < 10000; ++i) {
    pending = inflight("siteA") + inflight("siteA#2") + inflight("siteB");
    if (pending == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pending, 0);

  // The status gossip plane was active the whole time.
  EXPECT_GT(grid->proxy("siteA").metrics().shard_status_gossip, 0u);

  grid->shutdown();
}

}  // namespace
}  // namespace pg::grid
