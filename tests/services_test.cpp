// Tests for the higher-level grid services: thread pool, batch jobs,
// GridFS (the extension-mechanism file service) and the Web interface.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/thread_pool.hpp"
#include "grid/cli.hpp"
#include "grid/grid.hpp"
#include "grid/web.hpp"
#include "gridfs/gridfs.hpp"
#include "mpi/runtime.hpp"
#include "net/framer.hpp"
#include "net/tcp.hpp"
#include "telemetry/trace.hpp"

namespace pg {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.submit([&count] { ++count; }));
  }
  pool.drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DrainWaitsForInFlightTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
    });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, ShutdownFinishesQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) pool.submit([&done] { ++done; });
    pool.shutdown();
  }
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, SubmitAfterShutdownRejected) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> entered{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&entered, &peak] {
      const int now = ++entered;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --entered;
    });
  }
  pool.drain();
  // On a single-core box the workers still interleave during the sleeps.
  EXPECT_GE(peak.load(), 2);
}

// ------------------------------------------------------------ batch jobs

class JobTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mpi::AppRegistry::instance().register_app(
        "jobs-noop", [](mpi::Comm& comm) { return comm.barrier(); });
    mpi::AppRegistry::instance().register_app(
        "jobs-fail", [](mpi::Comm&) {
          return error(ErrorCode::kInternal, "deliberate failure");
        });
    grid::GridBuilder builder;
    builder.seed(5).key_bits(512);
    builder.add_nodes("siteA", 2).add_nodes("siteB", 2);
    builder.add_user("alice", "pw", {"mpi.run", "status.query", "job.submit"});
    builder.add_user("nojobs", "pw", {"status.query"});
    auto built = builder.build();
    ASSERT_TRUE(built.is_ok());
    grid_ = built.take().release();
    auto token = grid_->login("siteA", "alice", "pw");
    ASSERT_TRUE(token.is_ok());
    token_ = new Bytes(token.take());
  }
  static void TearDownTestSuite() {
    delete grid_;
    delete token_;
    grid_ = nullptr;
    token_ = nullptr;
  }

  static grid::Grid* grid_;
  static Bytes* token_;
};
grid::Grid* JobTest::grid_ = nullptr;
Bytes* JobTest::token_ = nullptr;

TEST_F(JobTest, SubmitAndWaitSucceeds) {
  auto& proxy_server = grid_->proxy("siteA");
  Result<std::uint64_t> job = proxy_server.submit_job(
      "alice", *token_, "jobs-noop", 4, sched::Policy::kRoundRobin);
  ASSERT_TRUE(job.is_ok()) << job.status().to_string();

  Result<proxy::JobRecord> record = proxy_server.wait_job(job.value());
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().state, proxy::JobState::kSucceeded);
  EXPECT_EQ(record.value().placements.size(), 4u);
  EXPECT_GT(record.value().finished_at, record.value().submitted_at);
}

TEST_F(JobTest, FailingAppReportsFailedState) {
  auto& proxy_server = grid_->proxy("siteA");
  Result<std::uint64_t> job = proxy_server.submit_job(
      "alice", *token_, "jobs-fail", 2, sched::Policy::kLoadBalanced);
  ASSERT_TRUE(job.is_ok());
  Result<proxy::JobRecord> record = proxy_server.wait_job(job.value());
  ASSERT_TRUE(record.is_ok());
  EXPECT_EQ(record.value().state, proxy::JobState::kFailed);
  EXPECT_FALSE(record.value().outcome.is_ok());
}

TEST_F(JobTest, SubmitRequiresPermission) {
  auto token = grid_->login("siteA", "nojobs", "pw");
  ASSERT_TRUE(token.is_ok());
  EXPECT_EQ(grid_->proxy("siteA")
                .submit_job("nojobs", token.value(), "jobs-noop", 1,
                            sched::Policy::kRoundRobin)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(JobTest, InfoForUnknownJobFails) {
  EXPECT_EQ(grid_->proxy("siteA").job_info(999999).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(JobTest, ConcurrentJobsAllComplete) {
  auto& proxy_server = grid_->proxy("siteA");
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    Result<std::uint64_t> job = proxy_server.submit_job(
        "alice", *token_, "jobs-noop", 2, sched::Policy::kLoadBalanced);
    ASSERT_TRUE(job.is_ok());
    ids.push_back(job.value());
  }
  for (std::uint64_t id : ids) {
    Result<proxy::JobRecord> record = proxy_server.wait_job(id);
    ASSERT_TRUE(record.is_ok());
    EXPECT_EQ(record.value().state, proxy::JobState::kSucceeded) << id;
  }
  EXPECT_GE(proxy_server.jobs().size(), 5u);
}

TEST_F(JobTest, CliJobFlow) {
  grid::CommandLine cli(*grid_, "siteA");
  std::ostringstream out;
  cli.execute("login siteA alice pw", out);

  out.str("");
  cli.execute("submit jobs-noop 2 lb", out);
  ASSERT_NE(out.str().find("queued"), std::string::npos) << out.str();
  const std::string text = out.str();
  const std::uint64_t job_id =
      std::stoull(text.substr(text.find("job ") + 4));

  out.str("");
  cli.execute("wait " + std::to_string(job_id), out);
  EXPECT_NE(out.str().find("succeeded"), std::string::npos) << out.str();

  out.str("");
  cli.execute("jobs", out);
  EXPECT_NE(out.str().find("jobs-noop"), std::string::npos);
}

// ---------------------------------------------------------------- GridFS

class GridFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    grid::GridBuilder builder;
    builder.seed(9).key_bits(512);
    builder.add_nodes("siteA", 1).add_nodes("siteB", 1);
    builder.add_user("alice", "pw",
                     {"fs.read", "fs.write", "status.query"});
    builder.add_user("reader", "pw", {"fs.read"});
    auto built = builder.build();
    ASSERT_TRUE(built.is_ok());
    grid_ = built.take();

    auto fs_a = gridfs::GridFileService::attach(grid_->proxy("siteA"));
    auto fs_b = gridfs::GridFileService::attach(grid_->proxy("siteB"));
    ASSERT_TRUE(fs_a.is_ok());
    ASSERT_TRUE(fs_b.is_ok());
    fs_a_ = fs_a.take();
    fs_b_ = fs_b.take();

    auto token = grid_->login("siteA", "alice", "pw");
    ASSERT_TRUE(token.is_ok());
    token_ = token.take();
  }

  std::unique_ptr<grid::Grid> grid_;
  std::unique_ptr<gridfs::GridFileService> fs_a_;
  std::unique_ptr<gridfs::GridFileService> fs_b_;
  Bytes token_;
};

TEST_F(GridFsTest, LocalPutGetRoundTrip) {
  ASSERT_TRUE(fs_a_->put(token_, "alice", "siteA", "data.txt",
                         to_bytes("local content"))
                  .is_ok());
  Result<Bytes> content = fs_a_->get(token_, "siteA", "data.txt");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(to_string(content.value()), "local content");
  EXPECT_EQ(fs_a_->local_file_count(), 1u);
}

TEST_F(GridFsTest, RemotePutGetThroughTunnel) {
  // alice at siteA stores a file AT siteB; the request crosses the GSSL
  // tunnel and is re-authorized by siteB's ticket service.
  ASSERT_TRUE(fs_a_->put(token_, "alice", "siteB", "remote.bin",
                         Bytes(5000, 0x7e))
                  .is_ok());
  EXPECT_EQ(fs_b_->local_file_count(), 1u);
  EXPECT_EQ(fs_b_->local_bytes_stored(), 5000u);
  EXPECT_EQ(fs_a_->local_file_count(), 0u);

  Result<Bytes> content = fs_a_->get(token_, "siteB", "remote.bin");
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(content.value().size(), 5000u);
}

TEST_F(GridFsTest, ListAcrossSites) {
  ASSERT_TRUE(fs_a_->put(token_, "alice", "siteB", "a.txt", to_bytes("A"))
                  .is_ok());
  ASSERT_TRUE(fs_a_->put(token_, "alice", "siteB", "b.txt", to_bytes("BB"))
                  .is_ok());
  Result<std::vector<gridfs::FileInfo>> listing =
      fs_a_->list(token_, "siteB");
  ASSERT_TRUE(listing.is_ok());
  ASSERT_EQ(listing.value().size(), 2u);
  EXPECT_EQ(listing.value()[0].name, "a.txt");
  EXPECT_EQ(listing.value()[1].size, 2u);
  EXPECT_EQ(listing.value()[0].owner, "alice");
}

TEST_F(GridFsTest, RemoveHonorsOwnership) {
  ASSERT_TRUE(fs_a_->put(token_, "alice", "siteA", "mine.txt", to_bytes("x"))
                  .is_ok());
  EXPECT_EQ(
      fs_a_->remove(token_, "mallory", "siteA", "mine.txt").code(),
      ErrorCode::kPermissionDenied);
  ASSERT_TRUE(fs_a_->remove(token_, "alice", "siteA", "mine.txt").is_ok());
  EXPECT_EQ(fs_a_->get(token_, "siteA", "mine.txt").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(GridFsTest, WritePermissionEnforcedRemotely) {
  auto reader_token = grid_->login("siteA", "reader", "pw");
  ASSERT_TRUE(reader_token.is_ok());
  // reader can read but not write, locally and remotely.
  EXPECT_FALSE(fs_a_->put(reader_token.value(), "reader", "siteA", "f",
                          to_bytes("x"))
                   .is_ok());
  EXPECT_FALSE(fs_a_->put(reader_token.value(), "reader", "siteB", "f",
                          to_bytes("x"))
                   .is_ok());
  // but listing works.
  EXPECT_TRUE(fs_a_->list(reader_token.value(), "siteB").is_ok());
}

TEST_F(GridFsTest, GetMissingFileFails) {
  EXPECT_EQ(fs_a_->get(token_, "siteB", "ghost").status().code(),
            ErrorCode::kUnavailable);  // remote error wrapped
  EXPECT_EQ(fs_a_->get(token_, "siteA", "ghost").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(GridFsTest, CliFsCommands) {
  grid::CommandLine cli(*grid_, "siteA");
  cli.attach_fs(fs_a_.get());
  std::ostringstream out;
  cli.execute("login siteA alice pw", out);

  out.str("");
  cli.execute("fs put siteB notes.txt grid computing notes", out);
  EXPECT_NE(out.str().find("stored notes.txt at siteB"), std::string::npos)
      << out.str();

  out.str("");
  cli.execute("fs ls siteB", out);
  EXPECT_NE(out.str().find("notes.txt"), std::string::npos);

  out.str("");
  cli.execute("fs get siteB notes.txt", out);
  EXPECT_NE(out.str().find("grid computing notes"), std::string::npos);

  out.str("");
  cli.execute("fs rm siteB notes.txt", out);
  EXPECT_NE(out.str().find("removed notes.txt"), std::string::npos);

  out.str("");
  cli.execute("fs get siteB notes.txt", out);
  EXPECT_NE(out.str().find("failed"), std::string::npos);
}

TEST_F(GridFsTest, ReplicatedPutStoresAtMultipleSites) {
  const auto stored = fs_a_->put_replicated(token_, "alice", "repl.dat",
                                            Bytes(200, 0x33), 2);
  ASSERT_TRUE(stored.is_ok()) << stored.status().to_string();
  EXPECT_EQ(stored.value().size(), 2u);
  EXPECT_EQ(fs_a_->local_file_count(), 1u);
  EXPECT_EQ(fs_b_->local_file_count(), 1u);

  // get_any finds a copy even when asked at either end.
  EXPECT_TRUE(fs_a_->get_any(token_, "repl.dat").is_ok());
  EXPECT_TRUE(fs_b_->get_any(token_, "repl.dat").is_ok());
}

TEST_F(GridFsTest, GetAnySurvivesSiteLoss) {
  ASSERT_TRUE(fs_a_->put_replicated(token_, "alice", "safe.dat",
                                    to_bytes("redundant"), 2)
                  .is_ok());
  // siteB dies; the local replica still serves reads from siteA.
  grid_->kill_proxy("siteB");
  Result<Bytes> content = fs_a_->get_any(token_, "safe.dat");
  ASSERT_TRUE(content.is_ok()) << content.status().to_string();
  EXPECT_EQ(to_string(content.value()), "redundant");
}

TEST_F(GridFsTest, ReplicasCappedBySiteCount) {
  const auto stored = fs_a_->put_replicated(token_, "alice", "r.dat",
                                            to_bytes("x"), 99);
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value().size(), 2u);  // only two sites exist
}

TEST_F(GridFsTest, GetAnyMissingEverywhereFails) {
  EXPECT_EQ(fs_a_->get_any(token_, "nope").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(JobTest, PingPeerLiveness) {
  EXPECT_TRUE(grid_->proxy("siteA").ping_peer("siteB").is_ok());
  EXPECT_FALSE(grid_->proxy("siteA").ping_peer("nowhere").is_ok());
  EXPECT_EQ(grid_->proxy("siteA").alive_peers().size(), 1u);
}

TEST_F(GridFsTest, DoubleAttachRejected) {
  EXPECT_FALSE(gridfs::GridFileService::attach(grid_->proxy("siteA")).is_ok());
}

// ----------------------------------------------------------- Web portal

class WebTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mpi::AppRegistry::instance().register_app(
        "web-noop", [](mpi::Comm& comm) { return comm.barrier(); });
    grid::GridBuilder builder;
    builder.seed(17).key_bits(512);
    builder.add_nodes("siteA", 2).add_nodes("siteB", 1);
    builder.add_user("webadmin", "pw",
                     {"mpi.run", "status.query", "job.submit"});
    auto built = builder.build();
    ASSERT_TRUE(built.is_ok());
    grid_ = built.take();
    web_ = std::make_unique<grid::WebInterface>(*grid_, "siteA");
    ASSERT_TRUE(web_->start("webadmin", "pw").is_ok());
  }

  /// Minimal HTTP GET; returns the full response.
  std::string http_get(const std::string& path) {
    auto conn = net::tcp_connect("127.0.0.1", web_->port());
    if (!conn.is_ok()) return "";
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (!conn.value()->write(to_bytes(request)).is_ok()) return "";
    std::string response;
    std::uint8_t buf[4096];
    for (;;) {
      Result<std::size_t> n = conn.value()->read(buf, sizeof(buf));
      if (!n.is_ok() || n.value() == 0) break;
      response.append(reinterpret_cast<char*>(buf), n.value());
    }
    return response;
  }

  std::unique_ptr<grid::Grid> grid_;
  std::unique_ptr<grid::WebInterface> web_;
};

TEST_F(WebTest, IndexServed) {
  const std::string response = http_get("/");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ProxyGrid portal"), std::string::npos);
  EXPECT_NE(response.find("webadmin"), std::string::npos);
}

TEST_F(WebTest, StatusPageShowsAllSites) {
  const std::string response = http_get("/status");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("siteA"), std::string::npos);
  EXPECT_NE(response.find("siteB"), std::string::npos);
  EXPECT_NE(response.find("node0"), std::string::npos);
}

TEST_F(WebTest, StatusJson) {
  const std::string response = http_get("/status.json");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"site\":\"siteA\""), std::string::npos);
  EXPECT_NE(response.find("\"nodes\":["), std::string::npos);
}

TEST_F(WebTest, RunSubmitsJobAndJobsPageShowsIt) {
  const std::string submit = http_get("/run?app=web-noop&ranks=2&policy=lb");
  EXPECT_NE(submit.find("302"), std::string::npos);

  // Wait for the job to finish, then check the page.
  const auto jobs = grid_->proxy("siteA").jobs();
  ASSERT_FALSE(jobs.empty());
  ASSERT_TRUE(grid_->proxy("siteA").wait_job(jobs.front().job_id).is_ok());

  const std::string page = http_get("/jobs");
  EXPECT_NE(page.find("web-noop"), std::string::npos);
  EXPECT_NE(page.find("succeeded"), std::string::npos);

  const std::string json = http_get("/jobs.json");
  EXPECT_NE(json.find("\"app\":\"web-noop\""), std::string::npos);
}

TEST_F(WebTest, BadRequestsHandled) {
  EXPECT_NE(http_get("/run?app=web-noop").find("400"), std::string::npos);
  EXPECT_NE(http_get("/run?app=web-noop&ranks=abc").find("400"),
            std::string::npos);
  EXPECT_NE(http_get("/nonexistent").find("404"), std::string::npos);
}

TEST_F(WebTest, CountsRequests) {
  http_get("/");
  http_get("/status");
  EXPECT_GE(web_->requests_served(), 2u);
}

TEST_F(WebTest, ServesPrometheusMetrics) {
  // start() logged webadmin in, so the login counter is live by now.
  const std::string response = http_get("/metrics");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("# TYPE pg_proxy_logins_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("pg_proxy_logins_total{site=\"siteA\"}"),
            std::string::npos);
  EXPECT_NE(response.find("pg_tls_handshake_micros_bucket"),
            std::string::npos);

  const std::string json = http_get("/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pg_proxy_logins_total\""),
            std::string::npos);
}

TEST_F(WebTest, ServesTracePages) {
  // The login performed by start() recorded at least one span.
  const std::string listing = http_get("/traces");
  EXPECT_NE(listing.find("200 OK"), std::string::npos);
  EXPECT_NE(listing.find("/trace/"), std::string::npos);

  const auto recent = telemetry::Tracer::global().recent_traces(1);
  ASSERT_FALSE(recent.empty());
  std::ostringstream path;
  path << "/trace/" << std::hex << recent.front();
  const std::string page = http_get(path.str());
  EXPECT_NE(page.find("200 OK"), std::string::npos);
  EXPECT_NE(page.find("<table"), std::string::npos);

  EXPECT_NE(http_get("/trace/zzz").find("400"), std::string::npos);
  EXPECT_NE(http_get("/trace/1").find("404"), std::string::npos);
}

TEST_F(JobTest, RemoteSubmissionThroughControlProtocol) {
  // alice (home: siteA) submits a job whose ORIGIN is siteB's proxy; the
  // request travels over the GSSL tunnel as kJobSubmit and is re-authorized
  // at siteB under the realm key.
  auto& site_a = grid_->proxy("siteA");
  Result<std::uint64_t> job = site_a.submit_job_at(
      "siteB", "alice", *token_, "jobs-noop", 2, sched::Policy::kRoundRobin);
  ASSERT_TRUE(job.is_ok()) << job.status().to_string();

  // The job exists at siteB, not siteA.
  EXPECT_TRUE(grid_->proxy("siteB").job_info(job.value()).is_ok());
  EXPECT_FALSE(site_a.job_info(job.value()).is_ok());

  // Poll remotely until terminal.
  proxy::JobState state = proxy::JobState::kPending;
  for (int i = 0; i < 500; ++i) {
    Result<proxy::JobRecord> record =
        site_a.query_job_at("siteB", job.value());
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    state = record.value().state;
    if (state == proxy::JobState::kSucceeded ||
        state == proxy::JobState::kFailed)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, proxy::JobState::kSucceeded);
}

TEST_F(JobTest, RemoteSubmissionRejectedWithoutPermission) {
  auto token = grid_->login("siteA", "nojobs", "pw");
  ASSERT_TRUE(token.is_ok());
  Result<std::uint64_t> job = grid_->proxy("siteA").submit_job_at(
      "siteB", "nojobs", token.value(), "jobs-noop", 1,
      sched::Policy::kRoundRobin);
  EXPECT_FALSE(job.is_ok());
}

TEST(JobIds, FirstJobIdsDifferAcrossSites) {
  // Job ids carry a per-site salt, so one site's job id never names another
  // site's job.
  static const bool registered = [] {
    mpi::AppRegistry::instance().register_app(
        "job-ids-noop", [](mpi::Comm&) { return Status::ok(); });
    return true;
  }();
  (void)registered;
  grid::GridBuilder builder;
  builder.seed(6).key_bits(512);
  builder.add_nodes("siteA", 1).add_nodes("siteB", 1);
  builder.add_user("alice", "pw", {"mpi.run", "status.query", "job.submit"});
  auto built = builder.build();
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  std::unique_ptr<grid::Grid> grid = built.take();
  auto token = grid->login("siteA", "alice", "pw");
  ASSERT_TRUE(token.is_ok());

  std::vector<std::uint64_t> first_ids;
  for (const std::string site : {"siteA", "siteB"}) {
    Result<std::uint64_t> job = grid->proxy(site).submit_job(
        "alice", token.value(), "job-ids-noop", 1, sched::Policy::kRoundRobin);
    ASSERT_TRUE(job.is_ok()) << job.status().to_string();
    ASSERT_TRUE(grid->proxy(site).wait_job(job.value()).is_ok());
    first_ids.push_back(job.value());
  }
  EXPECT_NE(first_ids[0], first_ids[1]);
  EXPECT_FALSE(grid->proxy("siteB").job_info(first_ids[0]).is_ok());
}

TEST_F(JobTest, RemoteQueryUnknownJobFails) {
  EXPECT_FALSE(
      grid_->proxy("siteA").query_job_at("siteB", 123456789).is_ok());
}

}  // namespace
}  // namespace pg
