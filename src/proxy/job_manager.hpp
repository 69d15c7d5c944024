// Asynchronous batch-job management (paper layer 3 "Resource scheduling" +
// the job control the Grid API exposes).
//
// submit() returns immediately with a job id; a worker from the proxy's
// thread pool executes the job (scheduling + MPI launch) and records the
// outcome. Clients poll info() or block in wait() — the usual batch-queue
// interface 2003-era grid users expected. Finished records are kept for a
// bounded count, so a proxy that runs for months holds bounded state.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <condition_variable>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "proto/messages.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace pg::proxy {

/// kRetrying: the last attempt failed with a transient error (node died,
/// site unreachable) and the job is queued for re-dispatch through the
/// scheduler — surviving nodes get the re-placed ranks.
enum class JobState { kPending, kRunning, kSucceeded, kFailed, kRetrying };

const char* job_state_name(JobState state);

/// One execution attempt of a job, kept for post-mortems: why did attempt
/// N fail, and how long did it run?
struct JobAttempt {
  TimeMicros started_at = 0;
  TimeMicros finished_at = 0;
  Status outcome;
};

struct JobRecord {
  std::uint64_t job_id = 0;
  std::string user;
  std::string executable;
  std::uint32_t ranks = 0;
  sched::Policy policy = sched::Policy::kLoadBalanced;
  JobState state = JobState::kPending;
  Status outcome;
  std::vector<proto::RankPlacement> placements;
  TimeMicros submitted_at = 0;
  TimeMicros started_at = 0;  // first attempt's start
  TimeMicros finished_at = 0;
  /// Attempt budget; transient failures re-dispatch until it is spent.
  std::uint32_t max_attempts = 1;
  std::vector<JobAttempt> attempts;
};

class JobManager {
 public:
  /// Executes one job; returns its outcome and placements. Runs on a pool
  /// worker.
  struct RunOutcome {
    Status status;
    std::vector<proto::RankPlacement> placements;
  };
  using Runner = std::function<RunOutcome(const JobRecord&)>;

  /// Finished (succeeded or failed) records kept; past this the oldest
  /// finished record is dropped. Pending, running and retrying jobs are
  /// never dropped.
  static constexpr std::size_t kMaxFinishedJobs = 4096;

  /// Ids count up from `first_id`; a proxy salts it per site so job ids
  /// are distinct grid-wide. `site` labels the pg_jobs_retained gauge.
  JobManager(ThreadPool& pool, const Clock& clock, std::uint64_t first_id = 1,
             const std::string& site = "");
  ~JobManager();

  /// Enqueues a job; returns its id immediately. A job whose attempt fails
  /// with a transient error (kUnavailable, kDeadlineExceeded) moves to
  /// kRetrying and is re-dispatched until `max_attempts` is spent; every
  /// other failure is terminal on the first attempt.
  std::uint64_t submit(const std::string& user, const std::string& executable,
                       std::uint32_t ranks, sched::Policy policy,
                       Runner runner, std::uint32_t max_attempts = 1);

  /// kNotFound for an unknown id or a finished record already dropped.
  Result<JobRecord> info(std::uint64_t job_id) const;

  /// Blocks until the job reaches a terminal state or `timeout` passes.
  Result<JobRecord> wait(std::uint64_t job_id, TimeMicros timeout) const;

  /// wait() against an absolute deadline on the manager's clock, so
  /// callers composing several waits share one budget and can't block
  /// forever on a job whose site vanished. wait() delegates here.
  Result<JobRecord> wait_for(std::uint64_t job_id, TimeMicros deadline) const;

  /// All retained jobs, newest first.
  std::vector<JobRecord> list() const;

  std::size_t active_count() const;

 private:
  /// Queues one execution attempt on the pool; re-queues itself while the
  /// job keeps failing transiently with budget left.
  void dispatch_attempt(std::uint64_t job_id, Runner runner);

  /// Moves `job` to terminal `state` and drops the oldest finished record
  /// past kMaxFinishedJobs. Caller holds mutex_.
  void finish_locked(JobRecord& job, JobState state);

  ThreadPool& pool_;
  const Clock& clock_;
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::deque<std::uint64_t> finished_;  // finished job ids, oldest first
  std::uint64_t next_id_;
  telemetry::Gauge& retained_;  // records in jobs_, every manager of a site
};

}  // namespace pg::proxy
