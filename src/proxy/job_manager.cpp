#include "proxy/job_manager.hpp"

#include <chrono>
#include <thread>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace pg::proxy {

namespace {

telemetry::Counter& jobs_counter(const char* state) {
  return telemetry::MetricRegistry::global().counter(
      "pg_proxy_jobs_total", "Batch jobs by terminal state",
      {{"state", state}});
}

telemetry::Counter& redispatch_counter() {
  return telemetry::MetricRegistry::global().counter(
      "pg_job_redispatch_total",
      "Job attempts re-dispatched after a transient failure");
}

/// Only infrastructure failures earn another attempt; an application that
/// exits non-zero would fail identically anywhere it runs.
bool is_retryable(const Status& status) {
  return status.code() == ErrorCode::kUnavailable ||
         status.code() == ErrorCode::kDeadlineExceeded;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
    case JobState::kRetrying: return "retrying";
  }
  return "unknown";
}

JobManager::JobManager(ThreadPool& pool, const Clock& clock,
                       std::uint64_t first_id, const std::string& site)
    : pool_(pool),
      clock_(clock),
      next_id_(first_id),
      retained_(telemetry::MetricRegistry::global().gauge(
          "pg_jobs_retained",
          "Job records a proxy keeps: every unfinished job plus the newest "
          "finished ones",
          {{"site", site}})) {}

JobManager::~JobManager() {
  std::lock_guard<std::mutex> lock(mutex_);
  retained_.add(-static_cast<std::int64_t>(jobs_.size()));
}

void JobManager::finish_locked(JobRecord& job, JobState state) {
  job.state = state;
  job.finished_at = clock_.now();
  finished_.push_back(job.job_id);
  if (finished_.size() > kMaxFinishedJobs) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
    retained_.add(-1);
  }
}

std::uint64_t JobManager::submit(const std::string& user,
                                 const std::string& executable,
                                 std::uint32_t ranks, sched::Policy policy,
                                 Runner runner, std::uint32_t max_attempts) {
  JobRecord record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    record.job_id = next_id_++;
    record.user = user;
    record.executable = executable;
    record.ranks = ranks;
    record.policy = policy;
    record.state = JobState::kPending;
    record.submitted_at = clock_.now();
    record.max_attempts = max_attempts == 0 ? 1 : max_attempts;
    jobs_[record.job_id] = record;
    retained_.add(1);
  }
  const std::uint64_t job_id = record.job_id;
  jobs_counter("submitted").increment();

  // Capture the submitter's trace context so every attempt's execution
  // span parents to the submitting operation, not to whatever the worker
  // ran last.
  const telemetry::TraceContext submit_ctx = telemetry::Tracer::current();
  Runner traced = [job_id, submit_ctx,
                   runner = std::move(runner)](const JobRecord& snapshot) {
    telemetry::ScopedTraceContext trace_scope(submit_ctx);
    telemetry::Span span =
        telemetry::Tracer::global().start_span("job.execute");
    span.set_note("job " + std::to_string(job_id) + " attempt " +
                  std::to_string(snapshot.attempts.size() + 1));
    RunOutcome outcome = runner(snapshot);
    span.set_ok(outcome.status.is_ok());
    return outcome;
  };

  dispatch_attempt(job_id, std::move(traced));
  return job_id;
}

void JobManager::dispatch_attempt(std::uint64_t job_id, Runner runner) {
  const bool queued = pool_.submit([this, job_id,
                                    runner = std::move(runner)]() mutable {
    JobRecord snapshot;
    TimeMicros attempt_started = 0;
    bool is_retry = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      is_retry = !jobs_[job_id].attempts.empty();
    }
    // A re-dispatch races death detection: the failure that queued it
    // often arrives (via a 143 exit or MpiAbort) milliseconds before the
    // dead node's link EOFs and drops it from the status view. Yield that
    // window, or the retry re-schedules onto the corpse.
    if (is_retry)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      JobRecord& job = jobs_[job_id];
      job.state = JobState::kRunning;
      attempt_started = clock_.now();
      if (job.started_at == 0) job.started_at = attempt_started;
      snapshot = job;
    }
    changed_.notify_all();

    const RunOutcome outcome = runner(snapshot);

    bool retry = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      JobRecord& job = jobs_[job_id];
      job.attempts.push_back(
          JobAttempt{attempt_started, clock_.now(), outcome.status});
      job.placements = outcome.placements;
      job.outcome = outcome.status;
      retry = !outcome.status.is_ok() && is_retryable(outcome.status) &&
              job.attempts.size() < job.max_attempts;
      if (retry) {
        job.state = JobState::kRetrying;
      } else {
        finish_locked(job, outcome.status.is_ok() ? JobState::kSucceeded
                                                  : JobState::kFailed);
      }
    }
    changed_.notify_all();

    if (retry) {
      jobs_counter("retried").increment();
      redispatch_counter().increment();
      dispatch_attempt(job_id, std::move(runner));
    } else {
      jobs_counter(outcome.status.is_ok() ? "succeeded" : "failed")
          .increment();
    }
  });

  if (!queued) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      JobRecord& job = jobs_[job_id];
      job.outcome = error(ErrorCode::kUnavailable, "proxy shutting down");
      finish_locked(job, JobState::kFailed);
    }
    changed_.notify_all();
  }
}

Result<JobRecord> JobManager::info(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    return error(ErrorCode::kNotFound,
                 "no job " + std::to_string(job_id));
  return it->second;
}

Result<JobRecord> JobManager::wait(std::uint64_t job_id,
                                   TimeMicros timeout) const {
  return wait_for(job_id, clock_.now() + timeout);
}

Result<JobRecord> JobManager::wait_for(std::uint64_t job_id,
                                       TimeMicros deadline) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end())
    return error(ErrorCode::kNotFound,
                 "no job " + std::to_string(job_id));

  // The deadline is absolute on the manager's clock; convert to a relative
  // wait once so a manual test clock behaves like the wall clock here.
  const TimeMicros remaining = deadline - clock_.now();
  // A finished record can be dropped before this waiter wakes; that ends
  // the wait too, with kNotFound.
  const bool terminal = changed_.wait_for(
      lock, std::chrono::microseconds(remaining > 0 ? remaining : 0),
      [this, job_id] {
        const auto job = jobs_.find(job_id);
        return job == jobs_.end() ||
               job->second.state == JobState::kSucceeded ||
               job->second.state == JobState::kFailed;
      });
  if (!terminal)
    return error(ErrorCode::kDeadlineExceeded,
                 "job " + std::to_string(job_id) + " still running");
  const auto job = jobs_.find(job_id);
  if (job == jobs_.end())
    return error(ErrorCode::kNotFound,
                 "no job " + std::to_string(job_id));
  return job->second;
}

std::vector<JobRecord> JobManager::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> out;
  out.reserve(jobs_.size());
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::size_t JobManager::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t active = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::kPending || job.state == JobState::kRunning ||
        job.state == JobState::kRetrying)
      ++active;
  }
  return active;
}

}  // namespace pg::proxy
