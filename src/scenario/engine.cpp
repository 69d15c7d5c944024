#include "scenario/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "monitor/aggregator.hpp"
#include "proto/envelope.hpp"
#include "proxy/shard_ring.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "tls/record.hpp"

namespace pg::scenario {

namespace {

constexpr std::uint32_t kMaxDispatchAttempts = 4;

/// Per-envelope cost of one inter-site frame: the real envelope header
/// (measured, not assumed, so protocol growth is picked up automatically)
/// plus the GSSL record header and MAC.
std::size_t envelope_overhead_bytes() {
  proto::Envelope env;
  env.op = proto::OpCode::kMpiBatch;
  env.request_id = 1;
  return env.serialize().size() + tls::internal::kRecordHeaderSize +
         tls::internal::kMacSize;
}

struct NodeState {
  std::string name;
  double capacity = 1.0;
  double background_load = 0.0;
  bool alive = true;
  double available_at_s = 0;  // virtual seconds when the queue drains
  std::uint32_t queued_tasks = 0;
};

struct SiteState {
  std::string name;
  std::size_t index = 0;
  bool alive = true;
  /// Sharded proxy tier: a kKillProxy event on a site with more than one
  /// alive shard kills ONE shard (ring re-homes its nodes); the site only
  /// goes dark when the last shard dies.
  std::uint32_t shards_total = 1;
  std::uint32_t shards_alive = 1;
  double slow_factor = 1.0;  // kSlowSite scales effective capacity
  std::vector<NodeState> nodes;
  /// This proxy's view of the whole grid — the real component the real
  /// proxies use, fed by simulated report deliveries.
  std::unique_ptr<monitor::GridStatusCache> cache =
      std::make_unique<monitor::GridStatusCache>();
};

struct LinkState {
  sim::LinkProfile profile;
  bool alive = true;
  double bandwidth_factor = 1.0;
  /// Severed links re-handshake on heal; the link carries traffic again
  /// only from this time on.
  TimeMicros usable_from = 0;
  /// When the live session last issued a resumption ticket: the bring-up
  /// handshake at t=0, refreshed by every re-handshake. Heals within the
  /// ticket lifetime run the abbreviated handshake.
  TimeMicros ticket_issued_at = 0;

  sim::LinkProfile effective() const {
    sim::LinkProfile p = profile;
    p.bandwidth_mb_per_s *= bandwidth_factor;
    return p;
  }
  bool usable(TimeMicros now) const { return alive && now >= usable_from; }
};

struct MpiMessage {
  std::uint32_t src_rank = 0;
  std::uint32_t dst_rank = 0;
  std::uint32_t bytes = 0;
};

struct Job {
  std::uint64_t id = 0;
  TimeMicros arrival = 0;
  std::size_t origin = 0;  // site index
  std::vector<double> costs;  // one per rank
  std::vector<MpiMessage> messages;

  enum class State { kPending, kRunning, kDone, kFailed };
  State state = State::kPending;
  std::uint32_t attempts = 0;
  /// Bumped whenever the run is invalidated (node death); completion
  /// events carry the generation they were scheduled for and no-op when
  /// it moved on.
  std::uint64_t generation = 0;
  std::vector<std::pair<std::size_t, std::size_t>> placed;  // (site, node)
};

class Engine {
 public:
  Engine(const ScenarioConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed), rng_(seed) {}

  Result<ScenarioRun> run();

 private:
  // ---- setup
  Status build_topology();
  void build_jobs();
  Status schedule_timeline();
  void schedule_status_round(TimeMicros at);

  // ---- status plane
  proto::StatusReport build_report(const SiteState& site, TimeMicros now);
  void deliver_report(std::size_t from, std::size_t to,
                      std::shared_ptr<proto::StatusReport> report,
                      std::uint64_t bytes);

  // ---- job plane
  void dispatch(std::uint64_t job_id);
  void complete(std::uint64_t job_id, std::uint64_t generation);
  void fail_job(Job& job, const std::string& why);
  void abort_runs_on(std::size_t site_idx, int node_idx,
                     const std::string& why);
  double record_quality(const Job& job,
                        const std::vector<proto::RankPlacement>& placement,
                        double now_s);
  void account_mpi_traffic(const Job& job, TimeMicros& net_time_out);

  // ---- fault plane
  void apply_timeline_event(const TimelineEvent& event);
  LinkState* link(std::size_t a, std::size_t b);
  TimeMicros rehandshake_cost(LinkState& l, TimeMicros now);
  void set_partition(const std::vector<std::size_t>& group, bool severed,
                     TimeMicros usable_from);
  void start_probe(const std::string& label,
                   std::function<bool(TimeMicros)> converged);
  bool peer_can_reach(std::size_t from, std::size_t to);

  // ---- views
  std::vector<monitor::GridNode> cached_view(SiteState& origin);
  std::vector<monitor::GridNode> true_view(TimeMicros now) const;
  int site_index(const std::string& name) const;
  int node_index(const SiteState& site, const std::string& name) const;

  void log(const std::string& line) {
    event_log_.push_back("t=" + std::to_string(queue_.now()) + " " + line);
  }

  const ScenarioConfig& config_;
  const std::uint64_t seed_;
  Rng rng_;
  sim::EventQueue queue_;
  std::vector<SiteState> sites_;
  std::map<std::string, std::size_t> site_by_name_;
  std::map<std::pair<std::size_t, std::size_t>, LinkState> links_;
  /// Owns the recurring convergence-poll closures; the queued copies
  /// reference them by raw pointer, so the engine must outlive the queue
  /// (it does: both are members, queue drained in run()).
  std::vector<std::shared_ptr<std::function<void()>>> probes_;
  sim::LinkProfile intra_profile_;
  std::vector<Job> jobs_;
  sched::SchedulerPtr scheduler_;
  sched::SchedulerPtr oracle_;
  std::size_t envelope_overhead_ = envelope_overhead_bytes();
  ScenarioStats stats_;
  std::vector<std::string> event_log_;
  std::vector<double> completions_s_;
  double quality_sum_ = 0;
};

// ------------------------------------------------------------------ setup

Status Engine::build_topology() {
  const auto expanded = expand_topology(config_.topology, seed_);
  sites_.reserve(expanded.size());
  for (const ExpandedSite& spec : expanded) {
    SiteState site;
    site.name = spec.name;
    site.index = sites_.size();
    site.shards_total = site.shards_alive = std::max<std::uint32_t>(1, spec.shards);
    for (const ExpandedNode& node_spec : spec.nodes) {
      NodeState node;
      node.name = node_spec.name;
      node.capacity = node_spec.capacity;
      node.background_load = node_spec.background_load;
      site.nodes.push_back(std::move(node));
    }
    site_by_name_[site.name] = site.index;
    sites_.push_back(std::move(site));
  }
  if (sites_.size() < 2)
    return error(ErrorCode::kInvalidArgument,
                 "scenario: topology needs at least 2 sites");

  intra_profile_ = *sim::link_profile_by_name(config_.topology.intra_profile);
  const sim::LinkProfile inter =
      *sim::link_profile_by_name(config_.topology.inter_profile);
  for (std::size_t a = 0; a < sites_.size(); ++a) {
    for (std::size_t b = a + 1; b < sites_.size(); ++b) {
      links_[{a, b}] = LinkState{inter, true, 1.0, 0};
    }
  }
  for (const LinkOverride& o : config_.topology.overrides) {
    const int a = site_index(o.a), b = site_index(o.b);
    if (a < 0 || b < 0)
      return error(ErrorCode::kInvalidArgument,
                   "scenario: link override names unknown site " + o.a + "/" +
                       o.b);
    LinkState* l = link(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
    l->profile = *sim::link_profile_by_name(o.profile);
  }

  scheduler_ = sched::make_scheduler(config_.workload.policy);
  // The oracle always load-balances: it is "the best the real scheduler
  // family can do with perfect information", not a clairvoyant optimum.
  oracle_ = sched::make_load_balanced_scheduler();
  return Status::ok();
}

void Engine::build_jobs() {
  const Workload& wl = config_.workload;
  if (wl.jobs == 0) return;
  const auto arrivals =
      sim::generate_arrivals(wl.jobs, wl.arrival, rng_.next_u64());
  std::vector<double> costs;
  const std::size_t total_ranks_upper = wl.jobs * wl.ranks_max;
  if (wl.cost_dist == "pareto") {
    costs = sim::generate_pareto_task_costs(total_ranks_upper, wl.pareto_alpha,
                                            wl.pareto_x_min, wl.pareto_cap,
                                            rng_.next_u64());
  } else {
    costs = sim::generate_task_costs(total_ranks_upper, wl.cost_min,
                                     wl.cost_max, rng_.next_u64());
  }

  std::size_t cost_cursor = 0;
  for (std::size_t i = 0; i < wl.jobs; ++i) {
    Job job;
    job.id = i;
    job.arrival = arrivals[i];
    job.origin = rng_.next_below(sites_.size());
    const std::uint32_t ranks =
        wl.ranks_min +
        static_cast<std::uint32_t>(rng_.next_below(wl.ranks_max - wl.ranks_min + 1));
    for (std::uint32_t r = 0; r < ranks; ++r) {
      job.costs.push_back(costs[cost_cursor++ % costs.size()]);
    }
    for (std::uint32_t r = 0; r < ranks; ++r) {
      for (std::uint32_t m = 0; m < wl.messages_per_rank; ++m) {
        MpiMessage msg;
        msg.src_rank = r;
        msg.dst_rank =
            static_cast<std::uint32_t>(rng_.next_below(ranks));
        msg.bytes = wl.bytes_min + static_cast<std::uint32_t>(rng_.next_below(
                                       wl.bytes_max - wl.bytes_min + 1));
        job.messages.push_back(msg);
      }
    }
    jobs_.push_back(std::move(job));
  }

  for (const Job& job : jobs_) {
    if (job.arrival > config_.duration) continue;
    queue_.schedule_at(job.arrival, [this, id = job.id] { dispatch(id); });
  }
}

Status Engine::schedule_timeline() {
  for (const TimelineEvent& event : config_.timeline) {
    // Validate references eagerly: a typo'd site name must fail the run,
    // not silently no-op at virtual minute 7.
    for (const std::string& name : {event.site, event.link_a, event.link_b}) {
      if (!name.empty() && site_index(name) < 0)
        return error(ErrorCode::kInvalidArgument,
                     "scenario: timeline references unknown site " + name);
    }
    for (const std::string& name : event.group) {
      if (site_index(name) < 0)
        return error(ErrorCode::kInvalidArgument,
                     "scenario: partition group references unknown site " +
                         name);
    }
    if (!event.node.empty()) {
      const SiteState& site = sites_[static_cast<std::size_t>(site_index(event.site))];
      if (node_index(site, event.node) < 0)
        return error(ErrorCode::kInvalidArgument,
                     "scenario: timeline references unknown node " +
                         event.site + "/" + event.node);
    }
    for (std::uint32_t i = 0; i < event.repeat; ++i) {
      const TimeMicros at = event.at + static_cast<TimeMicros>(i) * event.period;
      if (at > config_.duration) break;
      queue_.schedule_at(at, "timeline",
                         [this, event] { apply_timeline_event(event); });
    }
  }
  return Status::ok();
}

// ----------------------------------------------------------- status plane

proto::StatusReport Engine::build_report(const SiteState& site,
                                         TimeMicros now) {
  proto::StatusReport report;
  report.site = site.name;
  report.timestamp = static_cast<std::uint64_t>(now);
  const double now_s = static_cast<double>(now) / kMicrosPerSecond;
  for (const NodeState& node : site.nodes) {
    if (!node.alive) continue;  // the site's collector drops dead nodes
    proto::NodeStatus status;
    status.name = node.name;
    status.cpu_capacity = node.capacity * site.slow_factor;
    status.cpu_load = std::min(1.0, node.background_load);
    status.ram_total_mb = 4096;
    status.ram_free_mb = 2048;
    status.disk_total_mb = 100000;
    status.disk_free_mb = 50000;
    status.running_processes =
        node.available_at_s > now_s ? node.queued_tasks : 0;
    status.timestamp = static_cast<std::uint64_t>(now);
    report.nodes.push_back(std::move(status));
  }
  return report;
}

void Engine::deliver_report(std::size_t from, std::size_t to,
                            std::shared_ptr<proto::StatusReport> report,
                            std::uint64_t bytes) {
  const LinkState* l = link(from, to);
  if (!l->usable(queue_.now())) return;
  const TimeMicros delay =
      l->effective().transfer_time(bytes + envelope_overhead_, true);
  queue_.schedule_after(delay, [this, to, report] {
    if (!sites_[to].alive) return;
    sites_[to].cache->update(*report, queue_.now());
  });
  ++stats_.status_messages;
  stats_.status_bytes += bytes + envelope_overhead_;
}

void Engine::schedule_status_round(TimeMicros at) {
  if (at > config_.duration) return;
  queue_.schedule_at(at, [this, at] {
    for (SiteState& site : sites_) {
      if (!site.alive) continue;
      auto report =
          std::make_shared<proto::StatusReport>(build_report(site, at));
      const std::uint64_t bytes = report->serialize().size();
      site.cache->update(*report, at);  // own view is always fresh
      for (SiteState& peer : sites_) {
        if (peer.index == site.index || !peer.alive) continue;
        deliver_report(site.index, peer.index, report, bytes);
      }
    }
    // Staleness expiry is the simulated death-detector: a site that
    // stopped reporting (dead proxy, severed link) ages out of every
    // peer's cache after status_max_age.
    for (SiteState& site : sites_) {
      if (site.alive) site.cache->expire(at, config_.status_max_age);
    }
    schedule_status_round(at + config_.status_interval);
  });
}

// -------------------------------------------------------------- job plane

std::vector<monitor::GridNode> Engine::cached_view(SiteState& origin) {
  // The real compile-global path, over whatever this proxy's cache holds.
  auto view = monitor::flatten(origin.cache->compile_global());
  // Sites currently unreachable from the origin are useless placement
  // targets even if their last report is fresh; the real origin proxy
  // would fail the kJobSubmit and retry elsewhere — model that by
  // filtering them out of the candidate set.
  std::erase_if(view, [&](const monitor::GridNode& node) {
    const int idx = site_index(node.site);
    if (idx < 0) return true;
    const std::size_t site_idx = static_cast<std::size_t>(idx);
    if (site_idx == origin.index) return false;
    return !link(origin.index, site_idx)->usable(queue_.now());
  });
  return view;
}

std::vector<monitor::GridNode> Engine::true_view(TimeMicros now) const {
  std::vector<monitor::GridNode> out;
  const double now_s = static_cast<double>(now) / kMicrosPerSecond;
  for (const SiteState& site : sites_) {
    if (!site.alive) continue;
    for (const NodeState& node : site.nodes) {
      if (!node.alive) continue;
      proto::NodeStatus status;
      status.name = node.name;
      status.cpu_capacity = node.capacity * site.slow_factor;
      status.cpu_load = std::min(1.0, node.background_load);
      status.ram_total_mb = 4096;
      status.ram_free_mb = 2048;
      status.running_processes =
          node.available_at_s > now_s ? node.queued_tasks : 0;
      out.push_back(monitor::GridNode{site.name, std::move(status)});
    }
  }
  return out;
}

double Engine::record_quality(const Job& job,
                              const std::vector<proto::RankPlacement>& placement,
                              double now_s) {
  // Modelled completion of `placement` vs. the oracle's placement, both
  // priced with the engine's own execution formula over the true state.
  auto price = [&](const std::vector<proto::RankPlacement>& p) {
    std::map<std::pair<std::size_t, std::size_t>, double> available;
    double finish = now_s;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const int s = site_index(p[i].site);
      if (s < 0) return -1.0;
      const SiteState& site = sites_[static_cast<std::size_t>(s)];
      const int n = node_index(site, p[i].node);
      if (n < 0) return -1.0;
      const NodeState& node = site.nodes[static_cast<std::size_t>(n)];
      const auto key = std::make_pair(static_cast<std::size_t>(s),
                                      static_cast<std::size_t>(n));
      auto [it, inserted] = available.try_emplace(
          key, std::max(node.available_at_s, now_s));
      const double capacity = std::max(
          1e-9, node.capacity * site.slow_factor * (1.0 - node.background_load));
      it->second += job.costs[i] / capacity;
      finish = std::max(finish, it->second);
    }
    return finish - now_s;
  };

  const double actual = price(placement);
  auto oracle_placement =
      oracle_->assign(true_view(queue_.now()),
                      static_cast<std::uint32_t>(job.costs.size()), {});
  if (actual < 0 || !oracle_placement.is_ok()) return 1.0;
  const double ideal = price(oracle_placement.value());
  if (ideal <= 0 || actual <= 0) return 1.0;
  const double ratio = actual / ideal;
  quality_sum_ += ratio;
  ++stats_.placement_samples;
  stats_.placement_worst_quality =
      std::max(stats_.placement_worst_quality, ratio);
  return ratio;
}

void Engine::account_mpi_traffic(const Job& job, TimeMicros& net_time_out) {
  // Group rank->rank messages by (src site, dst site). Intra-site frames
  // ride the LAN without inter-proxy envelopes; inter-site frames are
  // priced both naive (one envelope per message) and batched (the
  // kMpiBatch flush window), which is where the savings stat comes from.
  // On top of that rides the reliable-delivery model: envelopes are
  // dropped with data_plane.drop_rate and retransmitted on an
  // exponentially backed-off RTO, and small payloads are carved onto the
  // latency lane so they don't queue behind bulk transfers.
  struct PairTraffic {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t latency_messages = 0;
    std::uint64_t latency_bytes = 0;
  };
  const DataPlaneModel& dp = config_.data_plane;
  std::map<std::pair<std::size_t, std::size_t>, PairTraffic> by_pair;
  for (const MpiMessage& msg : job.messages) {
    const auto& src = job.placed[msg.src_rank];
    const auto& dst = job.placed[msg.dst_rank];
    ++stats_.mpi_messages;
    stats_.mpi_bytes += msg.bytes;
    if (src.first == dst.first) continue;
    ++stats_.mpi_inter_site_messages;
    PairTraffic& t = by_pair[{src.first, dst.first}];
    ++t.messages;
    t.bytes += msg.bytes;
    if (msg.bytes <= dp.latency_lane_bytes) {
      ++t.latency_messages;
      t.latency_bytes += msg.bytes;
    }
  }

  net_time_out = 0;
  for (const auto& [pair, traffic] : by_pair) {
    const std::uint64_t batched =
        (traffic.messages + config_.batch_window_messages - 1) /
        config_.batch_window_messages;
    stats_.envelopes_unbatched += traffic.messages;
    stats_.envelopes_batched += batched;
    const std::uint64_t saved_envelopes = traffic.messages - batched;
    stats_.wire_bytes_saved += saved_envelopes * envelope_overhead_;
    stats_.crypto_bytes_saved += saved_envelopes * envelope_overhead_;
    stats_.lane_latency_frames += traffic.latency_messages;
    stats_.lane_bulk_frames += traffic.messages - traffic.latency_messages;

    // Reliable delivery: each envelope independently survives or is
    // retransmitted until it gets through. Envelopes retransmit in
    // parallel, so the pair waits out only the worst envelope's backoff
    // chain; every retransmitted copy still costs wire and crypto bytes.
    std::uint64_t retransmits = 0;
    TimeMicros worst_wait = 0;
    const std::uint64_t payload_per_envelope = traffic.bytes / batched;
    if (dp.drop_rate > 0) {
      for (std::uint64_t e = 0; e < batched; ++e) {
        TimeMicros wait = 0;
        TimeMicros rto = dp.ack_rto_initial;
        std::uint32_t attempts = 0;
        while (attempts < 16 && rng_.next_double() < dp.drop_rate) {
          ++attempts;
          wait += rto;
          rto = std::min(dp.ack_rto_max, rto * 2);
        }
        retransmits += attempts;
        worst_wait = std::max(worst_wait, wait);
      }
      stats_.mpi_retransmits += retransmits;
      stats_.mpi_retransmit_wait += worst_wait;
    }

    const LinkState* l = link(pair.first, pair.second);
    sim::TrafficSummary summary;
    summary.messages = batched + retransmits;
    summary.bytes = traffic.bytes + summary.messages * envelope_overhead_ +
                    retransmits * payload_per_envelope;
    summary.crypto_bytes = summary.bytes;
    net_time_out = std::max(
        net_time_out,
        sim::modelled_time(summary, l->effective()) + worst_wait);

    // Lane QoS: price the latency-lane frames alone vs. serialized
    // behind the pair's whole transfer — the difference is head-of-line
    // blocking the lane split removed for this job's small frames.
    if (traffic.latency_messages > 0 &&
        traffic.latency_messages < traffic.messages) {
      const std::uint64_t lat_batched =
          (traffic.latency_messages + config_.batch_window_messages - 1) /
          config_.batch_window_messages;
      sim::TrafficSummary lat;
      lat.messages = lat_batched;
      lat.bytes = traffic.latency_bytes + lat_batched * envelope_overhead_;
      lat.crypto_bytes = lat.bytes;
      const TimeMicros alone = sim::modelled_time(lat, l->effective());
      const TimeMicros serialized =
          sim::modelled_time(summary, l->effective());
      if (serialized > alone) {
        stats_.lane_wait_saved_s +=
            static_cast<double>(serialized - alone) / kMicrosPerSecond;
      }
    }
  }
}

void Engine::dispatch(std::uint64_t job_id) {
  Job& job = jobs_[job_id];
  if (job.state == Job::State::kDone || job.state == Job::State::kFailed)
    return;
  if (job.attempts == 0) ++stats_.jobs_submitted;
  ++job.attempts;

  SiteState& origin = sites_[job.origin];
  if (!origin.alive) {
    fail_job(job, "origin proxy down");
    return;
  }

  const auto view = cached_view(origin);
  const std::uint32_t ranks = static_cast<std::uint32_t>(job.costs.size());
  auto placement = scheduler_->assign(view, ranks, {});

  // Validate the placement against reality: stale cache entries place
  // ranks on dead nodes or across dead links. The origin only learns at
  // dispatch time (submit RPC fails / times out) and retries.
  bool valid = placement.is_ok();
  if (valid) {
    for (const proto::RankPlacement& p : placement.value()) {
      const int s = site_index(p.site);
      if (s < 0) {
        valid = false;
        break;
      }
      const SiteState& site = sites_[static_cast<std::size_t>(s)];
      const int n = node_index(site, p.node);
      if (!site.alive || n < 0 ||
          !site.nodes[static_cast<std::size_t>(n)].alive ||
          (site.index != origin.index &&
           !link(origin.index, site.index)->usable(queue_.now()))) {
        valid = false;
        break;
      }
    }
  }
  if (!valid) {
    if (job.attempts >= kMaxDispatchAttempts) {
      fail_job(job, "no valid placement after " +
                        std::to_string(job.attempts) + " attempts");
      return;
    }
    ++stats_.jobs_redispatched;
    // Failed submit detected after one control round-trip on the worst
    // involved link, then retried after the next status refresh so the
    // cache has a chance to catch up.
    const TimeMicros delay = config_.status_interval + 2 * intra_profile_.latency;
    log("job " + std::to_string(job.id) + " redispatch attempt=" +
        std::to_string(job.attempts + 1));
    queue_.schedule_after(delay, [this, job_id] { dispatch(job_id); });
    return;
  }

  // Price the chosen placement against the oracle on the *pre-commit*
  // node state — committing first would double-count the job's own work.
  const double now_s = static_cast<double>(queue_.now()) / kMicrosPerSecond;
  record_quality(job, placement.value(), now_s);

  // Commit the placement: queue work on the real node states.
  job.state = Job::State::kRunning;
  job.placed.clear();
  double finish_s = now_s;
  for (std::size_t i = 0; i < placement.value().size(); ++i) {
    const proto::RankPlacement& p = placement.value()[i];
    const std::size_t s = static_cast<std::size_t>(site_index(p.site));
    SiteState& site = sites_[s];
    const std::size_t n =
        static_cast<std::size_t>(node_index(site, p.node));
    NodeState& node = site.nodes[n];
    const double capacity = std::max(
        1e-9, node.capacity * site.slow_factor * (1.0 - node.background_load));
    const double start = std::max(node.available_at_s, now_s);
    node.available_at_s = start + job.costs[i] / capacity;
    ++node.queued_tasks;
    finish_s = std::max(finish_s, node.available_at_s);
    job.placed.emplace_back(s, n);
  }

  TimeMicros net_time = 0;
  account_mpi_traffic(job, net_time);

  const TimeMicros finish =
      static_cast<TimeMicros>(std::llround(finish_s * kMicrosPerSecond)) +
      net_time;
  log("job " + std::to_string(job.id) + " dispatched ranks=" +
      std::to_string(ranks) + " attempt=" + std::to_string(job.attempts));
  queue_.schedule_at(std::max(finish, queue_.now() + 1),
                     [this, job_id, generation = job.generation] {
                       complete(job_id, generation);
                     });
}

void Engine::complete(std::uint64_t job_id, std::uint64_t generation) {
  Job& job = jobs_[job_id];
  if (job.state != Job::State::kRunning || job.generation != generation)
    return;
  job.state = Job::State::kDone;
  for (const auto& [s, n] : job.placed) {
    NodeState& node = sites_[s].nodes[n];
    if (node.queued_tasks > 0) --node.queued_tasks;
  }
  ++stats_.jobs_completed;
  completions_s_.push_back(
      static_cast<double>(queue_.now() - job.arrival) / kMicrosPerSecond);
  log("job " + std::to_string(job.id) + " complete");
}

void Engine::fail_job(Job& job, const std::string& why) {
  job.state = Job::State::kFailed;
  ++stats_.jobs_failed;
  log("job " + std::to_string(job.id) + " failed: " + why);
}

void Engine::abort_runs_on(std::size_t site_idx, int node_idx,
                           const std::string& why) {
  for (Job& job : jobs_) {
    if (job.state != Job::State::kRunning) continue;
    bool hit = false;
    for (const auto& [s, n] : job.placed) {
      if (s == site_idx && (node_idx < 0 ||
                            n == static_cast<std::size_t>(node_idx))) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;
    // Work already queued on surviving nodes stays queued (it really was
    // burned); the job itself restarts from scratch once the origin's
    // death-detection notices.
    ++job.generation;
    job.state = Job::State::kPending;
    job.placed.clear();
    ++stats_.jobs_redispatched;
    log("job " + std::to_string(job.id) + " aborted: " + why);
    queue_.schedule_after(config_.status_max_age,
                          [this, id = job.id] { dispatch(id); });
  }
}

// ------------------------------------------------------------ fault plane

LinkState* Engine::link(std::size_t a, std::size_t b) {
  return &links_.at({std::min(a, b), std::max(a, b)});
}

TimeMicros Engine::rehandshake_cost(LinkState& l, TimeMicros now) {
  // A healed link redoes the GSSL handshake before carrying traffic. With
  // a fresh-enough resumption ticket that is one round trip (abbreviated
  // handshake, no RSA); otherwise two (full handshake). Either way the new
  // session leaves a refreshed ticket behind for the next flap.
  const TimeMicros full = 4 * l.profile.latency;
  const TimeMicros resumed = 2 * l.profile.latency;
  const bool resumable =
      config_.session_resumption &&
      now - l.ticket_issued_at <= config_.resumption_ticket_lifetime;
  l.ticket_issued_at = now;
  if (!resumable) {
    ++stats_.handshakes_full;
    return full;
  }
  ++stats_.handshakes_resumed;
  stats_.handshake_wait_saved += full - resumed;
  return resumed;
}

void Engine::set_partition(const std::vector<std::size_t>& group,
                           bool severed, TimeMicros heal_time) {
  std::set<std::size_t> members(group.begin(), group.end());
  for (auto& [key, l] : links_) {
    const bool a_in = members.count(key.first) > 0;
    const bool b_in = members.count(key.second) > 0;
    if (a_in == b_in) continue;  // same side
    l.alive = !severed;
    if (!severed) l.usable_from = heal_time + rehandshake_cost(l, heal_time);
  }
}

bool Engine::peer_can_reach(std::size_t from, std::size_t to) {
  if (from == to) return true;
  return link(from, to)->usable(queue_.now());
}

void Engine::start_probe(const std::string& label,
                         std::function<bool(TimeMicros)> converged) {
  const TimeMicros started = queue_.now();
  const std::size_t slot = stats_.recoveries.size();
  stats_.recoveries.push_back(RecoveryRecord{label, started, -1});
  auto poll = std::make_shared<std::function<void()>>();
  probes_.push_back(poll);  // keeps the closure alive; see probes_ docs
  *poll = [this, label, started, slot, converged = std::move(converged),
           poll_raw = poll.get()]() {
    if (converged(queue_.now())) {
      stats_.recoveries[slot].convergence = queue_.now() - started;
      log("recovery " + label + " converged_us=" +
          std::to_string(queue_.now() - started));
      return;
    }
    if (queue_.now() + config_.status_interval > config_.duration) return;
    queue_.schedule_after(config_.status_interval, *poll_raw);
  };
  queue_.schedule_after(config_.status_interval, *poll);
}

void Engine::apply_timeline_event(const TimelineEvent& event) {
  const TimeMicros now = queue_.now();
  switch (event.op) {
    case TimelineEvent::Op::kKillNode: {
      const std::size_t s = static_cast<std::size_t>(site_index(event.site));
      SiteState& site = sites_[s];
      const std::size_t n =
          static_cast<std::size_t>(node_index(site, event.node));
      if (!site.nodes[n].alive) break;
      site.nodes[n].alive = false;
      log("timeline kill_node " + event.site + "/" + event.node);
      abort_runs_on(s, static_cast<int>(n), "node death");
      // Converged when every live proxy's view of this site post-dates
      // the kill (the site's own collector stopped listing the node).
      start_probe("kill_node " + event.site + "/" + event.node,
                  [this, s, now](TimeMicros) {
                    for (const SiteState& p : sites_) {
                      if (!p.alive) continue;
                      // A proxy cut off from the site cannot learn; only
                      // reachable peers gate convergence.
                      if (!peer_can_reach(p.index, s)) continue;
                      const auto report = p.cache->get(sites_[s].name);
                      if (!report ||
                          report->timestamp <= static_cast<std::uint64_t>(now))
                        return false;
                    }
                    return true;
                  });
      if (event.duration > 0) {
        queue_.schedule_after(
            event.duration, "timeline", [this, s, node_idx = n, event] {
              NodeState& node = sites_[s].nodes[node_idx];
              node.alive = true;
              node.available_at_s = 0;
              node.queued_tasks = 0;
              log("timeline restart_node " + event.site + "/" + event.node);
            });
      }
      break;
    }
    case TimelineEvent::Op::kKillProxy: {
      const std::size_t s = static_cast<std::size_t>(site_index(event.site));
      if (!sites_[s].alive) break;
      if (sites_[s].shards_alive > 1) {
        // One shard of the site's proxy tier dies, not the whole site:
        // the consistent-hash ring re-homes the virtual slaves the dead
        // shard owned onto the survivors after a re-attach window.
        SiteState& site = sites_[s];
        const std::string dead =
            proxy::shard_name(site.name, site.shards_alive - 1);
        const proxy::ShardRing ring =
            proxy::ShardRing::for_site(site.name, site.shards_alive);
        site.shards_alive -= 1;
        stats_.shard_kills += 1;
        log("timeline kill_shard " + dead);
        std::vector<std::size_t> orphaned;
        for (std::size_t n = 0; n < site.nodes.size(); ++n) {
          if (!site.nodes[n].alive) continue;
          if (ring.owner(site.nodes[n].name) != dead) continue;
          site.nodes[n].alive = false;
          orphaned.push_back(n);
          abort_runs_on(s, static_cast<int>(n), "shard death");
        }
        // Survivors pick the orphans up one status interval later
        // (death detection + fresh channel + re-attach).
        const TimeMicros rehomed_at = now + config_.status_interval;
        queue_.schedule_after(
            config_.status_interval, "timeline", [this, s, orphaned, dead] {
              for (const std::size_t n : orphaned) {
                NodeState& node = sites_[s].nodes[n];
                node.alive = true;
                node.available_at_s = 0;
                node.queued_tasks = 0;
                stats_.shard_rehomes += 1;
              }
              log("timeline rehome_shard " + dead + " nodes=" +
                  std::to_string(orphaned.size()));
            });
        // Converged when every reachable peer's view of the site
        // post-dates the re-home (the full node set is advertised again).
        start_probe("kill_shard " + dead, [this, s, rehomed_at](TimeMicros) {
          for (const SiteState& p : sites_) {
            if (!p.alive) continue;
            if (!peer_can_reach(p.index, s)) continue;
            const auto report = p.cache->get(sites_[s].name);
            if (!report ||
                report->timestamp <= static_cast<std::uint64_t>(rehomed_at))
              return false;
          }
          return true;
        });
        if (event.duration > 0) {
          queue_.schedule_after(event.duration, "timeline", [this, s] {
            SiteState& revive = sites_[s];
            if (revive.shards_alive < revive.shards_total) {
              revive.shards_alive += 1;
              log("timeline restart_shard " +
                  proxy::shard_name(revive.name, revive.shards_alive - 1));
            }
          });
        }
        break;
      }
      sites_[s].alive = false;
      log("timeline kill_proxy " + event.site);
      abort_runs_on(s, -1, "site death");
      // Converged when every other live proxy expired the dead site.
      start_probe("kill_proxy " + event.site, [this, s](TimeMicros) {
        for (const SiteState& p : sites_) {
          if (!p.alive || p.index == s) continue;
          if (p.cache->get(sites_[s].name)) return false;
        }
        return true;
      });
      if (event.duration > 0) {
        queue_.schedule_after(event.duration, "timeline", [this, s, event] {
          sites_[s].alive = true;
          sites_[s].cache = std::make_unique<monitor::GridStatusCache>();
          for (NodeState& node : sites_[s].nodes) {
            node.available_at_s = 0;
            node.queued_tasks = 0;
          }
          log("timeline restart_proxy " + event.site);
        });
      }
      break;
    }
    case TimelineEvent::Op::kSeverLink: {
      const std::size_t a = static_cast<std::size_t>(site_index(event.link_a));
      const std::size_t b = static_cast<std::size_t>(site_index(event.link_b));
      LinkState* l = link(a, b);
      if (!l->alive) break;
      l->alive = false;
      log("timeline sever_link " + event.link_a + "-" + event.link_b);
      if (event.duration > 0) {
        queue_.schedule_after(event.duration, "timeline", [this, a, b,
                                                           event] {
          LinkState* heal = link(a, b);
          heal->alive = true;
          heal->usable_from =
              queue_.now() + rehandshake_cost(*heal, queue_.now());
          const TimeMicros healed = queue_.now();
          log("timeline heal_link " + event.link_a + "-" + event.link_b);
          start_probe(
              "heal_link " + event.link_a + "-" + event.link_b,
              [this, a, b, healed](TimeMicros) {
                const auto ra = sites_[a].cache->get(sites_[b].name);
                const auto rb = sites_[b].cache->get(sites_[a].name);
                return ra && rb &&
                       ra->timestamp > static_cast<std::uint64_t>(healed) &&
                       rb->timestamp > static_cast<std::uint64_t>(healed);
              });
        });
      }
      break;
    }
    case TimelineEvent::Op::kPartition: {
      std::vector<std::size_t> group;
      for (const std::string& name : event.group) {
        group.push_back(static_cast<std::size_t>(site_index(name)));
      }
      set_partition(group, true, 0);
      log("timeline partition size=" + std::to_string(group.size()));
      if (event.duration > 0) {
        queue_.schedule_after(event.duration, "timeline", [this, group,
                                                           event] {
          const TimeMicros healed = queue_.now();
          set_partition(group, false, healed);
          log("timeline heal_partition size=" +
              std::to_string(group.size()));
          std::set<std::size_t> members(group.begin(), group.end());
          start_probe("heal_partition", [this, members, healed](TimeMicros) {
            for (const SiteState& p : sites_) {
              if (!p.alive) continue;
              const bool p_in = members.count(p.index) > 0;
              for (const SiteState& q : sites_) {
                if (!q.alive || q.index == p.index) continue;
                if ((members.count(q.index) > 0) == p_in) continue;
                const auto report = p.cache->get(q.name);
                if (!report ||
                    report->timestamp <= static_cast<std::uint64_t>(healed))
                  return false;
              }
            }
            return true;
          });
        });
      }
      break;
    }
    case TimelineEvent::Op::kDegradeLink: {
      const std::size_t a = static_cast<std::size_t>(site_index(event.link_a));
      const std::size_t b = static_cast<std::size_t>(site_index(event.link_b));
      link(a, b)->bandwidth_factor = event.factor;
      log("timeline degrade_link " + event.link_a + "-" + event.link_b);
      if (event.duration > 0) {
        queue_.schedule_after(event.duration, "timeline", [this, a, b, event] {
          link(a, b)->bandwidth_factor = 1.0;
          log("timeline restore_link " + event.link_a + "-" + event.link_b);
        });
      }
      break;
    }
    case TimelineEvent::Op::kSlowSite: {
      const std::size_t s = static_cast<std::size_t>(site_index(event.site));
      sites_[s].slow_factor = event.factor;
      log("timeline slow_site " + event.site);
      if (event.duration > 0) {
        queue_.schedule_after(event.duration, "timeline", [this, s, event] {
          sites_[s].slow_factor = 1.0;
          log("timeline restore_site " + event.site);
        });
      }
      break;
    }
  }
}

// ----------------------------------------------------------------- views

int Engine::site_index(const std::string& name) const {
  const auto it = site_by_name_.find(name);
  return it == site_by_name_.end() ? -1 : static_cast<int>(it->second);
}

int Engine::node_index(const SiteState& site, const std::string& name) const {
  for (std::size_t i = 0; i < site.nodes.size(); ++i) {
    if (site.nodes[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// ------------------------------------------------------------------- run

Result<ScenarioRun> Engine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  // Labeled events (the scripted timeline) surface in the event log even
  // when their handler turns out to be a no-op (e.g. killing an
  // already-dead node), so two runs diverge loudly at the first
  // scheduling difference, not at the first visible state difference.
  queue_.set_observer([this](TimeMicros, const std::string& label) {
    if (!label.empty()) log("fire " + label);
  });
  PG_RETURN_IF_ERROR(build_topology());
  build_jobs();
  PG_RETURN_IF_ERROR(schedule_timeline());
  schedule_status_round(0);

  stats_.events_executed = queue_.run(config_.duration);
  // Past the horizon no new status rounds, timeline entries or probes are
  // scheduled; draining the queue lets in-flight jobs (completions,
  // capped redispatch chains) finish instead of vanishing mid-run.
  stats_.events_executed += queue_.run();
  stats_.virtual_end = queue_.now();

  if (!completions_s_.empty()) {
    double total = 0;
    for (double c : completions_s_) total += c;
    stats_.mean_completion_s =
        total / static_cast<double>(completions_s_.size());
    std::sort(completions_s_.begin(), completions_s_.end());
    stats_.p95_completion_s = completions_s_[static_cast<std::size_t>(
        std::min(completions_s_.size() - 1,
                 static_cast<std::size_t>(
                     0.95 * static_cast<double>(completions_s_.size()))))];
  }
  if (stats_.placement_samples > 0) {
    stats_.placement_mean_quality =
        quality_sum_ / static_cast<double>(stats_.placement_samples);
  }

  std::string log_blob;
  for (const std::string& line : event_log_) {
    log_blob += line;
    log_blob += '\n';
  }
  stats_.event_log_sha256 = hex_encode(crypto::sha256(to_bytes(log_blob)));
  stats_.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count() /
      1000.0;

  ScenarioRun result;
  result.stats = std::move(stats_);
  result.assertions =
      evaluate_assertions(config_.assertions, result.stats);
  result.event_log = std::move(event_log_);
  return result;
}

}  // namespace

Result<ScenarioRun> run_scenario(const ScenarioConfig& config,
                                 std::uint64_t seed) {
  return Engine(config, seed).run();
}

}  // namespace pg::scenario
