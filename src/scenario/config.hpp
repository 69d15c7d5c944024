// Declarative scenario configuration (docs/SIMULATION.md has the schema).
//
// A scenario is topology + workload + timeline + assertions. Topology site
// entries are generative — `{"count": 50, "nodes": 20, ...}` expands into
// 50 sites of 20 nodes with seeded heterogeneity — which is what makes the
// committed corpus a *generator* of scenario diversity rather than a pile
// of hand-enumerated node lists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "sched/scheduler.hpp"
#include "sim/network_model.hpp"
#include "sim/workload.hpp"

namespace pg::scenario {

/// One expandable topology entry: explicit (`name`) or generated
/// (`count` sites named `<prefix><index>`).
struct SiteGroup {
  std::string name;           // explicit site name (count == 1 implied)
  std::string prefix = "site";
  std::size_t count = 1;
  std::size_t nodes = 4;
  /// Proxy shards serving each site of the group (consistent-hash
  /// scale-out; 1 = the classic single proxy).
  std::uint32_t shards = 1;
  double capacity_min = 1.0;  // node speeds uniform in [min, max], seeded
  double capacity_max = 1.0;
  double load_min = 0.0;      // background load uniform in [min, max]
  double load_max = 0.2;
};

/// Link-profile override for a specific site pair (defaults come from
/// Topology::inter_profile).
struct LinkOverride {
  std::string a;
  std::string b;
  std::string profile;
};

struct Topology {
  std::vector<SiteGroup> groups;
  std::string intra_profile = "lan";
  std::string inter_profile = "wan";
  std::vector<LinkOverride> overrides;
};

struct Workload {
  std::size_t jobs = 100;
  sim::ArrivalSpec arrival;
  /// Task cost distribution: "uniform" in [cost_min, cost_max] or
  /// "pareto" (alpha/x_min/cap; see sim::generate_pareto_task_costs).
  std::string cost_dist = "uniform";
  double cost_min = 0.5;
  double cost_max = 2.0;
  double pareto_alpha = 1.5;
  double pareto_x_min = 0.5;
  double pareto_cap = 64.0;
  std::uint32_t ranks_min = 2;
  std::uint32_t ranks_max = 8;
  /// MPI traffic shape per job: each rank sends this many messages of a
  /// size uniform in [bytes_min, bytes_max] to seeded peer ranks.
  std::uint32_t messages_per_rank = 4;
  std::uint32_t bytes_min = 1024;
  std::uint32_t bytes_max = 65536;
  sched::Policy policy = sched::Policy::kLoadBalanced;
};

/// One scripted timeline entry. Ops with a duration schedule their own
/// heal; `repeat`/`period` re-fire the whole entry (flapping links are one
/// entry, not twenty).
struct TimelineEvent {
  enum class Op {
    kKillNode,      // site+node; restart after `duration` (0 = permanent)
    kKillProxy,     // site; whole site dark, restart after `duration`
    kSeverLink,     // a+b; heal after `duration`
    kPartition,     // group vs. rest; heal after `duration`
    kDegradeLink,   // a+b bandwidth x `factor` for `duration`
    kSlowSite,      // site capacity x `factor` for `duration`
  };
  Op op;
  TimeMicros at = 0;
  TimeMicros duration = 0;
  std::string site;
  std::string node;
  std::string link_a;
  std::string link_b;
  std::vector<std::string> group;
  double factor = 1.0;
  std::uint32_t repeat = 1;     // total firings
  TimeMicros period = 0;        // spacing between firings
};

/// Declarative check over the final stats: `metric op value` with op in
/// {<=, >=, <, >, ==}. Metrics are the dotted names ScenarioStats exports.
struct Assertion {
  std::string metric;
  std::string op;
  double value = 0;
};

/// Model of the reliable data plane (the proxies' ack/retransmit layer
/// and priority lanes): each inter-site kMpiBatch envelope is dropped
/// with `drop_rate` and retransmitted on an exponentially backed-off RTO
/// until it gets through; payloads at or under `latency_lane_bytes` ride
/// the latency lane and are not serialized behind bulk transfers.
struct DataPlaneModel {
  double drop_rate = 0.0;                       // per-envelope, [0, 0.9]
  TimeMicros ack_rto_initial = 50 * 1000;       // first retransmit timeout
  TimeMicros ack_rto_max = 2 * kMicrosPerSecond;
  std::uint32_t latency_lane_bytes = 4096;
};

struct ScenarioConfig {
  std::string name;
  std::string description;
  TimeMicros duration = 60 * kMicrosPerSecond;   // virtual horizon
  TimeMicros status_interval = kMicrosPerSecond; // proxy status exchange
  /// Stale reports older than this are expired from a proxy's cache —
  /// the simulated death-detection knob.
  TimeMicros status_max_age = 5 * kMicrosPerSecond;
  /// Messages to one destination site within this window share an
  /// envelope (models the kMpiBatch flush window).
  std::uint32_t batch_window_messages = 32;
  /// Healed links resume from the session ticket cached at the previous
  /// handshake (one round trip, no RSA) instead of redoing the full GSSL
  /// handshake (two round trips) — the real proxies always resume — as long
  /// as the ticket is younger than `resumption_ticket_lifetime`.
  bool session_resumption = true;
  TimeMicros resumption_ticket_lifetime = 3600 * kMicrosPerSecond;
  DataPlaneModel data_plane;
  Topology topology;
  Workload workload;
  std::vector<TimelineEvent> timeline;
  std::vector<Assertion> assertions;
};

/// Parses and validates a scenario document. Unknown link profiles,
/// malformed timeline ops and out-of-range shapes are errors, not
/// surprises at virtual-hour 3.
Result<ScenarioConfig> parse_scenario(const std::string& json_text);

/// Reads `path` and parses it.
Result<ScenarioConfig> load_scenario(const std::string& path);

/// Expanded site list: (site name -> node name -> capacity/load), built
/// deterministically from the topology groups and `seed`.
struct ExpandedNode {
  std::string name;
  double capacity = 1.0;
  double background_load = 0.0;
};
struct ExpandedSite {
  std::string name;
  std::vector<ExpandedNode> nodes;
  std::uint32_t shards = 1;
};
std::vector<ExpandedSite> expand_topology(const Topology& topology,
                                          std::uint64_t seed);

}  // namespace pg::scenario
