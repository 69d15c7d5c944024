// Scheduler tests: round-robin baseline, load-balanced policy, makespan
// model, and the paper's claim that load balancing beats round-robin on
// heterogeneous grids.
#include <gtest/gtest.h>

#include "sched/makespan.hpp"
#include "sched/scheduler.hpp"
#include "sim/workload.hpp"

namespace pg::sched {
namespace {

monitor::GridNode make_node(const std::string& site, const std::string& name,
                            double capacity = 1.0, double load = 0.0,
                            std::uint64_t ram_free = 2048,
                            std::uint32_t running = 0) {
  monitor::GridNode node;
  node.site = site;
  node.status.name = name;
  node.status.cpu_capacity = capacity;
  node.status.cpu_load = load;
  node.status.ram_free_mb = ram_free;
  node.status.ram_total_mb = 4096;
  node.status.running_processes = running;
  return node;
}

TEST(RoundRobin, CyclesNodesInOrder) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "n0"), make_node("siteA", "n1"),
      make_node("siteB", "n0")};
  auto scheduler = make_round_robin_scheduler();
  const auto result = scheduler->assign(nodes, 6, {});
  ASSERT_TRUE(result.is_ok());
  const auto& p = result.value();
  ASSERT_EQ(p.size(), 6u);
  EXPECT_EQ(p[0].site, "siteA");
  EXPECT_EQ(p[0].node, "n0");
  EXPECT_EQ(p[1].node, "n1");
  EXPECT_EQ(p[2].site, "siteB");
  // wraps around
  EXPECT_EQ(p[3].site, "siteA");
  EXPECT_EQ(p[3].node, "n0");
  // ranks are sequential
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(p[i].rank, i);
}

TEST(RoundRobin, IgnoresLoad) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "n0", 1.0, 0.99, 2048, 50),
      make_node("siteA", "n1", 1.0, 0.0)};
  auto scheduler = make_round_robin_scheduler();
  const auto result = scheduler->assign(nodes, 2, {});
  ASSERT_TRUE(result.is_ok());
  // Still alternates despite n0 being overloaded.
  EXPECT_EQ(result.value()[0].node, "n0");
  EXPECT_EQ(result.value()[1].node, "n1");
}

TEST(RoundRobin, RespectsRamConstraint) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "small", 1.0, 0.0, 100),
      make_node("siteA", "big", 1.0, 0.0, 4000)};
  auto scheduler = make_round_robin_scheduler();
  Constraints c;
  c.min_ram_mb = 1000;
  const auto result = scheduler->assign(nodes, 3, c);
  ASSERT_TRUE(result.is_ok());
  for (const auto& p : result.value()) EXPECT_EQ(p.node, "big");
}

TEST(RoundRobin, FailsWhenNothingEligible) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "n0", 1.0, 0.0, 100)};
  auto scheduler = make_round_robin_scheduler();
  Constraints c;
  c.min_ram_mb = 1000;
  EXPECT_EQ(scheduler->assign(nodes, 1, c).status().code(),
            ErrorCode::kUnavailable);
}

TEST(LoadBalanced, PrefersIdleNodes) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "busy", 1.0, 0.9, 2048, 3),
      make_node("siteA", "idle", 1.0, 0.0)};
  auto scheduler = make_load_balanced_scheduler();
  const auto result = scheduler->assign(nodes, 2, {});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value()[0].node, "idle");
  EXPECT_EQ(result.value()[1].node, "idle");  // still cheaper than busy
}

TEST(LoadBalanced, PrefersFastNodes) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "slow", 1.0), make_node("siteA", "fast", 4.0)};
  auto scheduler = make_load_balanced_scheduler();
  const auto result = scheduler->assign(nodes, 5, {});
  ASSERT_TRUE(result.is_ok());
  int fast_count = 0;
  for (const auto& p : result.value())
    if (p.node == "fast") ++fast_count;
  // The 4x node should absorb roughly 4 of 5 ranks.
  EXPECT_GE(fast_count, 3);
}

TEST(LoadBalanced, SpreadsAcrossEqualNodes) {
  std::vector<monitor::GridNode> nodes;
  for (int i = 0; i < 4; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    nodes.push_back(make_node("siteA", name));
  }
  auto scheduler = make_load_balanced_scheduler();
  const auto result = scheduler->assign(nodes, 8, {});
  ASSERT_TRUE(result.is_ok());
  std::map<std::string, int> counts;
  for (const auto& p : result.value()) ++counts[p.node];
  for (const auto& [node, count] : counts) EXPECT_EQ(count, 2) << node;
}

TEST(LoadBalanced, MaxLoadConstraintFilters) {
  const std::vector<monitor::GridNode> nodes = {
      make_node("siteA", "hot", 1.0, 0.95),
      make_node("siteA", "cool", 1.0, 0.1)};
  auto scheduler = make_load_balanced_scheduler();
  Constraints c;
  c.max_load = 0.5;
  const auto result = scheduler->assign(nodes, 3, c);
  ASSERT_TRUE(result.is_ok());
  for (const auto& p : result.value()) EXPECT_EQ(p.node, "cool");
}

TEST(Makespan, SingleNodeAccumulates) {
  const std::vector<monitor::GridNode> nodes = {make_node("s", "n", 2.0)};
  const std::vector<proto::RankPlacement> placements = {
      {0, "s", "n"}, {1, "s", "n"}, {2, "s", "n"}, {3, "s", "n"}};
  const MakespanResult r = evaluate_makespan(nodes, placements, 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0 / 2.0);
}

TEST(Makespan, BalancedBeatsSkewed) {
  const std::vector<monitor::GridNode> nodes = {make_node("s", "a"),
                                                make_node("s", "b")};
  const std::vector<proto::RankPlacement> balanced = {
      {0, "s", "a"}, {1, "s", "b"}, {2, "s", "a"}, {3, "s", "b"}};
  const std::vector<proto::RankPlacement> skewed = {
      {0, "s", "a"}, {1, "s", "a"}, {2, "s", "a"}, {3, "s", "b"}};
  EXPECT_LT(evaluate_makespan(nodes, balanced).makespan,
            evaluate_makespan(nodes, skewed).makespan);
}

TEST(Makespan, WeightedTasks) {
  const std::vector<monitor::GridNode> nodes = {make_node("s", "a"),
                                                make_node("s", "b")};
  const std::vector<proto::RankPlacement> placements = {{0, "s", "a"},
                                                        {1, "s", "b"}};
  const MakespanResult r =
      evaluate_makespan_weighted(nodes, placements, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_GT(r.load_imbalance, 1.0);
}

// The paper's E5 claim as a property: on heterogeneous grids, the
// load-balanced placement never yields a worse makespan than round-robin,
// and is strictly better when speeds differ enough.
class SchedulerComparison
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(SchedulerComparison, LoadBalancedNeverWorse) {
  const auto [nodes_per_site, speed_ratio] = GetParam();
  const auto nodes =
      sim::generate_uniform_grid(3, nodes_per_site, speed_ratio, 99);
  const std::uint32_t ranks = static_cast<std::uint32_t>(nodes.size() * 3);

  auto rr = make_round_robin_scheduler();
  auto lb = make_load_balanced_scheduler();
  const auto rr_placement = rr->assign(nodes, ranks, {});
  const auto lb_placement = lb->assign(nodes, ranks, {});
  ASSERT_TRUE(rr_placement.is_ok());
  ASSERT_TRUE(lb_placement.is_ok());

  const double rr_makespan =
      evaluate_makespan(nodes, rr_placement.value()).makespan;
  const double lb_makespan =
      evaluate_makespan(nodes, lb_placement.value()).makespan;
  EXPECT_LE(lb_makespan, rr_makespan * 1.0001);
  if (speed_ratio >= 3.0) {
    EXPECT_LT(lb_makespan, rr_makespan * 0.95)
        << "expected a clear win at heterogeneity " << speed_ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Heterogeneity, SchedulerComparison,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(1.0, 2.0, 3.0, 4.0)));

}  // namespace
}  // namespace pg::sched
