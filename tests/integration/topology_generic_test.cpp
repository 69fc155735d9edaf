// The unification acceptance test: tree, ring and arbitrary-graph
// (spanning-tree composition) scenarios all run through the shared
// klex::SystemBase -- same workload driver, same monitors, same census,
// same fault-injection path -- with no topology-specific glue.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "api/workload_driver.hpp"
#include "api/graph_system.hpp"
#include "api/system.hpp"
#include "ring/ring_system.hpp"
#include "stats/waiting_time.hpp"
#include "stree/graph.hpp"
#include "verify/safety_monitor.hpp"

namespace klex {
namespace {

std::unique_ptr<SystemBase> make_tree_system(std::uint64_t seed) {
  SystemConfig config;
  config.tree = tree::balanced(2, 2);  // n = 7
  config.k = 2;
  config.l = 3;
  config.seed = seed;
  return std::make_unique<System>(config);
}

std::unique_ptr<SystemBase> make_ring_system(std::uint64_t seed) {
  ring::RingConfig config;
  config.n = 7;
  config.k = 2;
  config.l = 3;
  config.seed = seed;
  return std::make_unique<ring::RingSystem>(config);
}

std::unique_ptr<SystemBase> make_graph_system(std::uint64_t seed) {
  GraphSystemConfig config;
  config.graph = stree::grid(3, 3);  // n = 9, cyclic mesh
  config.k = 2;
  config.l = 3;
  config.seed = seed;
  return std::make_unique<GraphSystem>(std::move(config));
}

using SystemFactory = std::unique_ptr<SystemBase> (*)(std::uint64_t);

// The topology's name is what gtest prints for the parameter, so the test
// lists (and CTest's discovered names) are stable across runs instead of
// carrying a load-address-dependent function pointer.
struct TopologyCase {
  const char* name;
  SystemFactory make;
};

void PrintTo(const TopologyCase& c, std::ostream* os) { *os << c.name; }

class TopologyGeneric : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologyGeneric, StabilizesServesAndSurvivesFaults) {
  std::unique_ptr<SystemBase> system = GetParam().make(21);
  int n = system->n();

  // Phase 1: bootstrap to the legitimate token population.
  ASSERT_NE(system->run_until_stabilized(10'000'000), sim::kTimeInfinity);
  EXPECT_TRUE(system->token_counts_correct());

  // Phase 2: a uniform closed-loop workload is served safely.
  stats::WaitingTimeTracker waits(n);
  verify::SafetyMonitor safety(n, system->k(), system->l());
  system->add_listener(&waits);
  system->add_listener(&safety);

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::exponential(96);
  behavior.cs_duration = proto::Dist::exponential(48);
  behavior.need = proto::Dist::uniform(1, system->k());
  WorkloadDriver driver(system->engine(), system->clients(),
                               proto::uniform_behaviors(n, behavior),
                               support::Rng(77));
  driver.begin();
  system->run_until(system->engine().now() + 1'500'000);
  EXPECT_GT(driver.total_grants(), 0) << "workload starved";
  EXPECT_FALSE(safety.any_violation());

  // Phase 3: transient fault, then self-stabilization.
  support::Rng fault_rng(5);
  system->inject_transient_fault(fault_rng);
  driver.resync();
  sim::SimTime recovered = system->run_until_stabilized(
      system->engine().now() + 40'000'000);
  EXPECT_NE(recovered, sim::kTimeInfinity) << "never re-stabilized";
  EXPECT_TRUE(system->token_counts_correct());
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyGeneric,
                         ::testing::Values(
                             TopologyCase{"tree", &make_tree_system},
                             TopologyCase{"ring", &make_ring_system},
                             TopologyCase{"graph", &make_graph_system}));

TEST(GraphSystem, ComposesSpanningTreeWithExclusion) {
  GraphSystemConfig config;
  config.graph = stree::grid(4, 4);
  config.k = 2;
  config.l = 5;
  config.seed = 11;
  GraphSystem system(std::move(config));

  // The overlay is a genuine BFS spanning tree of the mesh: n-1 edges,
  // every tree edge is a graph edge, depths are BFS distances.
  const tree::Tree& overlay = system.overlay_tree();
  ASSERT_EQ(overlay.size(), 16);
  for (tree::NodeId v = 1; v < overlay.size(); ++v) {
    EXPECT_TRUE(system.graph().has_edge(v, overlay.parent(v)))
        << "overlay edge " << v << "-" << overlay.parent(v)
        << " is not a physical link";
  }
  EXPECT_LT(system.spanning_tree_converged_at(), 4'000'000u);

  ASSERT_NE(system.run_until_stabilized(10'000'000), sim::kTimeInfinity);
  system.request(10, 2);
  system.run_until(system.engine().now() + 400'000);
  EXPECT_EQ(system.state_of(10), proto::AppState::kIn);
  system.release(10);
  system.run_until(system.engine().now() + 400'000);
  EXPECT_EQ(system.state_of(10), proto::AppState::kOut);
}

TEST(GraphSystem, DeterministicPerSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    GraphSystemConfig config;
    config.graph = stree::cycle_graph(8);
    config.k = 1;
    config.l = 2;
    config.seed = seed;
    GraphSystem system(std::move(config));
    sim::SimTime stabilized = system.run_until_stabilized(10'000'000);
    return std::pair{stabilized, system.engine().messages_delivered()};
  };
  EXPECT_EQ(fingerprint(31), fingerprint(31));
  EXPECT_NE(fingerprint(31), fingerprint(32));
}

TEST(GraphSystem, RandomConnectedGraphsExtractAndStabilize) {
  support::Rng topo_rng(9);
  for (int trial = 0; trial < 3; ++trial) {
    GraphSystemConfig config;
    config.graph = stree::random_connected(12, 6, topo_rng);
    config.k = 1;
    config.l = 2;
    config.seed = 100 + static_cast<std::uint64_t>(trial);
    GraphSystem system(std::move(config));
    EXPECT_NE(system.run_until_stabilized(10'000'000), sim::kTimeInfinity)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace klex
