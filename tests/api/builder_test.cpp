// SystemBuilder: one declarative construction path for every topology
// family, explicit trees/graphs, and full sessions (system + workload).
#include "api/builder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "api/graph_system.hpp"
#include "api/system.hpp"
#include "ring/ring_system.hpp"

namespace klex {
namespace {

TEST(SystemBuilder, BuildsEveryTopologyFamily) {
  auto tree_sys = SystemBuilder()
                      .topology(TopologySpec::tree_balanced(2, 2))
                      .kl(2, 3)
                      .build();
  EXPECT_EQ(tree_sys->n(), 7);
  EXPECT_NE(dynamic_cast<System*>(tree_sys.get()), nullptr);

  auto ring_sys =
      SystemBuilder().topology(TopologySpec::ring(6)).kl(1, 2).build();
  EXPECT_EQ(ring_sys->n(), 6);
  EXPECT_NE(dynamic_cast<ring::RingSystem*>(ring_sys.get()), nullptr);

  auto graph_sys = SystemBuilder()
                       .topology(TopologySpec::graph_grid(3, 3))
                       .kl(1, 2)
                       .build();
  EXPECT_EQ(graph_sys->n(), 9);
  EXPECT_NE(dynamic_cast<GraphSystem*>(graph_sys.get()), nullptr);
}

TEST(SystemBuilder, AcceptsExplicitTreeAndGraph) {
  support::Rng shape_rng(3);
  auto tree_sys = SystemBuilder()
                      .tree(tree::random_tree_bounded_degree(12, 3, shape_rng))
                      .kl(1, 2)
                      .build();
  EXPECT_EQ(tree_sys->n(), 12);

  auto graph_sys =
      SystemBuilder().graph(stree::cycle_graph(5)).kl(1, 1).build();
  EXPECT_EQ(graph_sys->n(), 5);
}

TEST(SystemBuilder, RequiresExactlyOneTopology) {
  EXPECT_THROW(SystemBuilder().kl(1, 1).build(), std::invalid_argument);
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_line(3));
  EXPECT_THROW(builder.tree(tree::line(3)), std::invalid_argument);
}

TEST(SystemBuilder, ParametersReachTheSystem) {
  auto system = SystemBuilder()
                    .topology(TopologySpec::tree_line(5))
                    .kl(2, 4)
                    .features(proto::Features::with_priority())
                    .cmax(6)
                    .seed(123)
                    .build();
  EXPECT_EQ(system->k(), 2);
  EXPECT_EQ(system->l(), 4);
  EXPECT_EQ(system->params().cmax, 6);
  EXPECT_EQ(system->params().features, proto::Features::with_priority());
  // Non-controller rung: tokens are seeded, so the (rung-aware) census is
  // legitimate right after startup.
  EXPECT_NE(system->run_until_stabilized(100'000), sim::kTimeInfinity);

  // A fleet carries every knob into every tenant, the fidelity ablations
  // included.
  auto fleet = SystemBuilder()
                   .topology(TopologySpec::tree_line(5))
                   .kl(2, 4)
                   .fleet(3)
                   .literal_pusher_guard(true)
                   .build();
  auto* tree_fleet = dynamic_cast<System*>(fleet.get());
  ASSERT_NE(tree_fleet, nullptr);
  ASSERT_EQ(fleet->tenant_count(), 3);
  EXPECT_EQ(fleet->l(), 3 * 4);
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(
        tree_fleet->node(fleet->node_begin(t)).params().literal_pusher_guard)
        << "tenant " << t;
  }
}

TEST(SystemBuilder, SessionMaterializesWorkloadClasses) {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::fixed(30);
  workload.classes.push_back(proto::BehaviorClass::holders("I", 2, 1));
  Session session = SystemBuilder()
                        .topology(TopologySpec::tree_balanced(2, 2))
                        .kl(2, 4)
                        .seed(9)
                        .workload(workload)
                        .fault(FaultKind::kTransient)
                        .build_session();
  ASSERT_NE(session.driver, nullptr);
  ASSERT_EQ(session.fault_plan.events.size(), 1u);
  EXPECT_EQ(session.fault_plan.events.front().kind, FaultKind::kTransient);
  ASSERT_EQ(session.workload.behaviors.size(), 7u);
  int holders = 0;
  for (std::size_t v = 0; v < session.workload.behaviors.size(); ++v) {
    if (session.workload.class_index[v] == 0) {
      ++holders;
      EXPECT_TRUE(session.workload.behaviors[v].hold_forever);
    }
  }
  EXPECT_EQ(holders, 2);

  // The session runs end to end: stabilize, serve, fault, recover.
  ASSERT_NE(session.system->run_until_stabilized(2'000'000),
            sim::kTimeInfinity);
  session.begin_workload();
  session.system->run_until(session.system->engine().now() + 500'000);
  EXPECT_GT(session.driver->total_grants(), 0);
  support::Rng fault_rng(10);
  sim::SimTime fault_at = session.system->engine().now();
  session.apply_fault_event(session.fault_plan.events.front(), fault_rng);
  EXPECT_NE(session.system->run_until_stabilized(fault_at + 30'000'000),
            sim::kTimeInfinity);
}

TEST(SystemBuilder, SessionWithoutWorkloadHasNoDriver) {
  Session session = SystemBuilder()
                        .topology(TopologySpec::tree_line(3))
                        .kl(1, 1)
                        .build_session();
  EXPECT_EQ(session.driver, nullptr);
  EXPECT_THROW(session.begin_workload(), std::invalid_argument);
}

TEST(SystemBuilder, SameSeedSameTrajectory) {
  auto run = [](std::uint64_t seed) {
    proto::WorkloadSpec workload;
    workload.classes.push_back(proto::BehaviorClass::relays("relays", 0.3));
    Session session = SystemBuilder()
                          .topology(TopologySpec::tree_balanced(2, 3))
                          .kl(2, 4)
                          .seed(seed)
                          .workload(workload)
                          .build_session();
    session.system->run_until_stabilized(2'000'000);
    session.begin_workload();
    session.system->run_until(session.system->engine().now() + 300'000);
    return std::pair{session.driver->total_grants(),
                     session.system->engine().events_executed()};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace klex
