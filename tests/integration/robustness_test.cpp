// Robustness scenarios beyond the paper's explicit claims: conservation
// on the ring baseline, CMAX violations, faults during recovery,
// saturated contention, and the root timeout period's trade-off.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/system.hpp"
#include "proto/messages.hpp"
#include "api/workload_driver.hpp"
#include "proto/workload.hpp"
#include "ring/ring_system.hpp"
#include "verify/conservation.hpp"
#include "verify/safety_monitor.hpp"

namespace klex {
namespace {

TEST(Robustness, RingConservesTokensEventByEvent) {
  ring::RingConfig config;
  config.n = 8;
  config.k = 2;
  config.l = 3;
  config.seed = 1111;
  ring::RingSystem system(config);
  verify::ConservationChecker checker(config.l,
                                      [&system] { return system.census(); });
  system.add_observer(&checker);
  ASSERT_NE(system.run_until_stabilized(4'000'000), sim::kTimeInfinity);

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::exponential(48);
  behavior.cs_duration = proto::Dist::exponential(24);
  behavior.need = proto::Dist::uniform(1, 2);
  WorkloadDriver driver(system.engine(), system.clients(),
                               proto::uniform_behaviors(config.n, behavior),
                               support::Rng(1112));
  driver.begin();
  checker.arm();
  system.run_until(system.engine().now() + 500'000);
  EXPECT_GT(checker.events_checked(), 10'000u);
  EXPECT_TRUE(checker.clean());
  EXPECT_GT(driver.total_grants(), 100);
}

TEST(Robustness, CmaxViolationWithRandomGarbageStillRecovers) {
  // The myC domain is sized for CMAX = 1; flood with 8 garbage messages
  // per channel. Random garbage does not chase the root's counter, so
  // counter flushing still converges (E12 quantifies this).
  SystemConfig config;
  config.tree = tree::line(6);
  config.k = 1;
  config.l = 2;
  config.cmax = 1;
  config.seed = 1113;
  System system(config);
  ASSERT_NE(system.run_until_stabilized(4'000'000), sim::kTimeInfinity);

  support::Rng rng(1114);
  system.engine().clear_channels();
  proto::MessageDomains domains;
  domains.myc_modulus = core::myc_modulus(system.n(), config.cmax);
  domains.l = config.l;
  for (tree::NodeId v = 0; v < system.n(); ++v) {
    for (int c = 0; c < system.topology().degree(v); ++c) {
      for (int g = 0; g < 8; ++g) {
        system.engine().inject_message(v, c,
                                       proto::random_message(domains, rng));
      }
    }
  }
  ASSERT_NE(system.run_until_stabilized(system.engine().now() + 80'000'000),
            sim::kTimeInfinity);
  EXPECT_TRUE(system.token_counts_correct());
}

TEST(Robustness, FaultDuringRecoveryStillConverges) {
  SystemConfig config;
  config.tree = tree::balanced(2, 2);
  config.k = 2;
  config.l = 3;
  config.seed = 1115;
  System system(config);
  ASSERT_NE(system.run_until_stabilized(4'000'000), sim::kTimeInfinity);

  support::Rng rng(1116);
  system.inject_transient_fault(rng);
  // Interrupt the recovery part-way with a second fault, repeatedly.
  for (int i = 0; i < 3; ++i) {
    system.run_until(system.engine().now() + 700);  // mid-recovery
    system.inject_transient_fault(rng);
  }
  ASSERT_NE(system.run_until_stabilized(system.engine().now() + 80'000'000),
            sim::kTimeInfinity);
  EXPECT_TRUE(system.token_counts_correct());
}

TEST(Robustness, SaturatedContentionStaysSafeAndLive) {
  // Every process permanently re-requests k units: maximal contention.
  SystemConfig config;
  config.tree = tree::balanced(2, 3);  // 15 nodes
  config.k = 2;
  config.l = 3;
  config.seed = 1117;
  System system(config);
  verify::SafetyMonitor safety(system.n(), config.k, config.l);
  system.add_listener(&safety);
  ASSERT_NE(system.run_until_stabilized(4'000'000), sim::kTimeInfinity);

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::fixed(0);
  behavior.cs_duration = proto::Dist::fixed(16);
  behavior.need = proto::Dist::fixed(2);
  WorkloadDriver driver(system.engine(), system.clients(),
                               proto::uniform_behaviors(system.n(), behavior),
                               support::Rng(1118));
  driver.begin();
  system.run_until(system.engine().now() + 3'000'000);

  EXPECT_FALSE(safety.any_violation());
  EXPECT_TRUE(system.token_counts_correct());
  // With l=3 and need=2, only one CS fits at a time -- but EVERY node
  // must still get served (fairness under saturation).
  for (proto::NodeId v = 0; v < system.n(); ++v) {
    EXPECT_GT(driver.grants(v), 10) << "node " << v << " starved";
  }
}

struct TimeoutRun {
  double control_per_grant = 0.0;
  sim::SimTime recovery = sim::kTimeInfinity;
  bool safe = false;
};

// The E9 ablation at one root timeout period (0 = the derived default):
// control messages per grant over a loaded 2 Mtick window on the n = 15
// balanced tree, then the time to re-stabilize after clear_channels()
// kills every in-flight message, controller included. `recovery` stays
// infinite when either stabilization misses its deadline.
TimeoutRun run_with_timeout(sim::SimTime period) {
  SystemConfig config;
  config.tree = tree::balanced(2, 3);
  config.k = 2;
  config.l = 3;
  config.timeout_period = period;
  config.seed = 7000;
  System system(config);
  verify::SafetyMonitor safety(system.n(), config.k, config.l);
  system.add_listener(&safety);
  TimeoutRun run;
  if (system.run_until_stabilized(20'000'000) == sim::kTimeInfinity) {
    return run;
  }

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::exponential(64);
  behavior.cs_duration = proto::Dist::exponential(32);
  behavior.need = proto::Dist::uniform(1, 2);
  WorkloadDriver driver(system.engine(), system.clients(),
                        proto::uniform_behaviors(system.n(), behavior),
                        support::Rng(7001));
  const auto control_sent = [&system] {
    return system.engine().sent_of_type(
        static_cast<std::int32_t>(proto::TokenType::kControl));
  };
  driver.begin();
  const std::uint64_t control_before = control_sent();
  system.run_until(system.engine().now() + 2'000'000);
  run.control_per_grant =
      static_cast<double>(control_sent() - control_before) /
      static_cast<double>(std::max<std::int64_t>(driver.total_grants(), 1));

  system.engine().clear_channels();
  const sim::SimTime lost_at = system.engine().now();
  const sim::SimTime recovered =
      system.run_until_stabilized(lost_at + 200'000'000);
  if (recovered != sim::kTimeInfinity) run.recovery = recovered - lost_at;
  run.safe = !safety.any_violation();
  return run;
}

TEST(Robustness, TimeoutPeriodTradesControlTrafficForRecovery) {
  // The paper only asks the timeout to be "sufficiently large to prevent
  // congestion". Too short floods the tree with duplicate controllers;
  // too long stalls recovery once the controller is lost.
  TimeoutRun short_period = run_with_timeout(16);
  TimeoutRun default_period = run_with_timeout(0);
  EXPECT_GE(short_period.control_per_grant,
            2.0 * default_period.control_per_grant);

  TimeoutRun fast = run_with_timeout(200);
  TimeoutRun slow = run_with_timeout(51'200);
  EXPECT_GT(slow.recovery, fast.recovery);

  for (const TimeoutRun* run :
       {&short_period, &default_period, &fast, &slow}) {
    EXPECT_NE(run->recovery, sim::kTimeInfinity);
    EXPECT_TRUE(run->safe);
  }
}

TEST(Robustness, ZeroNeedRequestsAreHarmless) {
  SystemConfig config;
  config.tree = tree::line(4);
  config.k = 2;
  config.l = 2;
  config.seed = 1119;
  System system(config);
  ASSERT_NE(system.run_until_stabilized(4'000'000), sim::kTimeInfinity);
  for (int i = 0; i < 10; ++i) {
    system.request(2, 0);  // zero units: enters CS immediately
    ASSERT_EQ(system.state_of(2), proto::AppState::kIn);
    system.release(2);
    ASSERT_EQ(system.state_of(2), proto::AppState::kOut);
  }
  system.run_until(system.engine().now() + 100'000);
  EXPECT_TRUE(system.token_counts_correct());
}

TEST(Robustness, PausedSimulationResumesIdentically) {
  // run_until in many small steps must equal one big step (no hidden
  // wall-clock or scheduling state).
  auto run = [](bool chopped) {
    SystemConfig config;
    config.tree = tree::figure1_tree();
    config.k = 2;
    config.l = 3;
    config.seed = 1120;
    System system(config);
    system.run_until_stabilized(4'000'000);
    sim::SimTime start = system.engine().now();
    if (chopped) {
      for (int i = 0; i < 100; ++i) {
        system.run_until(start + (i + 1) * 1000);
      }
    } else {
      system.run_until(start + 100'000);
    }
    return system.engine().messages_delivered();
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace klex
