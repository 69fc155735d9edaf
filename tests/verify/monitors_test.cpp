#include <gtest/gtest.h>

#include <memory>

#include "proto/census.hpp"
#include "sim/engine.hpp"
#include "verify/convergence.hpp"
#include "verify/fairness_monitor.hpp"
#include "verify/safety_monitor.hpp"

namespace klex::verify {
namespace {

TEST(SafetyMonitor, CleanRunHasNoViolations) {
  SafetyMonitor monitor(3, 2, 4);
  monitor.on_enter_cs(0, 2, 10);
  monitor.on_enter_cs(1, 2, 11);
  EXPECT_EQ(monitor.units_in_use(), 4);
  EXPECT_EQ(monitor.in_cs_count(), 2);
  monitor.on_exit_cs(0, 20);
  monitor.on_exit_cs(1, 21);
  EXPECT_EQ(monitor.units_in_use(), 0);
  EXPECT_FALSE(monitor.any_violation());
  EXPECT_EQ(monitor.total_entries(), 2);
}

TEST(SafetyMonitor, DetectsOverL) {
  SafetyMonitor monitor(3, 2, 3);
  monitor.on_enter_cs(0, 2, 5);
  monitor.on_enter_cs(1, 2, 6);  // 4 > 3
  ASSERT_TRUE(monitor.any_violation());
  EXPECT_EQ(monitor.last_violation_time(), 6u);
  EXPECT_NE(monitor.violations()[0].what.find("> l"), std::string::npos);
}

TEST(SafetyMonitor, ScopesBoundEachTenantByItsOwnL) {
  // Two tenants of two nodes each, ℓ = 2 per tenant: tenant 0 over its ℓ
  // is a violation although the fleet uses 3 of its 4 units.
  SafetyMonitor monitor({0, 0, 1, 1}, 2, 2);
  monitor.on_enter_cs(2, 1, 4);
  monitor.on_enter_cs(0, 2, 5);
  EXPECT_FALSE(monitor.any_violation());
  monitor.on_exit_cs(2, 6);
  monitor.on_enter_cs(1, 1, 7);  // tenant 0 uses 3 > 2
  ASSERT_EQ(monitor.violation_count(), 1);
  EXPECT_EQ(monitor.last_violation_time(), 7u);
  EXPECT_NE(monitor.violations()[0].what.find("in scope 0 > l"),
            std::string::npos);
  EXPECT_EQ(monitor.units_in_use(), 3);
  monitor.on_enter_cs(3, 2, 8);  // tenant 1 at its ℓ: fine
  EXPECT_EQ(monitor.violation_count(), 1);
  EXPECT_EQ(monitor.units_in_use(), 5);
}

TEST(SafetyMonitor, DetectsOverK) {
  SafetyMonitor monitor(2, 2, 5);
  monitor.on_enter_cs(0, 3, 7);  // 3 > k = 2
  ASSERT_TRUE(monitor.any_violation());
  EXPECT_NE(monitor.violations()[0].what.find("> k"), std::string::npos);
}

TEST(SafetyMonitor, DetectsDoubleEntry) {
  SafetyMonitor monitor(2, 2, 5);
  monitor.on_enter_cs(0, 1, 3);
  monitor.on_enter_cs(0, 1, 4);
  ASSERT_TRUE(monitor.any_violation());
  EXPECT_EQ(monitor.units_in_use(), 1);  // no double counting
}

TEST(SafetyMonitor, RecoversAccountingAfterViolation) {
  SafetyMonitor monitor(2, 2, 2);
  monitor.on_enter_cs(0, 2, 1);
  monitor.on_enter_cs(1, 2, 2);  // violation
  monitor.on_exit_cs(0, 3);
  monitor.on_exit_cs(1, 4);
  EXPECT_EQ(monitor.units_in_use(), 0);
}

TEST(SafetyMonitorWatchdog, FlagsOldRequestsOncePerRequest) {
  SafetyMonitor monitor(3, 1, 2);
  monitor.set_stall_threshold(100);
  monitor.on_request(0, 1, 10);
  monitor.on_request(1, 1, 50);

  EXPECT_EQ(monitor.check_stalls(60), 0);  // nothing old enough yet
  EXPECT_EQ(monitor.check_stalls(111), 1);
  ASSERT_EQ(monitor.stall_count(), 1);
  EXPECT_EQ(monitor.stalls()[0].node, 0);
  EXPECT_EQ(monitor.stalls()[0].requested_at, 10u);
  EXPECT_EQ(monitor.stalls()[0].flagged_at, 111u);

  // A flagged request is flagged once; the younger request stalls later.
  EXPECT_EQ(monitor.check_stalls(120), 0);
  EXPECT_EQ(monitor.check_stalls(200), 1);
  EXPECT_EQ(monitor.stall_count(), 2);
  EXPECT_EQ(monitor.stalls()[1].node, 1);

  // A grant retires the pending request; a fresh request re-arms and is
  // measured from its own submission time.
  monitor.on_enter_cs(0, 1, 210);
  monitor.on_exit_cs(0, 215);
  monitor.on_request(0, 1, 220);
  EXPECT_EQ(monitor.check_stalls(300), 0);  // 80 < threshold
  EXPECT_EQ(monitor.check_stalls(330), 1);
  EXPECT_EQ(monitor.stall_count(), 3);
  EXPECT_EQ(monitor.stalls()[2].requested_at, 220u);
}

TEST(SafetyMonitorWatchdog, DisabledThresholdNeverFlags) {
  SafetyMonitor monitor(2, 1, 2);
  monitor.on_request(0, 1, 0);
  EXPECT_EQ(monitor.check_stalls(1'000'000), 0);
  EXPECT_EQ(monitor.stall_count(), 0);
}

// Minimal traffic source for the live-observer heartbeat test: the
// watchdog is driven by deliveries, so a channel that keeps delivering
// is what advances it.
class PingSink : public sim::Process {
 public:
  void on_message(int, const sim::Message&) override {}
  void on_timer(int) override {}
  using sim::Process::send;
};

TEST(SafetyMonitorWatchdog, LiveObserverHeartbeatTimestampsTheStall) {
  // watch(engine) is the continuous-monitoring mode the chaos runner
  // uses: deliveries heartbeat check_stalls, so a starved request gets
  // flagged at a simulated-time heartbeat without any manual polling.
  sim::Engine engine(sim::DelayModel{1, 4}, 11);
  auto a = std::make_unique<PingSink>();
  auto b = std::make_unique<PingSink>();
  PingSink* src = a.get();
  engine.add_process(std::move(a));
  engine.add_process(std::move(b));
  engine.connect(0, 0, 1, 0);
  engine.start();

  SafetyMonitor monitor(2, 1, 2);
  monitor.set_stall_threshold(100);
  monitor.watch(engine);
  monitor.on_request(0, 1, 0);  // as the protocol Listener would report

  sim::Message ping;
  ping.type = 1;
  for (int i = 0; i < 20; ++i) {
    src->send(0, ping);
    engine.run_until(engine.now() + 40);
  }
  ASSERT_EQ(monitor.stall_count(), 1);
  EXPECT_EQ(monitor.stalls()[0].node, 0);
  EXPECT_EQ(monitor.stalls()[0].requested_at, 0u);
  // Flagged by the first heartbeat past the threshold -- a simulated
  // timestamp in the delivery stream, well before the run's end.
  EXPECT_GE(monitor.stalls()[0].flagged_at, 100u);
  EXPECT_LE(monitor.stalls()[0].flagged_at, 200u);
}

TEST(ConvergenceTracker, TracksLastIncorrect) {
  ConvergenceTracker tracker(2);
  proto::TokenCensus bad;  // zero tokens
  proto::TokenCensus good;
  good.free_resource = 2;
  good.pusher = 1;
  good.free_priority = 1;

  tracker.poll(bad, 10);
  EXPECT_FALSE(tracker.converged());
  tracker.poll(good, 20);
  EXPECT_TRUE(tracker.converged());
  EXPECT_EQ(tracker.convergence_time(), 20u);
  tracker.poll(good, 30);
  EXPECT_EQ(tracker.convergence_time(), 20u);  // stays at first correct
  tracker.poll(bad, 40);                        // regression!
  EXPECT_FALSE(tracker.converged());
  EXPECT_EQ(tracker.last_incorrect_time(), 40u);
  tracker.poll(good, 50);
  EXPECT_EQ(tracker.convergence_time(), 50u);
  EXPECT_EQ(tracker.polls(), 5u);
  EXPECT_EQ(tracker.incorrect_polls(), 2u);
}

TEST(FairnessMonitor, TracksLatencies) {
  FairnessMonitor monitor(2);
  monitor.on_request(0, 1, 100);
  monitor.on_request(1, 1, 110);
  EXPECT_EQ(monitor.outstanding_count(), 2);
  EXPECT_EQ(monitor.most_starved_node(), 0);
  EXPECT_EQ(monitor.oldest_outstanding_age(150), 50u);

  monitor.on_enter_cs(0, 1, 160);
  EXPECT_EQ(monitor.outstanding_count(), 1);
  EXPECT_EQ(monitor.grants(), 1);
  EXPECT_DOUBLE_EQ(monitor.grant_latency().max(), 60.0);
  EXPECT_EQ(monitor.most_starved_node(), 1);
}

TEST(FairnessMonitor, SpuriousEntryIgnored) {
  FairnessMonitor monitor(2);
  monitor.on_enter_cs(1, 1, 50);  // no request recorded
  EXPECT_EQ(monitor.grants(), 0);
  EXPECT_EQ(monitor.grant_latency().count(), 0u);
}

TEST(FairnessMonitor, NoOutstandingMeansZeroAge) {
  FairnessMonitor monitor(2);
  EXPECT_EQ(monitor.oldest_outstanding_age(1000), 0u);
  EXPECT_EQ(monitor.most_starved_node(), -1);
}

}  // namespace
}  // namespace klex::verify
