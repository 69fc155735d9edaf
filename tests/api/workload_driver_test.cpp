// WorkloadDriver over Client/Lease sessions, driven by a scripted
// RequestPort: closed-loop reissue, budgets, hold-forever, inactive
// relays, and resync() reconciliation.
#include "api/workload_driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "sim/engine.hpp"

namespace klex {
namespace {

using proto::AppState;
using proto::Dist;
using proto::NodeBehavior;
using proto::NodeId;

/// RequestPort that grants instantly (or on demand) without a protocol.
class FakePort : public proto::RequestPort {
 public:
  explicit FakePort(int n)
      : states(static_cast<std::size_t>(n), AppState::kOut),
        needs(static_cast<std::size_t>(n), 0) {}

  void request(NodeId node, int need) override {
    states[static_cast<std::size_t>(node)] = AppState::kReq;
    needs[static_cast<std::size_t>(node)] = need;
    last_need = need;
    ++requests;
  }

  void release(NodeId node) override {
    states[static_cast<std::size_t>(node)] = AppState::kOut;
    ++releases;
  }

  AppState state_of(NodeId node) const override {
    return states[static_cast<std::size_t>(node)];
  }

  int need_of(NodeId node) const override {
    return needs[static_cast<std::size_t>(node)];
  }

  /// Simulates the protocol granting node's request.
  void grant(NodeId node, ClientPool& pool, sim::SimTime at) {
    states[static_cast<std::size_t>(node)] = AppState::kIn;
    pool.on_enter_cs(node, needs[static_cast<std::size_t>(node)], at);
  }

  std::vector<AppState> states;
  std::vector<int> needs;
  int last_need = 0;
  int requests = 0;
  int releases = 0;
};

struct Harness {
  Harness(int n, int k, std::vector<NodeBehavior> behaviors,
          std::uint64_t seed)
      : port(n),
        pool(port, n, k, MisusePolicy::kClamp),
        driver(engine, pool, std::move(behaviors), support::Rng(seed)) {}

  sim::Engine engine;
  FakePort port;
  ClientPool pool;
  WorkloadDriver driver;
};

TEST(WorkloadDriver, ClosedLoopIssuesAndReissues) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(10);
  behavior.cs_duration = Dist::fixed(5);
  Harness h(2, 1, proto::uniform_behaviors(2, behavior), 7);
  h.driver.begin();
  h.engine.run_until(10);
  EXPECT_EQ(h.port.requests, 2);
  EXPECT_EQ(h.driver.outstanding(), 2);

  // Grant node 0; the driver's lease releases after cs_duration.
  h.port.grant(0, h.pool, h.engine.now());
  EXPECT_EQ(h.driver.outstanding(), 1);
  EXPECT_EQ(h.driver.grants(0), 1);
  EXPECT_TRUE(h.driver.holding(0));
  h.engine.run_until(h.engine.now() + 5);
  EXPECT_EQ(h.port.releases, 1);
  EXPECT_FALSE(h.driver.holding(0));
  // After release + think the driver must re-request.
  h.engine.run_until(h.engine.now() + 10);
  EXPECT_EQ(h.driver.requests_issued(0), 2);
}

TEST(WorkloadDriver, MaxRequestsStopsCycle) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(1);
  behavior.cs_duration = Dist::fixed(1);
  behavior.max_requests = 3;
  Harness h(1, 1, {behavior}, 8);
  h.driver.begin();
  for (int round = 0; round < 10; ++round) {
    h.engine.run_until(h.engine.now() + 2);
    if (h.port.state_of(0) == AppState::kReq) {
      h.port.grant(0, h.pool, h.engine.now());
      h.engine.run_until(h.engine.now() + 2);
    }
  }
  EXPECT_EQ(h.driver.requests_issued(0), 3);
}

TEST(WorkloadDriver, InactiveNodesNeverRequest) {
  NodeBehavior active;
  NodeBehavior inactive;
  inactive.active = false;
  Harness h(2, 1, {active, inactive}, 9);
  h.driver.begin();
  h.engine.run_until(1000);
  EXPECT_EQ(h.driver.requests_issued(0), 1);
  EXPECT_EQ(h.driver.requests_issued(1), 0);
}

TEST(WorkloadDriver, HoldForeverKeepsTheLease) {
  NodeBehavior behavior;
  behavior.hold_forever = true;
  behavior.think = Dist::fixed(1);
  Harness h(1, 1, {behavior}, 10);
  h.driver.begin();
  h.engine.run_until(5);
  h.port.grant(0, h.pool, h.engine.now());
  h.engine.run_until(h.engine.now() + 10000);
  EXPECT_EQ(h.port.releases, 0);
  EXPECT_TRUE(h.driver.holding(0));
}

TEST(WorkloadDriver, NeedClampedToK) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(1);
  behavior.need = Dist::fixed(99);
  Harness h(1, 3, {behavior}, 11);
  h.driver.begin();
  h.engine.run_until(5);
  EXPECT_EQ(h.port.last_need, 3);
}

TEST(WorkloadDriver, AdoptsSpuriousEntryAndReleasesIt) {
  // A corrupted State=Req served by the protocol: the driver never asked,
  // but must release it so the system cannot wedge on a phantom CS.
  NodeBehavior behavior;
  behavior.active = false;  // not even a requester
  behavior.cs_duration = Dist::fixed(7);
  Harness h(1, 1, {behavior}, 12);
  h.driver.begin();
  h.port.request(0, 1);  // raw-port request behind the driver's back
  h.port.grant(0, h.pool, h.engine.now());
  h.engine.run_until(20);
  EXPECT_EQ(h.port.releases, 1);
  EXPECT_EQ(h.driver.grants(0), 0);  // adopted, not counted as a grant
}

TEST(WorkloadDriver, ResyncSchedulesReleaseForStuckIn) {
  NodeBehavior behavior;
  behavior.cs_duration = Dist::fixed(7);
  Harness h(1, 1, {behavior}, 12);
  // Simulate corruption: node is In but the driver never saw an entry.
  h.port.states[0] = AppState::kIn;
  h.driver.resync();
  h.engine.run_until(20);
  EXPECT_EQ(h.port.releases, 1);
}

TEST(WorkloadDriver, ResyncRestartsIdleActiveNodes) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(3);
  Harness h(1, 1, {behavior}, 13);
  // No begin(): resync alone must start the loop for an Out node.
  h.driver.resync();
  h.engine.run_until(10);
  EXPECT_EQ(h.driver.requests_issued(0), 1);
}

TEST(WorkloadDriver, ResyncUnderHeterogeneousBehaviors) {
  // One holder camping, one relay, one active node waiting, one active
  // node mid-CS. A transient fault scrambles the protocol state; resync
  // must revoke what vanished, adopt what appeared, and keep the closed
  // loop running for exactly the active nodes.
  NodeBehavior holder;
  holder.hold_forever = true;
  holder.think = Dist::fixed(1);
  holder.max_requests = 1;
  NodeBehavior relay;
  relay.active = false;
  NodeBehavior active;
  active.think = Dist::fixed(4);
  active.cs_duration = Dist::fixed(6);
  Harness h(4, 2, {holder, relay, active, active}, 14);
  h.driver.begin();
  h.engine.run_until(2);
  h.port.grant(0, h.pool, h.engine.now());  // holder camps
  h.engine.run_until(5);                    // nodes 2,3 request
  h.port.grant(2, h.pool, h.engine.now());  // node 2 enters its CS
  ASSERT_TRUE(h.driver.holding(0));
  ASSERT_TRUE(h.driver.holding(2));
  ASSERT_EQ(h.port.state_of(3), AppState::kReq);

  // "Fault": the holder's units vanish, node 2 stays In, node 3's request
  // evaporates, and the relay wakes up inside a phantom CS.
  h.port.states[0] = AppState::kOut;
  h.port.states[1] = AppState::kIn;
  h.port.needs[1] = 1;
  h.port.states[3] = AppState::kOut;
  h.driver.resync();

  EXPECT_FALSE(h.driver.holding(0));  // revoked
  EXPECT_TRUE(h.driver.holding(1));   // phantom adopted
  EXPECT_TRUE(h.driver.holding(2));   // intact
  // Run past the phantom's cs_duration (default 32) and a few cycles.
  h.engine.run_until(h.engine.now() + 40);
  // The phantom CS was released, and the relay did not join the loop.
  EXPECT_EQ(h.port.state_of(1), AppState::kOut);
  EXPECT_FALSE(h.driver.holding(1));
  EXPECT_EQ(h.driver.requests_issued(1), 0);
  // The holder (budget spent) stays out; nodes 2 and 3 keep cycling.
  EXPECT_EQ(h.driver.requests_issued(0), 1);
  EXPECT_GE(h.driver.requests_issued(2), 2);
  EXPECT_GE(h.driver.requests_issued(3), 2);
}

/// Deny-time trajectory of one unreachable node under a small backoff
/// policy, sampled tick by tick. Unreachable denials are retryable, so
/// every one triggers a backoff whose jitter (if any) is drawn from the
/// driver's seeded rng -- the trajectory is a pure function of
/// (seed, policy).
std::vector<sim::SimTime> unreachable_deny_times(std::uint64_t seed,
                                                 sim::SimTime jitter) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(2);
  Harness h(1, 1, {behavior}, seed);
  proto::RetryPolicy policy;
  policy.backoff_base = 8;
  policy.backoff_cap_exponent = 2;
  policy.jitter = jitter;
  h.driver.set_retry_policy(policy);
  h.pool.set_reachable(0, false);
  h.driver.begin();
  std::vector<sim::SimTime> times;
  std::int64_t seen = 0;
  while (h.engine.now() < 1'000) {
    h.engine.run_until(h.engine.now() + 1);
    if (h.driver.deny_count(DenyReason::kUnreachable) > seen) {
      seen = h.driver.deny_count(DenyReason::kUnreachable);
      times.push_back(h.engine.now());
    }
  }
  return times;
}

TEST(WorkloadDriver, BackoffJitterReplaysBitIdentically) {
  // Jitter must decorrelate retries WITHOUT losing replay: two runs with
  // the same seed and policy retry at literally the same ticks.
  const auto first = unreachable_deny_times(21, 16);
  const auto second = unreachable_deny_times(21, 16);
  ASSERT_GE(first.size(), 8u);  // the loop actually kept retrying
  EXPECT_EQ(first, second);
}

TEST(WorkloadDriver, BackoffJitterPerturbsTheSchedule) {
  // ...while actually doing its job: the jittered trajectory differs
  // from the deterministic jitter=0 one, and from another seed's.
  const auto jittered = unreachable_deny_times(21, 16);
  EXPECT_NE(jittered, unreachable_deny_times(21, 0));
  EXPECT_NE(jittered, unreachable_deny_times(22, 16));
}

TEST(WorkloadDriver, TotalsAggregate) {
  NodeBehavior behavior;
  behavior.think = Dist::fixed(1);
  Harness h(3, 1, proto::uniform_behaviors(3, behavior), 14);
  h.driver.begin();
  h.engine.run_until(5);
  EXPECT_EQ(h.driver.total_requests(), 3);
  h.port.grant(1, h.pool, h.engine.now());
  EXPECT_EQ(h.driver.total_grants(), 1);
}

TEST(WorkloadDriver, PreWorkloadAdoptionIsIdenticalAtEveryLaneCount) {
  // A transient fault before begin_workload leaves corrupted requesters
  // that the protocol then grants; the driver adopts those critical
  // sections. At P > 1 the grants arrive inside parallel windows, where
  // nothing may be scheduled, so the driver holds them until begin():
  // P = 4 must replay P = 1.
  struct Outcome {
    int adopted = 0;
    sim::SimTime stabilized = 0;
    std::int64_t grants = 0;
    std::int64_t requests = 0;
    std::uint64_t events = 0;

    bool operator==(const Outcome&) const = default;
  };
  auto run = [](int threads) {
    proto::WorkloadSpec spec;
    spec.base.think = Dist::exponential(48);
    spec.base.cs_duration = Dist::exponential(24);
    spec.base.need = Dist::uniform(1, 2);
    Session session = SystemBuilder()
                          .topology(TopologySpec::tree_balanced(2, 4))
                          .kl(2, 4)
                          .seed(31)
                          .threads(threads)
                          .workload(spec)
                          .build_session();
    SystemBase& system = *session.system;
    system.run_until(20'000);
    support::Rng rng(5);
    system.inject_transient_fault(rng);
    system.run_until(60'000);
    Outcome out;
    for (NodeId node = 0; node < system.n(); ++node) {
      if (session.driver->holding(node)) ++out.adopted;
    }
    out.stabilized = system.run_until_stabilized(10'000'000);
    session.begin_workload();
    system.run_until(system.engine().now() + 200'000);
    out.grants = session.driver->total_grants();
    out.requests = session.driver->total_requests();
    out.events = system.engine().events_executed();
    return out;
  };
  const Outcome serial = run(1);
  EXPECT_GT(serial.adopted, 0);
  EXPECT_NE(serial.stabilized, sim::kTimeInfinity);
  EXPECT_GT(serial.grants, 0);
  EXPECT_TRUE(run(4) == serial);
}

TEST(WorkloadDriver, LatencyRecorderSeesExpectedGrantsOnly) {
  // Node 0 is granted while it waits: one sample. Node 1's wait is
  // abandoned at its deadline and its late grant is adopted: no sample.
  // Node 2 never requests; its raw-port grant is adopted: no sample.
  sim::Engine engine;
  FakePort port(3);
  ClientPool pool(port, 3, 1, MisusePolicy::kClamp, &engine);
  NodeBehavior behavior;
  behavior.think = Dist::fixed(10);
  behavior.cs_duration = Dist::fixed(50);
  NodeBehavior relay = behavior;
  relay.active = false;
  WorkloadDriver driver(engine, pool, {behavior, behavior, relay},
                        support::Rng(5));
  proto::RetryPolicy policy;
  policy.deadline = 20;
  driver.set_retry_policy(policy);
  std::vector<std::pair<NodeId, sim::SimTime>> samples;
  driver.set_latency_recorder([&](NodeId node, sim::SimTime latency) {
    samples.emplace_back(node, latency);
  });
  driver.begin();
  engine.run_until(15);
  ASSERT_EQ(port.requests, 2);  // both active nodes asked at t = 10
  port.grant(0, pool, engine.now());
  engine.run_until(31);  // node 1's deadline passed at t = 30
  EXPECT_EQ(driver.deny_count(DenyReason::kDeadlineExceeded), 1);
  port.grant(1, pool, engine.now());
  EXPECT_TRUE(driver.holding(1));  // adopted
  port.request(2, 1);
  port.grant(2, pool, engine.now());
  EXPECT_TRUE(driver.holding(2));  // adopted
  engine.run_until(40);
  EXPECT_EQ(driver.total_grants(), 1);
  EXPECT_EQ(samples,
            (std::vector<std::pair<NodeId, sim::SimTime>>{{0, 5}}));
  // Without a recorder the driver stores nothing per grant.
  driver.set_latency_recorder(nullptr);
  engine.run_until(200);
  EXPECT_EQ(samples.size(), 1u);
}

TEST(WorkloadDriver, ClosedLoopsCreateNoCallbackSlots) {
  // Think-end, CS-end and acquire deadlines are typed engine actions:
  // they count as scheduled callbacks but never take a slot -- on a
  // plain engine and on a fleet.
  proto::WorkloadSpec spec;
  spec.base.think = Dist::exponential(48);
  spec.base.cs_duration = Dist::exponential(24);
  spec.base.need = Dist::uniform(1, 2);
  proto::RetryPolicy policy;
  policy.deadline = 40;  // short: many waits are abandoned
  for (int fleet : {1, 4}) {
    SystemBuilder builder;
    builder.topology(TopologySpec::tree_balanced(2, 4))
        .kl(2, 4)
        .seed(17)
        .workload(spec)
        .retry_policy(policy);
    if (fleet > 1) builder.fleet(fleet);
    Session session = builder.build_session();
    SystemBase& system = *session.system;
    ASSERT_NE(system.run_until_stabilized(10'000'000), sim::kTimeInfinity);
    session.begin_workload();
    system.run_until(system.engine().now() + 50'000);
    EXPECT_GT(session.driver->total_grants(), 100) << "fleet " << fleet;
    EXPECT_GT(session.driver->deny_count(DenyReason::kDeadlineExceeded), 0)
        << "fleet " << fleet;
    const sim::EngineStats stats = system.engine().stats();
    EXPECT_GT(stats.callbacks_scheduled, 1'000u) << "fleet " << fleet;
    EXPECT_EQ(stats.callback_slots_created, 0u) << "fleet " << fleet;
  }
}

}  // namespace
}  // namespace klex
