// The epoch-cut batched recovery drain (Features::epoch_cut).
//
// Pins the contract of SystemBase::epoch_cut_recover(): a no-op on a
// legitimate population, a single batched pass otherwise -- channels
// wiped, stored tokens drained through the delta sinks (so the
// incremental census stays exact), the root re-minted -- after which the
// system confirms stabilization quickly instead of circulating garbage
// for Θ(n) ticks. Also pins that the rung is strictly opt-in: without
// Features::epoch_cut the call refuses, and Session::apply_fault_event
// only cuts on cut-enabled systems.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "api/builder.hpp"
#include "exp/scenario.hpp"
#include "proto/census.hpp"

namespace klex {
namespace {

std::unique_ptr<SystemBase> make_cut_system(const exp::TopologySpec& topo,
                                            std::uint64_t seed) {
  return SystemBuilder()
      .topology(topo)
      .kl(2, 4)
      .cmax(3)
      .features(proto::Features::full().with_epoch_cut())
      .seed(seed)
      .build();
}

TEST(EpochCut, FeatureNamesComposeWithCut) {
  EXPECT_STREQ(proto::Features::full().with_epoch_cut().name(), "full+cut");
  EXPECT_STREQ(proto::Features::naive().with_epoch_cut().name(),
               "naive+cut");
  EXPECT_STREQ(proto::Features::with_priority().with_epoch_cut().name(),
               "pusher+priority+cut");
  // The cut flag does not perturb the plain rung names the committed
  // baselines are keyed by.
  EXPECT_STREQ(proto::Features::full().name(), "full");
}

TEST(EpochCut, RecoverRequiresTheRung) {
  auto system = SystemBuilder()
                    .topology(exp::TopologySpec::tree_line(8))
                    .kl(1, 2)
                    .build();
  EXPECT_THROW(system->epoch_cut_recover(), std::logic_error);
}

TEST(EpochCut, NoOpOnLegitimatePopulation) {
  auto system = make_cut_system(exp::TopologySpec::tree_line(8), 5);
  ASSERT_NE(system->run_until_stabilized(10'000'000), sim::kTimeInfinity);
  std::uint64_t delivered = system->engine().messages_delivered();
  EXPECT_FALSE(system->epoch_cut_recover());
  EXPECT_EQ(system->engine().messages_delivered(), delivered);
  EXPECT_TRUE(system->token_counts_correct());
}

TEST(EpochCut, DrainsTransientFaultInOnePass) {
  auto system = make_cut_system(exp::TopologySpec::tree_random(24, 3), 11);
  ASSERT_NE(system->run_until_stabilized(10'000'000), sim::kTimeInfinity);

  support::Rng rng(0xC0FFEEu);
  system->inject_transient_fault(rng);
  ASSERT_FALSE(system->token_counts_correct())
      << "fault seeded a legitimate population by chance; pick a new seed";

  std::uint64_t events_before = system->engine().events_executed();
  EXPECT_TRUE(system->epoch_cut_recover());

  // The cut is a batched pass, not a simulation: no events executed, and
  // the population is legitimate the moment it returns (the fresh mint
  // is in flight, every stored token is gone).
  EXPECT_EQ(system->engine().events_executed(), events_before);
  EXPECT_TRUE(system->token_counts_correct());

  // The incremental census stayed exact through the drain hooks.
  proto::TokenCensus tracked = system->census();
  proto::TokenCensus oracle = system->census_oracle();
  EXPECT_EQ(tracked.free_resource, oracle.free_resource);
  EXPECT_EQ(tracked.reserved_resource, oracle.reserved_resource);
  EXPECT_EQ(tracked.pusher, oracle.pusher);
  EXPECT_EQ(tracked.free_priority, oracle.free_priority);
  EXPECT_EQ(tracked.held_priority, oracle.held_priority);
  EXPECT_EQ(oracle.reserved_resource, 0);
  EXPECT_EQ(oracle.held_priority, 0);

  // And the population stays legitimate: stabilization confirms from the
  // cut timestamp, no reset circulation needed.
  sim::SimTime fault_at = system->engine().now();
  sim::SimTime recovered =
      system->run_until_stabilized(fault_at + 10'000'000);
  ASSERT_NE(recovered, sim::kTimeInfinity);
  EXPECT_EQ(recovered, fault_at);
}

TEST(EpochCut, DrainsGarbageFloodBeyondCmax) {
  // A flood far beyond the CMAX the myC domain was sized for: the pure
  // protocol's convergence guarantee is void here, the cut's is not.
  auto system = make_cut_system(exp::TopologySpec::tree_line(8), 21);
  ASSERT_NE(system->run_until_stabilized(10'000'000), sim::kTimeInfinity);
  support::Rng rng(77);
  system->flood_channels(rng, /*garbage_per_channel=*/32);
  ASSERT_FALSE(system->token_counts_correct());
  EXPECT_TRUE(system->epoch_cut_recover());
  EXPECT_TRUE(system->token_counts_correct());
  sim::SimTime now = system->engine().now();
  ASSERT_NE(system->run_until_stabilized(now + 10'000'000),
            sim::kTimeInfinity);
}

TEST(EpochCut, WorksOnRingAndGraphToo) {
  for (const exp::TopologySpec& topo :
       {exp::TopologySpec::ring(12),
        exp::TopologySpec::graph_random(16, 10, 3)}) {
    auto system = make_cut_system(topo, 31);
    ASSERT_NE(system->run_until_stabilized(10'000'000), sim::kTimeInfinity);
    support::Rng rng(0xABCu);
    system->inject_transient_fault(rng);
    if (system->token_counts_correct()) continue;  // vanishingly unlikely
    EXPECT_TRUE(system->epoch_cut_recover());
    EXPECT_TRUE(system->token_counts_correct());
    sim::SimTime now = system->engine().now();
    ASSERT_NE(system->run_until_stabilized(now + 10'000'000),
              sim::kTimeInfinity);
  }
}

TEST(EpochCut, SessionAppliesCutOnPlannedFault) {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::exponential(40);
  workload.base.cs_duration = proto::Dist::exponential(20);
  workload.base.need = proto::Dist::uniform(1, 2);

  Session session = SystemBuilder()
                        .topology(exp::TopologySpec::tree_random(16, 9))
                        .kl(2, 4)
                        .features(proto::Features::full().with_epoch_cut())
                        .seed(99)
                        .workload(workload)
                        .fault(FaultKind::kTransient)
                        .build_session();
  ASSERT_NE(session.system->run_until_stabilized(10'000'000),
            sim::kTimeInfinity);
  session.begin_workload();
  session.system->run_until(session.system->engine().now() + 100'000);

  support::Rng rng(0xFA17u);
  session.apply_fault_event(session.fault_plan.events.front(), rng);
  // The cut ran inside apply_fault_event: population legitimate with
  // zero recovery simulation, and the driver was resynced (post-fault
  // workload keeps making progress).
  EXPECT_TRUE(session.system->token_counts_correct());
  std::int64_t grants_before = session.driver->total_grants();
  session.system->run_until(session.system->engine().now() + 200'000);
  EXPECT_GT(session.driver->total_grants(), grants_before);
}

}  // namespace
}  // namespace klex
