// Fleet unit tests (a System with SystemConfig::tenants = R): tenant
// geometry, per-tenant census and fault isolation, per-tenant epoch-cut
// recovery, client sessions spanning tenants (including topology-churn
// isolation), the cross-tenant workload class, and the per-reason deny
// counters.
//
// The trace-level standalone-equivalence claims live in
// tests/integration/fleet_differential_test.cpp; this file covers the
// fleet surface itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/system.hpp"
#include "sim/chaos.hpp"
#include "support/rng.hpp"
#include "tree/tree.hpp"

namespace klex {
namespace {

SystemConfig fleet_config(tree::Tree tree, int tenants, std::uint64_t seed,
                          proto::Features features = proto::Features::full()) {
  SystemConfig config;
  config.tree = std::move(tree);
  config.k = 1;
  config.l = 2;
  config.features = features;
  config.seed = seed;
  config.tenants = tenants;
  return config;
}

SystemConfig geometry_config() {
  SystemConfig config = fleet_config(tree::balanced(2, 2), 3, 321);
  config.k = 2;
  config.l = 4;
  return config;
}

TEST(FleetSystemTest, GeometryMapsTenantsToContiguousRanges) {
  System fleet(geometry_config());

  ASSERT_EQ(fleet.tenant_count(), 3);
  EXPECT_EQ(fleet.n(), 21);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(fleet.tenant_n(t), 7);
    EXPECT_EQ(fleet.node_begin(t), 7 * t);
    EXPECT_EQ(fleet.node_end(t), 7 * t + 7);
  }

  for (int t = 0; t < fleet.tenant_count(); ++t) {
    for (NodeId local = 0; local < fleet.tenant_n(t); ++local) {
      const NodeId global = fleet.node_begin(t) + local;
      EXPECT_EQ(fleet.tenant_of(global), t);
      EXPECT_EQ(global - fleet.node_begin(fleet.tenant_of(global)), local);
    }
  }

  // Every tenant runs the config's params; l() is the system-wide bound.
  EXPECT_EQ(fleet.params().k, 2);
  EXPECT_EQ(fleet.params().l, 4);
  EXPECT_EQ(fleet.k(), 2);
  EXPECT_EQ(fleet.l(), 3 * 4);

  // Serial fleet: everyone on lane 0.
  EXPECT_EQ(fleet.threads(), 1);
  for (NodeId node = 0; node < fleet.n(); ++node) {
    EXPECT_EQ(fleet.engine().lane_of(node), 0);
  }

  // Clients are stamped with their tenant at pool creation.
  ClientPool& pool = fleet.clients();
  for (int t = 0; t < fleet.tenant_count(); ++t) {
    for (NodeId node = fleet.node_begin(t); node < fleet.node_end(t); ++node) {
      EXPECT_EQ(pool.at(node).tenant(), t);
    }
  }
}

TEST(FleetSystemTest, LanePartitionIsTenantContiguousAndBalanced) {
  SystemConfig config = fleet_config(tree::line(4), 6, 1);
  config.threads = 3;
  System fleet(config);
  auto lane_of_tenant = [&fleet](int t) {
    return fleet.engine().lane_of(fleet.node_begin(t));
  };

  EXPECT_EQ(fleet.threads(), 3);
  int last_lane = 0;
  for (int t = 0; t < fleet.tenant_count(); ++t) {
    const int lane = lane_of_tenant(t);
    EXPECT_GE(lane, last_lane) << "lanes must be tenant-contiguous";
    EXPECT_LT(lane, 3);
    for (NodeId node = fleet.node_begin(t); node < fleet.node_end(t); ++node) {
      EXPECT_EQ(fleet.engine().lane_of(node), lane) << "tenant " << t;
    }
    last_lane = lane;
  }
  // 6 equal tenants over 3 lanes: 2 tenants per lane.
  EXPECT_EQ(lane_of_tenant(1), 0);
  EXPECT_EQ(lane_of_tenant(2), 1);
  EXPECT_EQ(lane_of_tenant(5), 2);
}

TEST(FleetSystemTest, SingleTenantFaultLeavesOtherTenantsCorrect) {
  System fleet(fleet_config(tree::line(6), 4, 99));

  ASSERT_NE(fleet.run_until_stabilized(2'000'000), sim::kTimeInfinity);
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
  }

  support::Rng fault(2024);
  fleet.inject_transient_fault_tenant(2, fault);

  // The O(1) per-tenant census notices the corruption immediately -- and
  // only in the faulted tenant.
  EXPECT_FALSE(fleet.tenant_correct(2));
  for (int t : {0, 1, 3}) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
  }
  EXPECT_FALSE(fleet.token_counts_correct());

  // Self-stabilization recovers the faulted tenant; nobody ran an
  // epoch-cut drain.
  ASSERT_NE(fleet.run_until_stabilized(8'000'000), sim::kTimeInfinity);
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
    EXPECT_NE(fleet.tenant_stabilized_at(t), sim::kTimeInfinity);
    EXPECT_EQ(fleet.tenant_recovery_events(t), 0) << "tenant " << t;
  }
}

TEST(FleetSystemTest, EpochCutRecoversExactlyTheFaultedTenant) {
  System fleet(fleet_config(tree::line(6), 3, 7,
                            proto::Features::full().with_epoch_cut()));

  ASSERT_NE(fleet.run_until_stabilized(2'000'000), sim::kTimeInfinity);

  // Legitimate tenant: the drain refuses (no-op, false).
  EXPECT_FALSE(fleet.epoch_cut_recover_tenant(1));
  EXPECT_EQ(fleet.tenant_recovery_events(1), 0);

  support::Rng fault(11);
  fleet.inject_transient_fault_tenant(1, fault);
  ASSERT_FALSE(fleet.tenant_correct(1));

  EXPECT_TRUE(fleet.epoch_cut_recover_tenant(1));
  EXPECT_EQ(fleet.tenant_recovery_events(1), 1);
  EXPECT_EQ(fleet.tenant_recovery_events(0), 0);
  EXPECT_EQ(fleet.tenant_recovery_events(2), 0);

  // The drain re-boots the tenant; it restabilizes, others untouched.
  ASSERT_NE(fleet.run_until_stabilized(8'000'000), sim::kTimeInfinity);
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
  }

  // The fleet-wide epoch_cut_recover only drains illegitimate tenants:
  // with everyone legitimate it is a no-op.
  EXPECT_FALSE(fleet.epoch_cut_recover());
  EXPECT_EQ(fleet.tenant_recovery_events(1), 1);
}

TEST(FleetSystemTest, GlobalCallbackReprobesEveryTenant) {
  // A deferred epoch cut is a global callback that drains every faulted
  // tenant in one step: each tenant's stretch begins at that step (tick
  // 20'050) -- not at the tenant's next own event -- and no tenant leaves
  // the legitimate set after the cut. The drain moves every member's myC
  // outside the flag domain, so a corrupted myC that equals the root's
  // fresh flag value cannot make the first visit look stale, keep a
  // corrupted Succ and let the root's top-up mint a second population
  // (fault seed 7 did that in tenant 2, and 8 of these 30 seeds in some
  // tenant). The confirmation window spans many circulations of a
  // 3-node tenant.
  const sim::SimTime kFaultAt = 20'000;
  const sim::SimTime kCutAt = kFaultAt + 50;
  for (std::uint64_t fault_seed = 1; fault_seed <= 30; ++fault_seed) {
    System fleet(fleet_config(tree::line(3), 4, 1,
                              proto::Features::full().with_epoch_cut()));
    fleet.run_until(kFaultAt);
    support::Rng fault(fault_seed);
    fleet.inject_transient_fault(fault);
    std::vector<bool> faulted;
    for (int t = 0; t < 4; ++t) faulted.push_back(!fleet.tenant_correct(t));
    fleet.engine().schedule(kCutAt - kFaultAt,
                            [&fleet] { fleet.epoch_cut_recover(); });

    const bool any_faulted = faulted[0] || faulted[1] || faulted[2] ||
                             faulted[3];
    EXPECT_EQ(fleet.run_until_stabilized(2'000'000, 64, 30),
              any_faulted ? kCutAt : kFaultAt)
        << "fault seed " << fault_seed;
    for (int t = 0; t < 4; ++t) {
      const bool cut = faulted[static_cast<std::size_t>(t)];
      EXPECT_EQ(fleet.tenant_stabilized_at(t), cut ? kCutAt : kFaultAt)
          << "fault seed " << fault_seed << ", tenant " << t;
      EXPECT_EQ(fleet.tenant_recovery_events(t), cut ? 1 : 0)
          << "fault seed " << fault_seed << ", tenant " << t;
    }
  }
}

TEST(FleetSystemTest, ChurnInOneTenantDoesNotRevokeLeasesInAnother) {
  // One logical application holding leases in two tenants through the
  // same local id: taking its tenant-0 node unreachable (topology churn)
  // must revoke exactly the tenant-0 lease and leave the tenant-1
  // session untouched.
  System fleet(fleet_config(tree::line(4), 2, 5150));
  ASSERT_NE(fleet.run_until_stabilized(2'000'000), sim::kTimeInfinity);

  const NodeId local = 2;
  const NodeId in_a = fleet.node_begin(0) + local;
  const NodeId in_b = fleet.node_begin(1) + local;
  ClientPool& pool = fleet.clients();

  std::vector<Lease> held;
  int revoked_a = 0;
  int revoked_b = 0;
  pool.at(in_a).on_granted([&](Lease lease) {
    EXPECT_EQ(lease.tenant(), 0);
    held.push_back(std::move(lease));
  });
  pool.at(in_b).on_granted([&](Lease lease) {
    EXPECT_EQ(lease.tenant(), 1);
    held.push_back(std::move(lease));
  });
  pool.at(in_a).on_revoked([&] { ++revoked_a; });
  pool.at(in_b).on_revoked([&] { ++revoked_b; });

  pool.at(in_a).acquire(1);
  pool.at(in_b).acquire(1);
  fleet.run_until(fleet.engine().now() + 200'000);
  ASSERT_TRUE(pool.at(in_a).holding());
  ASSERT_TRUE(pool.at(in_b).holding());
  ASSERT_EQ(held.size(), 2u);

  // Tenant 0's node churns out.
  pool.set_reachable(in_a, false);
  EXPECT_EQ(revoked_a, 1);
  EXPECT_EQ(revoked_b, 0);
  EXPECT_FALSE(pool.at(in_a).holding());
  EXPECT_TRUE(pool.at(in_b).holding());

  // The surviving tenant-1 lease still releases cleanly, and the downed
  // session denies (kUnreachable) without touching tenant 1.
  int denied_unreachable = 0;
  pool.at(in_a).on_denied([&](DenyReason reason) {
    if (reason == DenyReason::kUnreachable) ++denied_unreachable;
  });
  pool.at(in_a).acquire(1);
  EXPECT_EQ(denied_unreachable, 1);
  EXPECT_TRUE(pool.at(in_b).holding());

  for (Lease& lease : held) lease.release();  // revoked tenant-0 lease no-ops
  fleet.run_until(fleet.engine().now() + 100'000);
  EXPECT_FALSE(pool.at(in_b).holding());

  // Back up: the session re-opens. The protocol still has the node in
  // its critical section (the revocation was session-side only), so the
  // session adopts it on resync and can release it cleanly.
  pool.set_reachable(in_a, true);
  Lease adopted;
  pool.at(in_a).on_unexpected_grant(
      [&](Lease lease) { adopted = std::move(lease); });
  pool.at(in_a).resync();
  ASSERT_TRUE(adopted.active());
  EXPECT_EQ(adopted.tenant(), 0);
  adopted.release();
  fleet.run_until(fleet.engine().now() + 200'000);
  EXPECT_FALSE(pool.at(in_a).holding());
  EXPECT_TRUE(fleet.tenant_correct(0));
  EXPECT_TRUE(fleet.tenant_correct(1));
}

TEST(FleetSystemTest, ChaosBurstHitsExactlyTheTargetTenant) {
  // chaos_burst_tenant is the chaos-isolation twin of the per-tenant
  // fault entry points: a blackout burst on tenant 1 must drop tenant
  // 1's traffic and be invisible to the other tenants' links.
  System fleet(fleet_config(tree::line(6), 3, 909));
  // Pass-through chaos model: steady config is reliable FIFO (zero
  // knobs), only bursts perturb anything.
  fleet.engine().configure_chaos(sim::ChaosConfig{});
  ASSERT_NE(fleet.run_until_stabilized(2'000'000), sim::kTimeInfinity);
  ASSERT_EQ(fleet.engine().chaos_stats().dropped, 0u);

  // Black out tenant 1's channels while its transient-fault recovery
  // traffic is trying to run: every repair message it sends is eaten.
  sim::ChaosConfig blackout;
  blackout.drop_p = 1.0;
  fleet.chaos_burst_tenant(1, blackout, 200'000);
  support::Rng fault(2025);
  fleet.inject_transient_fault_tenant(1, fault);
  EXPECT_FALSE(fleet.tenant_correct(1));

  fleet.run_until(fleet.engine().now() + 150'000);
  const sim::ChaosStats mid = fleet.engine().chaos_stats();
  EXPECT_GT(mid.dropped, 0u) << "recovery traffic must hit the blackout";
  // The blackout pins tenant 1 down; the other tenants never notice.
  EXPECT_FALSE(fleet.tenant_correct(1));
  for (int t : {0, 2}) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
  }

  // Channel scoping, not time scoping: the drops land on a subset of
  // links (tenant 1's contiguous range); plenty of links stayed clean.
  const sim::ChaosModel* model = fleet.engine().chaos_model();
  ASSERT_NE(model, nullptr);
  int hit = 0;
  int clean = 0;
  for (int c = 0; c < fleet.engine().channel_count(); ++c) {
    if (model->link(c).stats.dropped > 0) {
      ++hit;
    } else {
      ++clean;
    }
  }
  EXPECT_GT(hit, 0);
  EXPECT_GT(clean, 0) << "a tenant burst must not cover every link";

  // The burst expires lazily; the re-minted population restabilizes the
  // faulted tenant and the steady pass-through config drops nothing.
  ASSERT_NE(fleet.run_until_stabilized(8'000'000), sim::kTimeInfinity);
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(fleet.tenant_correct(t)) << "tenant " << t;
  }
  const sim::ChaosStats after = fleet.engine().chaos_stats();
  fleet.run_until(fleet.engine().now() + 100'000);
  EXPECT_EQ(fleet.engine().chaos_stats().dropped, after.dropped)
      << "steady zero config must stop dropping once the burst expired";
}

TEST(FleetSystemTest, CrossTenantClassOccupiesTheSameLocalIdEverywhere) {
  proto::WorkloadSpec spec;
  spec.classes.push_back(
      proto::BehaviorClass::cross_tenant_sessions("span", 3, 1));
  spec.classes.push_back(proto::BehaviorClass::relays("relays", 0.25));

  SystemBuilder builder;
  builder.topology(TopologySpec::tree_balanced(2, 3))
      .kl(1, 2)
      .seed(31)
      .fleet(4)
      .workload(spec);
  Session session = builder.build_session();
  const SystemBase* fleet = session.system.get();
  ASSERT_EQ(fleet->tenant_count(), 4);

  const int n = fleet->tenant_n(0);
  const std::vector<int>& cls = session.workload.class_index;
  ASSERT_EQ(cls.size(), static_cast<std::size_t>(fleet->n()));

  int span_members = 0;
  for (NodeId local = 0; local < n; ++local) {
    // Whatever class local id took in tenant 0, the cross-tenant class
    // (index 0) occupies the same slot in every tenant -- and only it is
    // forced to agree across tenants.
    bool is_span = cls[static_cast<std::size_t>(local)] == 0;
    if (is_span) ++span_members;
    for (int t = 0; t < fleet->tenant_count(); ++t) {
      std::size_t idx =
          static_cast<std::size_t>(fleet->node_begin(t) + local);
      if (is_span) {
        EXPECT_EQ(cls[idx], 0) << "tenant " << t << " local " << local;
      } else {
        EXPECT_NE(cls[idx], 0) << "tenant " << t << " local " << local;
      }
    }
  }
  EXPECT_EQ(span_members, 3);
}

TEST(FleetSystemTest, TenantObserversRejectBadTenants) {
  // The observers check the tenant like the per-tenant mutators do,
  // instead of reading past their per-tenant vectors -- on a fleet and on
  // a plain system, which is tenant 0 of one.
  auto fleet = std::make_unique<System>(geometry_config());
  std::unique_ptr<SystemBase> plain = SystemBuilder()
                                          .topology(TopologySpec::tree_line(6))
                                          .kl(1, 2)
                                          .seed(321)
                                          .build();
  EXPECT_EQ(plain->tenant_count(), 1);
  for (SystemBase* system : {static_cast<SystemBase*>(fleet.get()),
                             plain.get()}) {
    ASSERT_NE(system->run_until_stabilized(1'000'000), sim::kTimeInfinity);
    for (int bad : {-1, system->tenant_count()}) {
      EXPECT_THROW(system->tenant_correct(bad), std::invalid_argument) << bad;
      EXPECT_THROW(system->tenant_stabilized_at(bad), std::invalid_argument)
          << bad;
      EXPECT_THROW(system->tenant_recovery_events(bad), std::invalid_argument)
          << bad;
      EXPECT_THROW(system->tenant_events_executed(bad), std::invalid_argument)
          << bad;
      EXPECT_THROW(system->tenant_sent_of_type(bad, 0), std::invalid_argument)
          << bad;
      EXPECT_THROW(system->node_begin(bad), std::invalid_argument) << bad;
      EXPECT_THROW(system->node_end(bad), std::invalid_argument) << bad;
      EXPECT_THROW(system->tenant_n(bad), std::invalid_argument) << bad;
      EXPECT_THROW(system->channel_begin(bad), std::invalid_argument) << bad;
      EXPECT_THROW(system->channel_end(bad), std::invalid_argument) << bad;
    }
    const int last = system->tenant_count() - 1;
    EXPECT_TRUE(system->tenant_correct(last));
    EXPECT_NE(system->tenant_stabilized_at(last), sim::kTimeInfinity);
    EXPECT_EQ(system->tenant_recovery_events(last), 0);
  }
  EXPECT_EQ(plain->tenant_correct(0), plain->token_counts_correct());
}

TEST(FleetSystemTest, DenyCountersLabelEveryReason) {
  // satellite: to_string(DenyReason) + per-reason counters.
  for (int r = 0; r < kDenyReasonCount; ++r) {
    auto reason = static_cast<DenyReason>(r);
    EXPECT_STREQ(to_string(reason), deny_reason_name(reason));
    EXPECT_NE(std::string(to_string(reason)), "");
  }

  // An unreachable node makes the closed loop observe kUnreachable
  // denials (retried with backoff) -- a deterministic way to exercise
  // the per-reason tally.
  proto::WorkloadSpec spec;
  spec.base.think = proto::Dist::fixed(4);
  spec.base.cs_duration = proto::Dist::fixed(8);
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_line(6)).kl(1, 2).seed(12)
      .workload(spec);
  Session session = builder.build_session();
  session.begin_workload();
  session.system->run_until(100'000);
  EXPECT_GT(session.driver->total_grants(), 0);
  EXPECT_EQ(session.driver->total_denials(), 0);

  session.system->clients().set_reachable(0, false);
  session.driver->resync();
  session.system->run_until(300'000);

  EXPECT_GT(session.driver->deny_count(DenyReason::kUnreachable), 0);
  std::int64_t sum = 0;
  for (int r = 0; r < kDenyReasonCount; ++r) {
    sum += session.driver->deny_count(static_cast<DenyReason>(r));
  }
  EXPECT_EQ(session.driver->total_denials(), sum);
}

}  // namespace
}  // namespace klex
