// Fleet differential tests: the correctness anchor of the multi-tenant
// subsystem (api/fleet.hpp).
//
// The fleet's design claim is *standalone equivalence*: tenant t of a
// FleetSystem built with seed S replays, message for message, the
// standalone System built with seed S + t -- whatever the other tenants
// do. These tests pin that claim at full trace granularity:
//
//   1. fleet(1) is bit-identical to the plain single-system build
//      (same sends, same deliveries, same grants, same fault response);
//   2. every tenant of fleet(3) replays its standalone twin, including
//      through a transient fault injected into ONE tenant only -- the
//      faulted tenant tracks its (equally faulted) twin and the others
//      never notice -- and every tenant of a fleet(4) under steady chaos
//      replays its equally chaotic twin (chaos draws come from the
//      tenant's own channel rngs);
//   3. each tenant's waiting-time samples (the paper's metric, scoped to
//      the tenant) equal its standalone twin's;
//   4. the worker-lane count changes nothing per tenant (serial vs
//      windowed parallel execution), and each tenant still matches its
//      standalone twin's counters.
//
// All phases run to fixed horizons (run_until aligns every lane clock
// exactly at the horizon), so out-of-event actions -- fault injection,
// driver resync -- happen at identical simulated times on both sides.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/fleet.hpp"
#include "proto/messages.hpp"
#include "sim/chaos.hpp"
#include "sim/engine.hpp"
#include "stats/waiting_time.hpp"

namespace klex {
namespace {

constexpr std::int32_t kResourceType =
    static_cast<std::int32_t>(proto::TokenType::kResource);

struct TraceEvent {
  sim::SimTime at = 0;
  int kind = 0;  // 0 = send, 1 = deliver
  NodeId node = -1;
  int channel = -1;
  sim::Message msg{};

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class Recorder final : public sim::SimObserver {
 public:
  void on_send(sim::SimTime at, sim::NodeId from, int channel,
               const sim::Message& msg) override {
    events.push_back({at, 0, from, channel, msg});
  }
  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override {
    events.push_back({at, 1, to, channel, msg});
  }

  std::vector<TraceEvent> events;
};

void expect_traces_equal(const std::vector<TraceEvent>& fleet_side,
                         const std::vector<TraceEvent>& single_side,
                         const std::string& label) {
  ASSERT_EQ(fleet_side.size(), single_side.size()) << label;
  for (std::size_t i = 0; i < fleet_side.size(); ++i) {
    const TraceEvent& a = fleet_side[i];
    const TraceEvent& b = single_side[i];
    ASSERT_TRUE(a == b) << label << ": first divergence at trace index " << i
                        << " (at " << a.at << " vs " << b.at << ", kind "
                        << a.kind << " vs " << b.kind << ", node " << a.node
                        << " vs " << b.node << ", channel " << a.channel
                        << " vs " << b.channel << ")";
  }
}

/// The fleet trace restricted to one tenant, re-expressed in tenant-local
/// node ids (channel indexes are per-node and need no translation).
std::vector<TraceEvent> tenant_slice(const std::vector<TraceEvent>& all,
                                     const FleetSystem& fleet, int tenant) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : all) {
    if (fleet.tenant_of(event.node) != tenant) continue;
    TraceEvent local = event;
    local.node -= fleet.node_begin(tenant);
    out.push_back(local);
  }
  return out;
}

/// A workload with some heterogeneity so the class-materialization and
/// driver rng streams actually matter: relays, a budgeted class, and a
/// contended base (need can exceed 1).
proto::WorkloadSpec contention_spec() {
  proto::WorkloadSpec spec;
  spec.base.think = proto::Dist::exponential(48);
  spec.base.cs_duration = proto::Dist::exponential(24);
  spec.base.need = proto::Dist::uniform(1, 2);
  spec.classes.push_back(proto::BehaviorClass::relays("relays", 0.2));
  spec.classes.push_back(proto::BehaviorClass::budgeted("oneshot", 2, 2, 4));
  return spec;
}

SystemBuilder base_builder(std::uint64_t seed) {
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_balanced(2, 3)).kl(2, 4).seed(seed);
  return builder;
}

TEST(FleetDifferentialTest, FleetOfOneIsBitIdenticalToSingleSystem) {
  const std::uint64_t seed = 4242;
  auto make = [&](bool as_fleet) {
    SystemBuilder builder = base_builder(seed);
    builder.workload(contention_spec());
    if (as_fleet) builder.fleet(1);
    return builder.build_session();
  };
  Session single = make(false);
  Session fleet = make(true);
  ASSERT_NE(single.driver, nullptr);
  ASSERT_NE(fleet.driver, nullptr);
  auto* fleet_system = dynamic_cast<FleetSystem*>(fleet.system.get());
  ASSERT_NE(fleet_system, nullptr);
  EXPECT_EQ(fleet_system->tenant_count(), 1);
  EXPECT_EQ(dynamic_cast<FleetSystem*>(single.system.get()), nullptr);
  EXPECT_EQ(fleet.system->n(), single.system->n());

  Recorder single_trace;
  Recorder fleet_trace;
  single.system->add_observer(&single_trace);
  fleet.system->add_observer(&fleet_trace);

  // Phase 0: initial stabilization reports the identical instant through
  // the fleet's incremental per-tenant probe.
  sim::SimTime single_stable = single.system->run_until_stabilized(1'000'000);
  sim::SimTime fleet_stable = fleet.system->run_until_stabilized(1'000'000);
  ASSERT_NE(single_stable, sim::kTimeInfinity);
  EXPECT_EQ(fleet_stable, single_stable);
  EXPECT_EQ(fleet_system->tenant_stabilized_at(0), fleet_stable);
  EXPECT_TRUE(fleet_system->tenant_correct(0));

  // Phase 1: closed-loop workload to a fixed horizon.
  single.begin_workload();
  fleet.begin_workload();
  const sim::SimTime kT1 = 400'000;
  single.system->run_until(kT1);
  fleet.system->run_until(kT1);
  expect_traces_equal(fleet_trace.events, single_trace.events,
                      "fleet(1) pre-fault");
  EXPECT_GT(single.driver->total_grants(), 0);
  EXPECT_EQ(fleet.driver->total_grants(), single.driver->total_grants());
  EXPECT_EQ(fleet.driver->total_requests(), single.driver->total_requests());

  // Phase 2: identical transient faults (identically seeded rngs draw the
  // identical corruption), symmetric driver resync, another fixed horizon.
  support::Rng single_fault(seed ^ 0x5EEDull);
  support::Rng fleet_fault(seed ^ 0x5EEDull);
  single.system->inject_transient_fault(single_fault);
  fleet.system->inject_transient_fault(fleet_fault);
  single.driver->resync();
  fleet.driver->resync();
  const sim::SimTime kT2 = 800'000;
  single.system->run_until(kT2);
  fleet.system->run_until(kT2);
  expect_traces_equal(fleet_trace.events, single_trace.events,
                      "fleet(1) post-fault");

  EXPECT_EQ(fleet.driver->total_grants(), single.driver->total_grants());
  EXPECT_EQ(fleet.driver->total_requests(), single.driver->total_requests());
  EXPECT_EQ(fleet.driver->total_denials(), single.driver->total_denials());
  for (int r = 0; r < kDenyReasonCount; ++r) {
    EXPECT_EQ(fleet.driver->deny_count(static_cast<DenyReason>(r)),
              single.driver->deny_count(static_cast<DenyReason>(r)))
        << to_string(static_cast<DenyReason>(r));
  }
  EXPECT_EQ(fleet.system->engine().messages_sent(),
            single.system->engine().messages_sent());
  EXPECT_EQ(fleet.system->engine().messages_delivered(),
            single.system->engine().messages_delivered());
  EXPECT_EQ(fleet.system->engine().events_executed(),
            single.system->engine().events_executed());
  EXPECT_EQ(fleet.system->token_counts_correct(),
            single.system->token_counts_correct());
}

TEST(FleetDifferentialTest, EachTenantReplaysItsStandaloneTwin) {
  const std::uint64_t seed = 777;
  const int kTenants = 3;

  SystemBuilder fleet_builder = base_builder(seed);
  fleet_builder.workload(contention_spec()).fleet(kTenants);
  Session fleet = fleet_builder.build_session();
  auto* fleet_system = dynamic_cast<FleetSystem*>(fleet.system.get());
  ASSERT_NE(fleet_system, nullptr);
  ASSERT_EQ(fleet_system->tenant_count(), kTenants);

  std::vector<Session> singles;
  for (int t = 0; t < kTenants; ++t) {
    SystemBuilder builder = base_builder(seed + static_cast<std::uint64_t>(t));
    builder.workload(contention_spec());
    singles.push_back(builder.build_session());
  }

  Recorder fleet_trace;
  std::vector<Recorder> single_traces(kTenants);
  fleet.system->add_observer(&fleet_trace);
  for (int t = 0; t < kTenants; ++t) {
    singles[static_cast<std::size_t>(t)].system->add_observer(
        &single_traces[static_cast<std::size_t>(t)]);
  }

  // Phase 1: everyone runs its workload to the same horizon.
  fleet.begin_workload();
  for (Session& s : singles) s.begin_workload();
  const sim::SimTime kT1 = 250'000;
  fleet.system->run_until(kT1);
  for (Session& s : singles) s.system->run_until(kT1);

  const int per_tenant_n = fleet_system->tenant_n(0);
  for (int t = 0; t < kTenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "pre-fault tenant " + std::to_string(t));
    for (NodeId local = 0; local < per_tenant_n; ++local) {
      NodeId global = fleet_system->global_id(t, local);
      EXPECT_EQ(fleet.driver->grants(global), twin.driver->grants(local));
      EXPECT_EQ(fleet.driver->requests_issued(global),
                twin.driver->requests_issued(local));
    }
  }

  // Phase 2: transient fault into tenant 1 ONLY; its standalone twin gets
  // the identically seeded fault. All drivers resync (a no-op for
  // sessions whose protocol state is untouched), then another horizon.
  support::Rng fleet_fault(seed ^ 0xFA17ull);
  support::Rng twin_fault(seed ^ 0xFA17ull);
  fleet_system->inject_transient_fault_tenant(1, fleet_fault);
  singles[1].system->inject_transient_fault(twin_fault);
  fleet.driver->resync();
  for (Session& s : singles) s.driver->resync();
  const sim::SimTime kT2 = 550'000;
  fleet.system->run_until(kT2);
  for (Session& s : singles) s.system->run_until(kT2);

  for (int t = 0; t < kTenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "post-fault tenant " + std::to_string(t));
    for (NodeId local = 0; local < per_tenant_n; ++local) {
      NodeId global = fleet_system->global_id(t, local);
      EXPECT_EQ(fleet.driver->grants(global), twin.driver->grants(local));
    }
    // Per-tenant observables agree with the twin's global ones.
    EXPECT_EQ(fleet_system->tenant_correct(t),
              twin.system->token_counts_correct())
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_events_executed(t),
              twin.system->engine().events_executed())
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_sent_of_type(t, kResourceType),
              twin.system->engine().sent_of_type(kResourceType))
        << "tenant " << t;
    // Nobody ran an epoch-cut recovery (the rung is not enabled here).
    EXPECT_EQ(fleet_system->tenant_recovery_events(t), 0);
  }

  // Steady chaos: a fleet(4) whose every link drops and jitters, against
  // twins built with seed + t and the same config.
  sim::ChaosConfig chaos;
  chaos.drop_p = 0.01;
  chaos.jitter = 12;
  const int kChaosTenants = 4;
  SystemBuilder chaos_builder = base_builder(seed);
  chaos_builder.workload(contention_spec()).chaos(chaos).fleet(kChaosTenants);
  Session chaos_fleet = chaos_builder.build_session();
  auto* chaos_system = dynamic_cast<FleetSystem*>(chaos_fleet.system.get());
  ASSERT_NE(chaos_system, nullptr);
  std::vector<Session> chaos_twins;
  for (int t = 0; t < kChaosTenants; ++t) {
    SystemBuilder builder = base_builder(seed + static_cast<std::uint64_t>(t));
    builder.workload(contention_spec()).chaos(chaos);
    chaos_twins.push_back(builder.build_session());
  }
  chaos_fleet.begin_workload();
  for (Session& s : chaos_twins) s.begin_workload();
  chaos_fleet.system->run_until(kT2);
  for (Session& s : chaos_twins) s.system->run_until(kT2);

  const sim::Engine& chaos_engine = chaos_fleet.system->engine();
  const sim::ChaosModel* model = chaos_engine.chaos_model();
  ASSERT_NE(model, nullptr);
  // Homogeneous tenants own equal, contiguous channel ranges.
  const int channels = chaos_engine.channel_count() / kChaosTenants;
  for (int t = 0; t < kChaosTenants; ++t) {
    const sim::Engine& twin = chaos_twins[static_cast<std::size_t>(t)]
                                  .system->engine();
    ASSERT_EQ(twin.channel_count(), channels);
    sim::ChaosStats tenant_chaos;
    for (int c = t * channels; c < (t + 1) * channels; ++c) {
      const sim::ChaosStats& link = model->link(c).stats;
      tenant_chaos.dropped += link.dropped;
      tenant_chaos.duplicated += link.duplicated;
      tenant_chaos.reordered += link.reordered;
      tenant_chaos.jittered += link.jittered;
    }
    const sim::ChaosStats want = twin.chaos_stats();
    EXPECT_GT(want.dropped, 0u) << "tenant " << t;
    EXPECT_GT(want.jittered, 0u) << "tenant " << t;
    EXPECT_EQ(tenant_chaos.dropped, want.dropped) << "tenant " << t;
    EXPECT_EQ(tenant_chaos.duplicated, want.duplicated) << "tenant " << t;
    EXPECT_EQ(tenant_chaos.reordered, want.reordered) << "tenant " << t;
    EXPECT_EQ(tenant_chaos.jittered, want.jittered) << "tenant " << t;
    EXPECT_EQ(chaos_system->tenant_events_executed(t), twin.events_executed())
        << "tenant " << t;
    for (std::int32_t type = 0; type < sim::Engine::kTrackedMessageTypes;
         ++type) {
      EXPECT_EQ(chaos_system->tenant_sent_of_type(t, type),
                twin.sent_of_type(type))
          << "tenant " << t << " type " << type;
    }
    EXPECT_EQ(chaos_system->tenant_correct(t),
              chaos_twins[static_cast<std::size_t>(t)]
                  .system->token_counts_correct())
        << "tenant " << t;
    const SystemBase& twin_system =
        *chaos_twins[static_cast<std::size_t>(t)].system;
    for (NodeId local = 0; local < chaos_system->tenant_n(t); ++local) {
      const NodeId global = chaos_system->global_id(t, local);
      EXPECT_EQ(chaos_system->state_of(global), twin_system.state_of(local))
          << "tenant " << t << " node " << local;
      EXPECT_EQ(chaos_system->need_of(global), twin_system.need_of(local))
          << "tenant " << t << " node " << local;
    }
  }
}

TEST(FleetDifferentialTest, EachTenantsWaitSamplesMatchItsStandaloneTwin) {
  // The paper's waiting time counts CS entries by "all processes" of the
  // requester's protocol instance. In a fleet that is the requester's own
  // tenant: a tracker scoped per tenant must record, for every tenant,
  // exactly the wait samples a tracker on its standalone twin records.
  const std::uint64_t seed = 515;
  const int kTenants = 4;

  SystemBuilder fleet_builder = base_builder(seed);
  fleet_builder.workload(contention_spec()).fleet(kTenants);
  Session fleet = fleet_builder.build_session();
  auto* fleet_system = dynamic_cast<FleetSystem*>(fleet.system.get());
  ASSERT_NE(fleet_system, nullptr);
  std::vector<int> scope_of_node(static_cast<std::size_t>(fleet.system->n()));
  for (int t = 0; t < kTenants; ++t) {
    for (NodeId local = 0; local < fleet_system->tenant_n(t); ++local) {
      scope_of_node[static_cast<std::size_t>(
          fleet_system->global_id(t, local))] = t;
    }
  }
  stats::WaitingTimeTracker fleet_waits(std::move(scope_of_node));
  ASSERT_EQ(fleet_waits.scope_count(), kTenants);
  fleet.system->add_listener(&fleet_waits);

  std::vector<Session> singles;
  std::vector<std::unique_ptr<stats::WaitingTimeTracker>> single_waits;
  for (int t = 0; t < kTenants; ++t) {
    SystemBuilder builder = base_builder(seed + static_cast<std::uint64_t>(t));
    builder.workload(contention_spec());
    singles.push_back(builder.build_session());
    single_waits.push_back(std::make_unique<stats::WaitingTimeTracker>(
        singles.back().system->n()));
    singles.back().system->add_listener(single_waits.back().get());
  }

  fleet.begin_workload();
  for (Session& s : singles) s.begin_workload();
  const sim::SimTime kHorizon = 300'000;
  fleet.system->run_until(kHorizon);
  for (Session& s : singles) s.system->run_until(kHorizon);

  for (int t = 0; t < kTenants; ++t) {
    const support::Histogram& twin =
        single_waits[static_cast<std::size_t>(t)]->waits();
    ASSERT_GT(twin.count(), 100u) << "tenant " << t;
    EXPECT_EQ(fleet_waits.waits(t).samples(), twin.samples())
        << "tenant " << t;
  }
}

struct TenantFingerprint {
  std::uint64_t events = 0;
  std::uint64_t resource_sends = 0;
  bool correct = false;

  friend bool operator==(const TenantFingerprint&,
                         const TenantFingerprint&) = default;
};

TEST(FleetDifferentialTest, WorkerLaneCountDoesNotChangeTenantTrajectories) {
  const std::uint64_t seed = 909;
  const int kTenants = 4;
  const sim::SimTime kHorizon = 250'000;

  // No observers here: blocking observers force the parallel engine's
  // merged-serial fallback, and this test exists to exercise the real
  // windowed path.
  auto fingerprint = [&](int threads) {
    SystemBuilder builder = base_builder(seed);
    builder.fleet(kTenants).threads(threads);
    std::unique_ptr<SystemBase> system = builder.build();
    auto* fleet = dynamic_cast<FleetSystem*>(system.get());
    EXPECT_NE(fleet, nullptr);
    EXPECT_EQ(system->threads(), std::min(threads, kTenants));
    system->run_until(kHorizon);
    std::vector<TenantFingerprint> out;
    for (int t = 0; t < kTenants; ++t) {
      out.push_back({fleet->tenant_events_executed(t),
                     fleet->tenant_sent_of_type(t, kResourceType),
                     fleet->tenant_correct(t)});
    }
    return out;
  };

  std::vector<TenantFingerprint> serial = fingerprint(1);
  EXPECT_EQ(fingerprint(2), serial);
  EXPECT_EQ(fingerprint(4), serial);

  // And the serial fleet's per-tenant counters equal each standalone twin.
  for (int t = 0; t < kTenants; ++t) {
    SystemBuilder builder =
        base_builder(seed + static_cast<std::uint64_t>(t));
    std::unique_ptr<SystemBase> twin = builder.build();
    twin->run_until(kHorizon);
    const TenantFingerprint& got = serial[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.events, twin->engine().events_executed()) << "tenant " << t;
    EXPECT_EQ(got.resource_sends, twin->engine().sent_of_type(kResourceType))
        << "tenant " << t;
    EXPECT_EQ(got.correct, twin->token_counts_correct()) << "tenant " << t;
  }
}

}  // namespace
}  // namespace klex
