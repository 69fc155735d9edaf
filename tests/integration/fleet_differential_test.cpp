// Fleet differential tests: the correctness anchor of the multi-tenant
// System (SystemConfig::tenants, api/system.hpp).
//
// The fleet's design claim is *standalone equivalence*: tenant t of a
// fleet built with seed S replays, message for message, the one-tenant
// System built with seed S + t -- whatever the other tenants do. These
// tests pin that claim at full trace granularity:
//
//   1. fleet(1) is the plain system itself (one tenant, no explicit
//      streams);
//   2. every tenant of fleet(3) replays its standalone twin, including
//      through a transient fault injected into ONE tenant only and a
//      garbage flood there that an epoch cut drains -- the faulted
//      tenant tracks its (equally faulted and cut) twin and the others
//      never notice -- and every tenant of a fleet(4) under steady chaos
//      replays its equally chaotic twin (chaos draws come from the
//      tenant's own channel rngs);
//   3. each tenant's waiting-time samples (the paper's metric, scoped to
//      the tenant) equal its standalone twin's;
//   4. the worker-lane count changes nothing per tenant (serial vs
//      windowed parallel execution), and each tenant still matches its
//      standalone twin's counters;
//   5. tenant-major execution (the engine's run_until on a fleet, and
//      a fleet's run_until_stabilized) reaches exactly the state of
//      the merged (at, seq) order -- stepping, or the same fleet with an
//      observer attached, which forces merged spans -- including the
//      stabilization loop's returned time, clock and executed prefix,
//      and a chaos burst whose deferred epoch cuts run in each tenant's
//      own stream;
//      one span, many slices and stepping leave every tenant alike. A
//      plain system stabilizes by the same rounds as a one-tenant fleet:
//      at P = 1 it matches its P = 2 twin, whose engine runs merged.
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
                                     const SystemBase& fleet, int tenant) {
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
  // fleet(1) is the plain system itself: one tenant, no explicit streams.
  std::unique_ptr<SystemBase> system = base_builder(4242).fleet(1).build();
  EXPECT_EQ(system->tenant_count(), 1);
  EXPECT_FALSE(system->engine().has_explicit_streams());
}

TEST(FleetDifferentialTest, EachTenantReplaysItsStandaloneTwin) {
  const std::uint64_t seed = 777;
  const int kTenants = 3;

  // The epoch-cut rung changes nothing until a cut runs (phase 3), and
  // the burst in the plan (phase 4) only attaches a chaos model, which
  // changes nothing until the burst opens.
  const proto::Features cut_rung = proto::Features::full().with_epoch_cut();
  FaultEvent burst;
  burst.kind = FaultKind::kChaosBurst;
  burst.chaos.drop_p = 0.05;
  burst.chaos.jitter = 6;
  burst.duration = 3'000;
  const FaultPlan plan{{burst}};
  SystemBuilder fleet_builder = base_builder(seed);
  fleet_builder.workload(contention_spec())
      .features(cut_rung)
      .fault_plan(plan)
      .fleet(kTenants);
  Session fleet = fleet_builder.build_session();
  SystemBase* fleet_system = fleet.system.get();
  ASSERT_EQ(fleet_system->tenant_count(), kTenants);

  std::vector<Session> singles;
  for (int t = 0; t < kTenants; ++t) {
    SystemBuilder builder = base_builder(seed + static_cast<std::uint64_t>(t));
    builder.workload(contention_spec()).features(cut_rung).fault_plan(plan);
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
      NodeId global = fleet_system->node_begin(t) + local;
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
      NodeId global = fleet_system->node_begin(t) + local;
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
    // Nobody ran an epoch-cut recovery yet.
    EXPECT_EQ(fleet_system->tenant_recovery_events(t), 0);
  }

  // Phase 3: a garbage flood (three messages on every channel) with a
  // transient fault into tenant 1 ONLY, drained at once by the tenant's
  // epoch cut; the twin gets the identical flood and its system-wide cut.
  fleet_system->inject_transient_fault_tenant(1, fleet_fault, 3);
  singles[1].system->inject_transient_fault(twin_fault, 3);
  EXPECT_TRUE(fleet_system->epoch_cut_recover_tenant(1));
  EXPECT_TRUE(singles[1].system->epoch_cut_recover());
  fleet.driver->resync();
  for (Session& s : singles) s.driver->resync();
  const sim::SimTime kT3 = 850'000;
  fleet.system->run_until(kT3);
  for (Session& s : singles) s.system->run_until(kT3);

  for (int t = 0; t < kTenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "post-flood-and-cut tenant " + std::to_string(t));
    EXPECT_EQ(fleet_system->tenant_recovery_events(t), t == 1 ? 1 : 0)
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_recovery_events(t),
              twin.system->tenant_recovery_events(0))
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_correct(t),
              twin.system->token_counts_correct())
        << "tenant " << t;
  }

  // Phase 4: a lossy burst aimed at tenant 1 through the fault path, on
  // the full+cut rung, whose epoch cut runs in tenant 1's stream at burst
  // end; the twin takes the same burst untargeted. The fault rngs are
  // not drawn from (chaos decisions use the channels' own rngs).
  fleet.apply_fault_event(burst, fleet_fault, 1);
  singles[1].apply_fault_event(burst, twin_fault);
  const sim::SimTime kT4 = 1'150'000;
  fleet.system->run_until(kT4);
  for (Session& s : singles) s.system->run_until(kT4);

  const sim::ChaosModel* burst_model = fleet_system->engine().chaos_model();
  ASSERT_NE(burst_model, nullptr);
  for (int t = 0; t < kTenants; ++t) {
    Session& twin = singles[static_cast<std::size_t>(t)];
    expect_traces_equal(
        tenant_slice(fleet_trace.events, *fleet_system, t),
        single_traces[static_cast<std::size_t>(t)].events,
        "post-burst tenant " + std::to_string(t));
    EXPECT_EQ(fleet_system->tenant_recovery_events(t), t == 1 ? 2 : 0)
        << "tenant " << t;
    EXPECT_EQ(fleet_system->tenant_recovery_events(t),
              twin.system->tenant_recovery_events(0))
        << "tenant " << t;
    std::uint64_t dropped = 0;
    for (int c = fleet_system->channel_begin(t);
         c < fleet_system->channel_end(t); ++c) {
      dropped += burst_model->link(c).stats.dropped;
    }
    EXPECT_EQ(dropped, twin.system->engine().chaos_stats().dropped)
        << "tenant " << t;
    EXPECT_EQ(dropped > 0, t == 1) << "tenant " << t;
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
  const SystemBase* chaos_system = chaos_fleet.system.get();
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
      const NodeId global = chaos_system->node_begin(t) + local;
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
  const SystemBase* fleet_system = fleet.system.get();
  std::vector<int> scope_of_node(static_cast<std::size_t>(fleet.system->n()));
  for (int t = 0; t < kTenants; ++t) {
    for (NodeId node = fleet_system->node_begin(t);
         node < fleet_system->node_end(t); ++node) {
      scope_of_node[static_cast<std::size_t>(node)] = t;
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
    EXPECT_EQ(system->threads(), std::min(threads, kTenants));
    system->run_until(kHorizon);
    std::vector<TenantFingerprint> out;
    for (int t = 0; t < kTenants; ++t) {
      out.push_back({system->tenant_events_executed(t),
                     system->tenant_sent_of_type(t, kResourceType),
                     system->tenant_correct(t)});
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

// -- tenant-major execution vs the merged (at, seq) order --------------------

/// Any attached observer switches the engine's spans to the merged order;
/// this one does nothing else.
class MergedOrder final : public sim::SimObserver {};

/// What a tenant-major run must share with its merged-order twin.
struct FleetSnapshot {
  sim::SimTime now = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_callbacks = 0;
  std::int64_t grants = 0;
  std::int64_t requests = 0;
  std::vector<proto::AppState> states;
  std::vector<int> needs;
  std::vector<std::int64_t> node_grants;
  std::vector<std::int64_t> node_requests;
  std::vector<std::uint64_t> tenant_events;
  // Per tenant, sends of each token type (resource, pusher, priority,
  // control).
  std::vector<std::uint64_t> tenant_sends;
  std::vector<bool> tenant_correct;
  std::vector<sim::SimTime> tenant_since;
  std::vector<std::int64_t> tenant_recoveries;

  bool operator==(const FleetSnapshot&) const = default;
};

FleetSnapshot snapshot(const Session& session) {
  const SystemBase& fleet = *session.system;
  FleetSnapshot out;
  out.now = fleet.engine().now();
  out.events = fleet.engine().events_executed();
  out.pending_callbacks = fleet.engine().pending_callbacks();
  out.grants = session.driver->total_grants();
  out.requests = session.driver->total_requests();
  for (NodeId node = 0; node < fleet.n(); ++node) {
    out.states.push_back(fleet.state_of(node));
    out.needs.push_back(fleet.need_of(node));
    out.node_grants.push_back(session.driver->grants(node));
    out.node_requests.push_back(session.driver->requests_issued(node));
  }
  for (int t = 0; t < fleet.tenant_count(); ++t) {
    out.tenant_events.push_back(fleet.tenant_events_executed(t));
    for (proto::TokenType type :
         {proto::TokenType::kResource, proto::TokenType::kPusher,
          proto::TokenType::kPriority, proto::TokenType::kControl}) {
      out.tenant_sends.push_back(
          fleet.tenant_sent_of_type(t, static_cast<std::int32_t>(type)));
    }
    out.tenant_correct.push_back(fleet.tenant_correct(t));
    out.tenant_since.push_back(fleet.tenant_stabilized_at(t));
    out.tenant_recoveries.push_back(fleet.tenant_recovery_events(t));
  }
  return out;
}

Session fleet_session(std::uint64_t seed, int tenants,
                      proto::Features features = proto::Features::full(),
                      FaultPlan plan = {}) {
  SystemBuilder builder = base_builder(seed);
  builder.features(features).workload(contention_spec()).fleet(tenants);
  if (!plan.empty()) builder.fault_plan(std::move(plan));
  return builder.build_session();
}

TEST(FleetDifferentialTest, RunUntilMatchesSteppingAtEveryCheckpoint) {
  // One fleet advanced by run_until (tenant-major), its twin by step()
  // (merged order): identical per-tenant state, counters and clock at
  // every checkpoint, through a fleet-wide transient fault.
  Session spans = fleet_session(4711, 6);
  Session steps = fleet_session(4711, 6);
  ASSERT_TRUE(spans.system->engine().runs_spans());
  spans.begin_workload();
  steps.begin_workload();
  auto advance = [&](sim::SimTime t) {
    spans.system->run_until(t);
    sim::Engine& engine = steps.system->engine();
    while (engine.next_event_time() <= t) ASSERT_TRUE(engine.step());
    steps.system->run_until(t);  // aligns the clock only
  };
  for (sim::SimTime t : {sim::SimTime{1'000}, sim::SimTime{4'000},
                         sim::SimTime{20'000}}) {
    advance(t);
    EXPECT_TRUE(snapshot(spans) == snapshot(steps)) << "at " << t;
  }
  support::Rng spans_fault(99);
  support::Rng steps_fault(99);
  spans.system->inject_transient_fault(spans_fault);
  steps.system->inject_transient_fault(steps_fault);
  spans.driver->resync();
  steps.driver->resync();
  for (sim::SimTime t : {sim::SimTime{20'500}, sim::SimTime{60'000}}) {
    advance(t);
    EXPECT_TRUE(snapshot(spans) == snapshot(steps)) << "at " << t;
  }
  EXPECT_GT(spans.driver->total_grants(), 0);
}

TEST(FleetDifferentialTest, SpanSlicingDoesNotChangeTenantTrajectories) {
  // Tenant-major spans visit the due tenants in tenant order, whatever
  // their heads: one span over the whole horizon, 64 slices of it and
  // the merged step() order must leave every tenant in the same state
  // with the same events, sends and driver counters.
  constexpr sim::SimTime kHorizon = 16'000;
  Session whole = fleet_session(808, 8);
  Session sliced = fleet_session(808, 8);
  Session steps = fleet_session(808, 8);
  ASSERT_TRUE(whole.system->engine().runs_spans());
  whole.begin_workload();
  sliced.begin_workload();
  steps.begin_workload();
  whole.system->run_until(kHorizon);
  for (int i = 1; i <= 64; ++i) sliced.system->run_until(kHorizon * i / 64);
  sim::Engine& engine = steps.system->engine();
  while (engine.next_event_time() <= kHorizon) ASSERT_TRUE(engine.step());
  steps.system->run_until(kHorizon);  // aligns the clock only
  const FleetSnapshot want = snapshot(steps);
  EXPECT_TRUE(snapshot(whole) == want);
  EXPECT_TRUE(snapshot(sliced) == want);
  EXPECT_GT(want.grants, 0);
  for (std::uint64_t events : want.tenant_events) EXPECT_GT(events, 0u);
}

/// The observer that forces a fleet's merged twin into merged spans.
sim::SimObserver* merged_order() {
  static MergedOrder observer;
  return &observer;
}

/// A fleet of 8 tenants; its merged twin carries an observer.
Session fleet_twin(std::uint64_t seed, bool merged) {
  Session session = fleet_session(seed, 8);
  if (merged) session.system->add_observer(merged_order());
  return session;
}

/// What a stabilization must leave alike on its rounds side and its
/// merged twin: the clock, the executed prefix, the next pending event
/// and the census -- and on a fleet every tenant's snapshot.
void expect_same_state(const Session& fast, const Session& merged,
                       const std::string& label) {
  const sim::Engine& a = fast.system->engine();
  const sim::Engine& b = merged.system->engine();
  EXPECT_EQ(a.now(), b.now()) << label;
  EXPECT_EQ(a.events_executed(), b.events_executed()) << label;
  EXPECT_EQ(a.next_event_time(), b.next_event_time()) << label;
  const proto::TokenCensus x = fast.system->census();
  const proto::TokenCensus y = merged.system->census();
  EXPECT_TRUE(x.free_resource == y.free_resource &&
              x.reserved_resource == y.reserved_resource &&
              x.pusher == y.pusher && x.free_priority == y.free_priority &&
              x.held_priority == y.held_priority && x.control == y.control)
      << label;
  EXPECT_TRUE(snapshot(fast) == snapshot(merged)) << label;
}

/// Runs the same stabilization on a system whose loop advances by span
/// rounds and on its twin that runs merged, after the same `setup`, and
/// expects the same outcome. `make(seed, merged)` builds either side.
/// Returns the rounds side's result.
struct StabilizationCase {
  sim::SimTime result = 0;
  sim::SimTime window_end = 0;  // result + poll * consecutive
  bool events_left_on_window_end = false;
};

template <typename Make, typename Setup>
StabilizationCase expect_same_stabilization(const Make& make,
                                            std::uint64_t seed,
                                            Setup&& setup,
                                            sim::SimTime deadline_after,
                                            sim::SimTime poll,
                                            int consecutive,
                                            const std::string& label) {
  Session fast = make(seed, false);
  Session merged = make(seed, true);
  setup(fast);
  setup(merged);
  EXPECT_TRUE(fast.system->engine().runs_spans()) << label;
  EXPECT_FALSE(merged.system->engine().runs_spans()) << label;
  const sim::SimTime deadline =
      fast.system->engine().now() + deadline_after;
  const sim::SimTime got =
      fast.system->run_until_stabilized(deadline, poll, consecutive);
  const sim::SimTime want =
      merged.system->run_until_stabilized(deadline, poll, consecutive);
  EXPECT_EQ(got, want) << label;
  expect_same_state(fast, merged, label);
  StabilizationCase out;
  out.result = got;
  if (got == sim::kTimeInfinity) {
    // A retry from where the miss left off starts with a resync probe,
    // which must find the same per-tenant probe state on both sides.
    const sim::SimTime retry = deadline + 2'000'000;
    EXPECT_EQ(fast.system->run_until_stabilized(retry, poll, consecutive),
              merged.system->run_until_stabilized(retry, poll, consecutive))
        << label;
    expect_same_state(fast, merged, label + " retry");
  } else {
    out.window_end = got + poll * static_cast<sim::SimTime>(consecutive);
    EXPECT_EQ(fast.system->engine().now(), out.window_end) << label;
    out.events_left_on_window_end =
        fast.system->engine().next_event_time() == out.window_end;
  }
  return out;
}

constexpr sim::SimTime kFaultAt = 15'000;

/// Runs the workload to kFaultAt, then faults every tenant.
void faulted(Session& session) {
  session.begin_workload();
  session.system->run_until(kFaultAt);
  support::Rng rng(2024);
  session.system->inject_transient_fault(rng);
  session.driver->resync();
}

TEST(FleetDifferentialTest, StabilizationMatchesTheMergedLoop) {
  auto nothing = [](Session&) {};
  auto make = fleet_twin;

  // Boot.
  const StabilizationCase boot = expect_same_stabilization(
      make, 31, nothing, 1'000'000, 64, 3, "boot");
  EXPECT_NE(boot.result, sim::kTimeInfinity);

  // After a fleet-wide transient fault.
  const StabilizationCase fault = expect_same_stabilization(
      make, 32, faulted, 2'000'000, 64, 3, "fault");
  EXPECT_NE(fault.result, sim::kTimeInfinity);

  // A confirmation whose last event lands exactly on result + window
  // while other tenants still have events on that tick: the merged loop
  // executes only the globally first of them.
  int exact = 0;
  for (sim::SimTime poll = 20; poll < 32 && exact == 0; ++poll) {
    const StabilizationCase c = expect_same_stabilization(
        make, 33, faulted, 2'000'000, poll, 2,
        "poll " + std::to_string(poll));
    if (c.result != sim::kTimeInfinity && c.events_left_on_window_end) ++exact;
  }
  EXPECT_GT(exact, 0);

  // A deadline the fault's recovery cannot meet.
  const StabilizationCase miss =
      expect_same_stabilization(make, 34, faulted, 300, 64, 3, "miss");
  EXPECT_EQ(miss.result, sim::kTimeInfinity);

  // A correct stretch that begins before the deadline but cannot be
  // confirmed by it: the merged loop gives up at its first event and
  // runs on to the deadline without probing.
  const StabilizationCase late = expect_same_stabilization(
      make, 32, faulted, fault.result - kFaultAt + 64 * 3 - 1, 64, 3,
      "late");
  EXPECT_EQ(late.result, sim::kTimeInfinity);
  // The same, where a tenant turns incorrect again later in the round
  // that gave up (the round rolls that tenant's probe flag back).
  const StabilizationCase relapse = expect_same_stabilization(
      make, 32, faulted, 2'425, 64, 3, "relapse");
  EXPECT_EQ(relapse.result, sim::kTimeInfinity);
}

/// The faulted setup plus a callback at `at` that injects a surplus
/// resource token, breaking any correct census. The callback's seq is
/// drawn when it is scheduled, so runs that differ only in `at` share
/// their trajectory up to the earlier of the two times.
auto surplus_token_at(sim::SimTime at) {
  return [at](Session& session) {
    faulted(session);
    sim::Engine* engine = &session.system->engine();
    engine->schedule(at - engine->now(), [engine]() {
      engine->inject_message(0, 0, proto::make_resource());
    });
  };
}

TEST(FleetDifferentialTest, PlainStabilizationRoundsMatchTheMergedLoop) {
  // A plain system is a one-tenant round: at P = 1 the loop advances by
  // spans, and its P = 2 twin (whose engine runs merged) steps. Every
  // case of the fleet test above must come out the same.
  constexpr sim::SimTime kWindow = 64 * 3;
  const std::vector<std::pair<std::string, TopologySpec>> topologies = {
      {"tree_random", TopologySpec::tree_random(40, 5)},
      {"ring", TopologySpec::ring(32)},
      {"graph_random", TopologySpec::graph_random(20, 8, 3)},
  };
  for (const auto& [name, topology] : topologies) {
    auto make = [topology = topology](std::uint64_t seed, bool merged) {
      SystemBuilder builder;
      builder.topology(topology)
          .kl(2, 4)
          .seed(seed)
          .workload(contention_spec())
          .threads(merged ? 2 : 1);
      return builder.build_session();
    };
    auto nothing = [](Session&) {};

    const StabilizationCase boot = expect_same_stabilization(
        make, 31, nothing, 1'000'000, 64, 3, name + " boot");
    EXPECT_NE(boot.result, sim::kTimeInfinity) << name;

    const StabilizationCase fault = expect_same_stabilization(
        make, 32, faulted, 2'000'000, 64, 3, name + " fault");
    ASSERT_NE(fault.result, sim::kTimeInfinity) << name;

    // The confirming event is not the last on its tick.
    int exact = 0;
    for (sim::SimTime poll = 20; poll < 48 && exact == 0; ++poll) {
      const StabilizationCase c = expect_same_stabilization(
          make, 33, faulted, 2'000'000, poll, 2,
          name + " poll " + std::to_string(poll));
      if (c.result != sim::kTimeInfinity && c.events_left_on_window_end) {
        ++exact;
      }
    }
    EXPECT_GT(exact, 0) << name;

    const StabilizationCase miss = expect_same_stabilization(
        make, 32, faulted, 300, 64, 3, name + " miss");
    EXPECT_EQ(miss.result, sim::kTimeInfinity) << name;

    const StabilizationCase late = expect_same_stabilization(
        make, 32, faulted, fault.result - kFaultAt + kWindow - 1, 64, 3,
        name + " late");
    EXPECT_EQ(late.result, sim::kTimeInfinity) << name;

    // Relapse: the census turns correct at `edge` (found by a run whose
    // surplus token comes too late to matter), the deadline admits that
    // edge as a start but not as a confirmation, and the surplus token
    // breaks the stretch again one tick later, inside the round that
    // gave up.
    Session probe = make(32, false);
    surplus_token_at(kFaultAt + 4'000'000)(probe);
    const sim::SimTime edge =
        probe.system->run_until_stabilized(kFaultAt + 2'000'000);
    ASSERT_NE(edge, sim::kTimeInfinity) << name;
    const StabilizationCase relapse = expect_same_stabilization(
        make, 32, surplus_token_at(edge + 1), edge - kFaultAt + kWindow - 1,
        64, 3, name + " relapse");
    EXPECT_EQ(relapse.result, sim::kTimeInfinity) << name;
  }
}

TEST(FleetDifferentialTest, ChaosBurstEpochCutMatchesTheMergedOrder) {
  // A burst on the full+cut rung defers each tenant's epoch cut to burst
  // end as a callback in that tenant's stream: spans keep running
  // tenant-major around them, and the fleet replays the merged-order run.
  FaultEvent burst;
  burst.kind = FaultKind::kChaosBurst;
  burst.chaos.drop_p = 0.05;
  burst.chaos.jitter = 6;
  burst.duration = 3'000;
  const proto::Features cut = proto::Features::full().with_epoch_cut();
  Session fast = fleet_session(808, 5, cut, FaultPlan{{burst}});
  Session merged = fleet_session(808, 5, cut, FaultPlan{{burst}});
  merged.system->add_observer(merged_order());
  for (Session* session : {&fast, &merged}) {
    ASSERT_NE(session->system->run_until_stabilized(1'000'000),
              sim::kTimeInfinity);
    session->begin_workload();
    session->system->run_until(10'000);
    support::Rng rng(5);
    session->apply_fault_event(burst, rng);
  }
  sim::Engine& engine = fast.system->engine();
  EXPECT_TRUE(engine.runs_spans());  // the deferred cuts are pending
  for (Session* session : {&fast, &merged}) {
    session->system->run_until(10'000 + burst.duration + 2'000);
  }
  EXPECT_TRUE(engine.runs_spans());
  EXPECT_TRUE(snapshot(fast) == snapshot(merged));
  for (Session* session : {&fast, &merged}) {
    EXPECT_NE(session->system->run_until_stabilized(
                  session->system->engine().now() + 1'000'000),
              sim::kTimeInfinity);
  }
  EXPECT_TRUE(snapshot(fast) == snapshot(merged));
  EXPECT_EQ(engine.chaos_stats().dropped,
            merged.system->engine().chaos_stats().dropped);
  EXPECT_GT(engine.chaos_stats().dropped, 0u);
}

}  // namespace
}  // namespace klex
