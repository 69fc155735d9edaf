// Differential tests for the conservative time-window parallel engine
// (sim/parallel_engine.hpp).
//
// The contract under test, in increasing strength:
//   * with one lane the windowed loop is the serial engine bit for bit
//     (same delivery trace, same timestamps, same counters);
//   * with P lanes the windowed execution equals the merged-serial loop
//     (Engine::run_until over the same partition) event for event --
//     checked through final process snapshots, token census, clocks and
//     message counters at several cut points;
//   * the lane count picks no execution: sequencing is per channel, node
//     and stream, so any P replays the serial (P = 1) run;
//   * callbacks never run or get scheduled inside a window: once one was
//     scheduled the parallel engine stays on the merged-serial loop;
//   * that equality survives transient faults and garbage floods on
//     every topology family (tree, ring, spanning-tree composition),
//     and both executions re-stabilize to the legitimate population.
//
// Also pinned here, as satellites of the same PR: the calendar ring's
// auto-sized bucket window (delay models beyond the 1024-tick default
// grow the window instead of spilling events to the overflow heap) and the 64-bit width of every per-event counter
// (at n = 10^6 a run executes ~10^9+ events; a 32-bit accumulator would
// wrap silently).
#include "sim/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/client.hpp"
#include "api/system.hpp"
#include "api/system_base.hpp"
#include "api/topology.hpp"
#include "api/workload_driver.hpp"
#include "proto/app.hpp"
#include "proto/census.hpp"
#include "proto/workload.hpp"
#include "sim/chaos.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tree/tree.hpp"
#include "verify/safety_monitor.hpp"

namespace klex {
namespace {

// -- shared fixtures ---------------------------------------------------------

/// A mid-size random tree exercising uneven lane cuts (subtree sizes
/// differ, so lanes genuinely interleave at every window barrier).
SystemConfig tree_config(int threads, std::uint64_t seed = 11) {
  SystemConfig config;
  support::Rng topo_rng(7);
  config.tree = tree::random_tree(48, topo_rng);
  config.k = 2;
  config.l = 5;
  config.seed = seed;
  config.seed_tokens = true;
  config.threads = threads;
  return config;
}

/// Records every send and delivery the engine reports, in order. Two
/// equal traces mean two equal executions -- timestamps, event order,
/// payloads and all.
struct TraceObserver : sim::SimObserver {
  struct Record {
    sim::SimTime at = 0;
    bool deliver = false;
    sim::NodeId node = -1;
    int channel = -1;
    sim::Message msg;

    friend bool operator==(const Record&, const Record&) = default;
  };

  void on_send(sim::SimTime at, sim::NodeId from, int channel,
               const sim::Message& msg) override {
    records.push_back({at, false, from, channel, msg});
  }
  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override {
    records.push_back({at, true, to, channel, msg});
  }

  std::vector<Record> records;
};

void expect_same_census(const proto::TokenCensus& a,
                        const proto::TokenCensus& b) {
  EXPECT_EQ(a.free_resource, b.free_resource);
  EXPECT_EQ(a.reserved_resource, b.reserved_resource);
  EXPECT_EQ(a.pusher, b.pusher);
  EXPECT_EQ(a.free_priority, b.free_priority);
  EXPECT_EQ(a.held_priority, b.held_priority);
  EXPECT_EQ(a.control, b.control);
}

void expect_same_clocks_and_counters(const sim::Engine& a,
                                     const sim::Engine& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.events_executed(), b.events_executed());
  EXPECT_EQ(a.messages_sent(), b.messages_sent());
  EXPECT_EQ(a.messages_delivered(), b.messages_delivered());
  EXPECT_EQ(a.in_flight_messages(), b.in_flight_messages());
}

void expect_same_snapshots(const System& a, const System& b) {
  ASSERT_EQ(a.n(), b.n());
  for (NodeId v = 0; v < a.n(); ++v) {
    proto::LocalSnapshot sa = a.node(v).snapshot();
    proto::LocalSnapshot sb = b.node(v).snapshot();
    EXPECT_EQ(sa.state, sb.state) << "node " << v;
    EXPECT_EQ(sa.need, sb.need) << "node " << v;
    EXPECT_EQ(sa.rset_size, sb.rset_size) << "node " << v;
    EXPECT_EQ(sa.holds_priority, sb.holds_priority) << "node " << v;
    EXPECT_EQ(sa.reset, sb.reset) << "node " << v;
    EXPECT_EQ(sa.myc, sb.myc) << "node " << v;
    EXPECT_EQ(sa.succ, sb.succ) << "node " << v;
    EXPECT_EQ(sa.stoken, sb.stoken) << "node " << v;
    EXPECT_EQ(sa.spush, sb.spush) << "node " << v;
    EXPECT_EQ(sa.sprio, sb.sprio) << "node " << v;
  }
}

// -- one lane: bit-identical to the serial engine ----------------------------

/// Parameterized by the lane count P of the system compared against the
/// serial run.
class ParallelDifferential : public ::testing::TestWithParam<int> {};

TEST_F(ParallelDifferential, OneLaneWindowedIsBitIdenticalToSerial) {
  System serial(tree_config(/*threads=*/1));
  System windowed(tree_config(/*threads=*/1));
  ASSERT_EQ(windowed.parallel_engine(), nullptr);  // 1 lane: serial system

  TraceObserver serial_trace;
  TraceObserver windowed_trace;
  serial.add_observer(&serial_trace);
  windowed.add_observer(&windowed_trace);

  // Drive the windowed loop directly over the 1-lane engine; chunked cut
  // points also exercise window resumption across run_until calls.
  sim::ParallelEngine windows(windowed.engine());
  for (sim::SimTime t : {sim::SimTime{1'000}, sim::SimTime{7'000},
                         sim::SimTime{40'000}, sim::SimTime{200'000}}) {
    serial.run_until(t);
    windows.run_until(t);
    expect_same_clocks_and_counters(serial.engine(), windowed.engine());
  }
  EXPECT_GT(windows.window_stats().windows, 0u);
  EXPECT_EQ(windows.window_stats().merged_fallbacks, 0u);

  ASSERT_EQ(serial_trace.records.size(), windowed_trace.records.size());
  EXPECT_TRUE(serial_trace.records == windowed_trace.records)
      << "the 1-lane windowed trace diverged from the serial engine";
  expect_same_snapshots(serial, windowed);
  expect_same_census(serial.census(), windowed.census());
}

// -- any P replays the serial run --------------------------------------------

TEST_P(ParallelDifferential, AnyLaneCountReplaysTheSerialRun) {
  const int lanes = GetParam();
  System serial(tree_config(/*threads=*/1));
  System parallel(tree_config(lanes));
  ASSERT_EQ(parallel.threads(), lanes);
  ASSERT_NE(parallel.parallel_engine(), nullptr);

  auto expect_same_run = [&](const char* phase) {
    SCOPED_TRACE(phase);
    expect_same_clocks_and_counters(serial.engine(), parallel.engine());
    expect_same_snapshots(serial, parallel);
    expect_same_census(serial.census(), parallel.census());
  };

  // Stabilization (merged-serial on the parallel system), then a steady
  // stretch on the windowed loop.
  const sim::SimTime stab_serial = serial.run_until_stabilized(10'000'000);
  const sim::SimTime stab_parallel = parallel.run_until_stabilized(10'000'000);
  ASSERT_NE(stab_serial, sim::kTimeInfinity);
  EXPECT_EQ(stab_parallel, stab_serial);
  sim::SimTime t = serial.engine().now() + 60'000;
  serial.run_until(t);
  parallel.run_until(t);
  expect_same_run("stabilized");

  // The same transient fault from the same rng stream, then recovery.
  support::Rng fault_serial(99);
  support::Rng fault_parallel(99);
  serial.inject_transient_fault(fault_serial);
  parallel.inject_transient_fault(fault_parallel);
  const sim::SimTime fault_at = serial.engine().now();
  const sim::SimTime rec_serial =
      serial.run_until_stabilized(fault_at + 40'000'000);
  const sim::SimTime rec_parallel =
      parallel.run_until_stabilized(fault_at + 40'000'000);
  ASSERT_NE(rec_serial, sim::kTimeInfinity);
  EXPECT_EQ(rec_parallel, rec_serial);
  t = serial.engine().now() + 60'000;
  serial.run_until(t);
  parallel.run_until(t);
  expect_same_run("recovered");
  EXPECT_TRUE(parallel.token_counts_correct());
  EXPECT_GT(parallel.parallel_engine()->window_stats().windows, 0u);
}

INSTANTIATE_TEST_SUITE_P(, ParallelDifferential, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

// -- P lanes: windowed == merged-serial --------------------------------------

class WindowedVsMerged : public ::testing::TestWithParam<int> {};

TEST_P(WindowedVsMerged, SameTrajectoryAsMergedSerial) {
  const int lanes = GetParam();
  System windowed(tree_config(lanes));
  System merged(tree_config(lanes));
  ASSERT_EQ(windowed.threads(), lanes);
  ASSERT_NE(windowed.parallel_engine(), nullptr);

  for (sim::SimTime t : {sim::SimTime{2'000}, sim::SimTime{15'000},
                         sim::SimTime{80'000}, sim::SimTime{250'000}}) {
    windowed.run_until(t);         // conservative windows, worker threads
    merged.engine().run_until(t);  // global (at, seq) min across lanes
    expect_same_clocks_and_counters(windowed.engine(), merged.engine());
  }
  EXPECT_GT(windowed.parallel_engine()->window_stats().windows, 0u);
  EXPECT_EQ(windowed.parallel_engine()->window_stats().merged_fallbacks, 0u);

  expect_same_snapshots(windowed, merged);
  expect_same_census(windowed.census(), merged.census());
  // The per-lane census cells must agree with the full-walk oracle.
  expect_same_census(windowed.census(), windowed.census_oracle());
  expect_same_census(merged.census(), merged.census_oracle());
}

INSTANTIATE_TEST_SUITE_P(Lanes, WindowedVsMerged, ::testing::Values(2, 4, 8));

// -- a plain engine on the shared loops ----------------------------------------
//
// A plain engine runs on the same two loops as a fleet: step() is the
// merged loop, and run_until on one lane is the span loop over the lane's
// only queue. Every way of driving a P = 1 session is the same execution,
// scheduler counters included: the loops gather and scan each tick
// exactly where the lane loop they replaced did. (At P > 1, run_until is
// the merged loop, and WindowedVsMerged pins it against the windows.)

/// Records the client-visible trajectory without a SimObserver, so an
/// unobserved run keeps its span loop.
struct GrantTrace : proto::Listener {
  struct Record {
    sim::SimTime at = 0;
    int kind = 0;  // 0 request, 1 enter, 2 exit
    NodeId node = -1;
    int need = 0;

    friend bool operator==(const Record&, const Record&) = default;
  };

  void on_request(NodeId node, int need, sim::SimTime at) override {
    records.push_back({at, 0, node, need});
  }
  void on_enter_cs(NodeId node, int need, sim::SimTime at) override {
    records.push_back({at, 1, node, need});
  }
  void on_exit_cs(NodeId node, sim::SimTime at) override {
    records.push_back({at, 2, node, 0});
  }

  std::vector<Record> records;
};

enum class Drive { kStep, kSpan, kSlices };

/// Advances `engine` to `t`: one step() per event, one run_until span, or
/// 64 run_until slices.
void drive_to(sim::Engine& engine, Drive drive, sim::SimTime t) {
  switch (drive) {
    case Drive::kStep:
      while (engine.next_event_time() <= t) ASSERT_TRUE(engine.step());
      engine.run_until(t);  // nothing is left at or before t: clocks only
      return;
    case Drive::kSpan:
      engine.run_until(t);
      return;
    case Drive::kSlices: {
      const sim::SimTime start = engine.now();
      for (sim::SimTime i = 1; i <= 64; ++i) {
        engine.run_until(start + (t - start) * i / 64);
      }
      return;
    }
  }
}

struct LoopRun {
  std::vector<TraceObserver::Record> deliveries;
  std::vector<GrantTrace::Record> grants;
  sim::EngineStats stats;
  sim::SimTime stabilized = 0;
  sim::SimTime recovered = 0;
};

/// A P = 1 tree session: stabilization, a closed-loop stretch, one
/// transient fault and its recovery, and a post-recovery stretch, every
/// stretch driven the `drive` way.
LoopRun run_plain_session(Drive drive, bool observed) {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::exponential(48);
  workload.base.cs_duration = proto::Dist::exponential(24);
  workload.base.need = proto::Dist::uniform(1, 2);
  Session session = SystemBuilder()
                        .topology(TopologySpec::tree_random(24, 3))
                        .kl(2, 4)
                        .cmax(3)
                        .seed(1337)
                        .workload(workload)
                        .fault(FaultKind::kTransient)
                        .build_session();
  sim::Engine& engine = session.system->engine();
  TraceObserver deliveries;
  GrantTrace grants;
  if (observed) session.system->add_observer(&deliveries);
  session.system->add_listener(&grants);
  EXPECT_TRUE(engine.runs_spans());  // one lane: observed or not

  LoopRun run;
  run.stabilized = session.system->run_until_stabilized(10'000'000);
  session.begin_workload();
  drive_to(engine, drive, engine.now() + 150'000);
  support::Rng fault_rng(0xFA17u);
  const sim::SimTime fault_at = engine.now();
  session.apply_fault_event(session.fault_plan.events.front(), fault_rng);
  run.recovered = session.system->run_until_stabilized(fault_at + 80'000'000);
  drive_to(engine, drive, engine.now() + 100'000);
  run.deliveries = deliveries.records;
  run.grants = grants.records;
  run.stats = engine.stats();
  return run;
}

void expect_same_stats(const sim::EngineStats& a, const sim::EngineStats& b) {
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.callbacks_scheduled, b.callbacks_scheduled);
  EXPECT_EQ(a.callback_slots_created, b.callback_slots_created);
  EXPECT_EQ(a.max_heap_size, b.max_heap_size);
  EXPECT_EQ(a.in_flight_walks, b.in_flight_walks);
  EXPECT_EQ(a.bucket_window, b.bucket_window);
  EXPECT_EQ(a.scheduler.bucket_inserts, b.scheduler.bucket_inserts);
  EXPECT_EQ(a.scheduler.bucket_scans, b.scheduler.bucket_scans);
  EXPECT_EQ(a.scheduler.overflow_pushes, b.scheduler.overflow_pushes);
  EXPECT_EQ(a.scheduler.overflow_pops, b.scheduler.overflow_pops);
  EXPECT_EQ(a.scheduler.bucket_sorts, b.scheduler.bucket_sorts);
  EXPECT_EQ(a.scheduler.sorted_events, b.scheduler.sorted_events);
}

TEST(PlainEngineLoops, EveryWayOfDrivingOneLaneIsTheSameExecution) {
  const LoopRun reference = run_plain_session(Drive::kSpan, false);
  const LoopRun observed = run_plain_session(Drive::kSpan, true);
  ASSERT_NE(reference.stabilized, sim::kTimeInfinity);
  ASSERT_NE(reference.recovered, sim::kTimeInfinity);
  ASSERT_FALSE(reference.grants.empty());
  ASSERT_FALSE(observed.deliveries.empty());
  const char* names[] = {"step", "span", "slices"};
  for (Drive drive : {Drive::kStep, Drive::kSpan, Drive::kSlices}) {
    for (bool with_observer : {false, true}) {
      SCOPED_TRACE(std::string(names[static_cast<int>(drive)]) +
                   (with_observer ? " observed" : " unobserved"));
      const LoopRun run = run_plain_session(drive, with_observer);
      EXPECT_EQ(run.stabilized, reference.stabilized);
      EXPECT_EQ(run.recovered, reference.recovered);
      EXPECT_TRUE(run.grants == reference.grants);
      expect_same_stats(run.stats, reference.stats);
      if (with_observer) {
        ASSERT_EQ(run.deliveries.size(), observed.deliveries.size());
        EXPECT_TRUE(run.deliveries == observed.deliveries);
      }
    }
  }
}

// -- faults, across topology families ----------------------------------------

struct FaultCase {
  TopologySpec topo;
  FaultKind fault = FaultKind::kTransient;
};

std::string fault_case_name(const ::testing::TestParamInfo<FaultCase>& info) {
  std::string name = info.param.topo.name();
  name += info.param.fault == FaultKind::kTransient ? "_transient" : "_flood";
  for (char& c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
  }
  return name;
}

class ParallelFaultRecovery : public ::testing::TestWithParam<FaultCase> {};

TEST_P(ParallelFaultRecovery, WindowedRecoveryMatchesMergedSerial) {
  const FaultCase& fault_case = GetParam();
  auto build = [&]() {
    SystemBuilder builder;
    builder.topology(fault_case.topo).kl(2, 4).seed(17).threads(2);
    return builder.build();
  };
  std::unique_ptr<SystemBase> windowed = build();
  std::unique_ptr<SystemBase> merged = build();
  ASSERT_EQ(windowed->threads(), 2);

  // Identical pre-fault trajectories: run_until_stabilized drives the
  // merged-serial loop on both systems.
  sim::SimTime stab_w = windowed->run_until_stabilized(10'000'000);
  sim::SimTime stab_m = merged->run_until_stabilized(10'000'000);
  ASSERT_NE(stab_w, sim::kTimeInfinity);
  EXPECT_EQ(stab_w, stab_m);
  ASSERT_TRUE(windowed->token_counts_correct());

  // The same fault, from the same rng stream, lands identically.
  support::Rng fault_rng_w(99);
  support::Rng fault_rng_m(99);
  if (fault_case.fault == FaultKind::kTransient) {
    windowed->inject_transient_fault(fault_rng_w);
    merged->inject_transient_fault(fault_rng_m);
  } else {
    windowed->flood_channels(fault_rng_w, 3);
    merged->flood_channels(fault_rng_m, 3);
  }
  expect_same_census(windowed->census_oracle(), merged->census_oracle());

  // Recovery: the windowed loop on one side, merged-serial on the other.
  // Advance in lockstep until both report the legitimate population
  // again (same 40M-tick allowance as the topology-generic test).
  sim::SimTime t = windowed->engine().now();
  const sim::SimTime deadline = t + 40'000'000;
  while (t < deadline && !(windowed->token_counts_correct() &&
                           merged->token_counts_correct())) {
    t += 250'000;
    windowed->run_until(t);
    merged->engine().run_until(t);
  }
  t += 100'000;  // settle one more slice past the census transition
  windowed->run_until(t);
  merged->engine().run_until(t);

  EXPECT_TRUE(windowed->token_counts_correct()) << "windowed never recovered";
  EXPECT_TRUE(merged->token_counts_correct()) << "merged never recovered";
  EXPECT_GT(windowed->parallel_engine()->window_stats().windows, 0u);

  expect_same_clocks_and_counters(windowed->engine(), merged->engine());
  expect_same_census(windowed->census(), merged->census());
  expect_same_census(windowed->census(), windowed->census_oracle());
  for (NodeId v = 0; v < windowed->n(); ++v) {
    EXPECT_EQ(windowed->state_of(v), merged->state_of(v)) << "node " << v;
    EXPECT_EQ(windowed->need_of(v), merged->need_of(v)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndFaults, ParallelFaultRecovery,
    ::testing::Values(
        FaultCase{TopologySpec::tree_random(40, 5), FaultKind::kTransient},
        FaultCase{TopologySpec::tree_random(40, 5), FaultKind::kGarbageFlood},
        FaultCase{TopologySpec::ring(32), FaultKind::kTransient},
        FaultCase{TopologySpec::ring(32), FaultKind::kGarbageFlood},
        FaultCase{TopologySpec::graph_random(20, 8, 3),
                  FaultKind::kTransient},
        FaultCase{TopologySpec::graph_random(20, 8, 3),
                  FaultKind::kGarbageFlood}),
    fault_case_name);

// -- topology churn: windowed repair == merged-serial repair -----------------

/// The online spanning-tree repair (clear channels, epoch drain, rebind
/// every process to the new overlay, re-mint) must leave the windowed
/// and merged-serial executions on identical trajectories -- the repair
/// mutates engine wiring and process state outside the event loop, so a
/// lane-visibility bug would show up here as a post-repair divergence.
class ParallelChurnDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ParallelChurnDifferential, WindowedRepairMatchesMergedSerial) {
  const int lanes = GetParam();
  auto build = [&]() {
    return SystemBuilder()
        .topology(TopologySpec::graph_grid(5, 4))
        .kl(2, 4)
        .features(proto::Features::full().with_epoch_cut())
        .seed(29)
        .threads(lanes)
        .live_topology()
        .build();
  };
  std::unique_ptr<SystemBase> windowed = build();
  std::unique_ptr<SystemBase> merged = build();
  ASSERT_EQ(windowed->threads(), lanes);

  sim::SimTime stab_w = windowed->run_until_stabilized(10'000'000);
  sim::SimTime stab_m = merged->run_until_stabilized(10'000'000);
  ASSERT_NE(stab_w, sim::kTimeInfinity);
  EXPECT_EQ(stab_w, stab_m);

  // The same churn from identical rng streams picks the same links and
  // draws the same repair construction seed on both systems.
  FaultEvent event;
  event.kind = FaultKind::kLinkChurn;
  event.count = 2;
  support::Rng rng_w(123);
  support::Rng rng_m(123);
  TopologyFaultResult repair_w = windowed->apply_topology_fault(event, rng_w);
  TopologyFaultResult repair_m = merged->apply_topology_fault(event, rng_m);
  EXPECT_EQ(repair_w.links_changed, repair_m.links_changed);
  EXPECT_EQ(repair_w.parent_changes, repair_m.parent_changes);
  EXPECT_EQ(repair_w.repair_seed, repair_m.repair_seed);
  EXPECT_EQ(repair_w.attached_nodes, 20);
  expect_same_census(windowed->census_oracle(), merged->census_oracle());

  // Post-repair: the windowed loop on one side, merged-serial on the
  // other, in lockstep until both carry the legitimate population again.
  sim::SimTime t = windowed->engine().now();
  const sim::SimTime deadline = t + 40'000'000;
  while (t < deadline && !(windowed->token_counts_correct() &&
                           merged->token_counts_correct())) {
    t += 250'000;
    windowed->run_until(t);
    merged->engine().run_until(t);
  }
  t += 100'000;
  windowed->run_until(t);
  merged->engine().run_until(t);

  EXPECT_TRUE(windowed->token_counts_correct()) << "windowed never recovered";
  EXPECT_TRUE(merged->token_counts_correct()) << "merged never recovered";
  if (lanes > 1) {
    ASSERT_NE(windowed->parallel_engine(), nullptr);
    EXPECT_GT(windowed->parallel_engine()->window_stats().windows, 0u);
  }

  expect_same_clocks_and_counters(windowed->engine(), merged->engine());
  expect_same_census(windowed->census(), merged->census());
  expect_same_census(windowed->census(), windowed->census_oracle());
  for (NodeId v = 0; v < windowed->n(); ++v) {
    EXPECT_EQ(windowed->state_of(v), merged->state_of(v)) << "node " << v;
    EXPECT_EQ(windowed->need_of(v), merged->need_of(v)) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ParallelChurnDifferential,
                         ::testing::Values(1, 2, 4));

// -- window-safe monitor: lane-buffered observations == direct ---------------

/// Everything the SafetyMonitor can report after a run, plus the engine
/// clock/counters the run ended on. Two equal outcomes mean the
/// lane-buffered observation path reproduced the direct path exactly.
struct MonitoredOutcome {
  std::int64_t total_entries = 0;
  std::int64_t violation_count = 0;
  sim::SimTime last_violation = 0;
  std::int64_t stall_count = 0;
  std::vector<verify::SafetyMonitor::Stall> stalls;
  int units_in_use = 0;
  int in_cs_count = 0;
  sim::SimTime now = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t messages_delivered = 0;
};

/// Runs a monitored chaos run at `lanes` threads: steady drop/dup chaos,
/// a watching SafetyMonitor with the stall watchdog armed, and more
/// requested units than l so some requests stall forever. Sequencing is
/// per entity, so the trajectory -- and therefore the monitor's
/// observation stream -- must be identical at every P.
MonitoredOutcome run_monitored(int lanes) {
  // dup_p well below drop_p: the in-flight population multiplies by
  // ~(1 + dup_p - drop_p) per hop, so dup-dominant configs explode
  // (see bench_chaos.cpp).
  sim::ChaosConfig chaos;
  chaos.drop_p = 0.02;
  chaos.dup_p = 0.005;
  SystemBuilder builder;
  builder.topology(TopologySpec::tree_random(48, 7))
      .kl(2, 5)
      .seed(11)
      .seed_tokens()
      .threads(lanes)
      .chaos(chaos);
  std::unique_ptr<SystemBase> system = builder.build();

  verify::SafetyMonitor safety(system->n(), 2, 5);
  system->add_listener(&safety);
  safety.set_stall_threshold(5'000);
  safety.watch(system->engine());

  // Raw requests, no WorkloadDriver: driver cycles are engine callbacks,
  // which force the merged-serial fallback -- this test exists to prove
  // the monitor alone does not.
  for (int v : {3, 9, 17, 25, 33, 41}) system->request(v, 2);
  system->run_until(120'000);

  if (lanes > 1) {
    EXPECT_NE(system->parallel_engine(), nullptr);
    // The monitor is window-safe: the run must have executed on the
    // windowed path, never the merged-serial fallback.
    EXPECT_GT(system->parallel_engine()->window_stats().windows, 0u);
    EXPECT_EQ(system->parallel_engine()->window_stats().merged_fallbacks, 0u);
  }

  MonitoredOutcome outcome;
  outcome.total_entries = safety.total_entries();
  outcome.violation_count = safety.violation_count();
  outcome.last_violation = safety.last_violation_time();
  outcome.stall_count = safety.stall_count();
  outcome.stalls = safety.stalls();
  outcome.units_in_use = safety.units_in_use();
  outcome.in_cs_count = safety.in_cs_count();
  outcome.now = system->engine().now();
  outcome.events_executed = system->engine().events_executed();
  outcome.messages_delivered = system->engine().messages_delivered();
  return outcome;
}

void expect_same_outcome(const MonitoredOutcome& a, const MonitoredOutcome& b,
                         int lanes) {
  EXPECT_EQ(a.total_entries, b.total_entries) << "P=" << lanes;
  EXPECT_EQ(a.violation_count, b.violation_count) << "P=" << lanes;
  EXPECT_EQ(a.last_violation, b.last_violation) << "P=" << lanes;
  EXPECT_EQ(a.stall_count, b.stall_count) << "P=" << lanes;
  ASSERT_EQ(a.stalls.size(), b.stalls.size()) << "P=" << lanes;
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].node, b.stalls[i].node) << "stall " << i;
    EXPECT_EQ(a.stalls[i].requested_at, b.stalls[i].requested_at)
        << "stall " << i;
    EXPECT_EQ(a.stalls[i].flagged_at, b.stalls[i].flagged_at) << "stall " << i;
  }
  EXPECT_EQ(a.units_in_use, b.units_in_use) << "P=" << lanes;
  EXPECT_EQ(a.in_cs_count, b.in_cs_count) << "P=" << lanes;
  EXPECT_EQ(a.now, b.now) << "P=" << lanes;
  EXPECT_EQ(a.events_executed, b.events_executed) << "P=" << lanes;
  EXPECT_EQ(a.messages_delivered, b.messages_delivered) << "P=" << lanes;
}

TEST(MonitoredWindowed, ChaosRunBitIdenticalAcrossLaneCounts) {
  MonitoredOutcome direct = run_monitored(1);
  // The scenario must exercise the watchdog (6 x need-2 against l = 5
  // leaves permanently stalled requesters) and CS entries, or the
  // differential below would be comparing silence to silence.
  EXPECT_GT(direct.total_entries, 0);
  EXPECT_GT(direct.stall_count, 0);
  EXPECT_GT(direct.messages_delivered, 0u);

  for (int lanes : {2, 4}) {
    MonitoredOutcome windowed = run_monitored(lanes);
    expect_same_outcome(direct, windowed, lanes);
  }
}

// -- callbacks and windows ----------------------------------------------------

/// A closed-loop workload with a single resource unit: while every active
/// node waits for the one token in transit, no callback is pending --
/// exactly the stretches in which a window could open and a grant
/// handler could then schedule the CS release from a lane thread.
struct CallbackRun {
  Session session;
  sim::ParallelEngine::WindowStats before_workload{};
  bool saw_no_pending_callback = false;
};

CallbackRun run_closed_loop(int lanes) {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::exponential(40);
  workload.base.cs_duration = proto::Dist::exponential(20);
  CallbackRun run;
  run.session = SystemBuilder()
                    .topology(TopologySpec::tree_random(16, 3))
                    .kl(1, 1)
                    .seed(23)
                    .threads(lanes)
                    .workload(workload)
                    .build_session();
  SystemBase& system = *run.session.system;
  system.run_until(20'000);  // no callback yet: windows may run
  if (const sim::ParallelEngine* parallel = system.parallel_engine()) {
    run.before_workload = parallel->window_stats();
  }
  run.session.begin_workload();
  for (sim::SimTime t = 20'000; t < 200'000; t += 500) {
    system.run_until(t);
    if (system.engine().pending_callbacks() == 0) {
      run.saw_no_pending_callback = true;
    }
  }
  return run;
}

TEST(ParallelCallbacks, NoWindowOpensOnceACallbackWasScheduled) {
  CallbackRun serial = run_closed_loop(1);
  CallbackRun parallel = run_closed_loop(4);
  SystemBase& a = *serial.session.system;
  SystemBase& b = *parallel.session.system;
  ASSERT_EQ(b.threads(), 4);
  ASSERT_NE(b.parallel_engine(), nullptr);
  EXPECT_TRUE(parallel.saw_no_pending_callback)
      << "the workload never left the callback-free stretches this test "
         "is about";

  // Windows ran before the first callback, none after it.
  const sim::ParallelEngine::WindowStats& after =
      b.parallel_engine()->window_stats();
  EXPECT_GT(parallel.before_workload.windows, 0u);
  EXPECT_EQ(after.windows, parallel.before_workload.windows);
  EXPECT_GT(after.merged_fallbacks, parallel.before_workload.merged_fallbacks);

  // And the run is the serial one.
  EXPECT_GT(serial.session.driver->total_grants(), 0);
  EXPECT_EQ(parallel.session.driver->total_grants(),
            serial.session.driver->total_grants());
  EXPECT_EQ(parallel.session.driver->total_requests(),
            serial.session.driver->total_requests());
  expect_same_clocks_and_counters(a.engine(), b.engine());
  expect_same_census(a.census(), b.census());
  for (NodeId v = 0; v < a.n(); ++v) {
    EXPECT_EQ(a.state_of(v), b.state_of(v)) << "node " << v;
    EXPECT_EQ(a.need_of(v), b.need_of(v)) << "node " << v;
  }
}

TEST(ParallelCallbacks, ScheduleInsideAWindowThrows) {
  System system(tree_config(/*threads=*/2));
  sim::Engine& engine = system.engine();
  engine.start();
  engine.begin_window(engine.next_event_time());
  EXPECT_THROW(engine.schedule(1, [] {}), support::CheckFailure);
  EXPECT_THROW(engine.schedule_in_stream(0, 1, [] {}), support::CheckFailure);
  engine.end_window();
  EXPECT_EQ(engine.callbacks_scheduled(), 0u);
  EXPECT_EQ(engine.pending_callbacks(), 0u);
}

TEST(ParallelCallbacks, HandlerSchedulingInsideAWindowThrowsOnTheCaller) {
  System system(tree_config(/*threads=*/2));
  ASSERT_NE(system.parallel_engine(), nullptr);
  ASSERT_NE(system.run_until_stabilized(10'000'000), sim::kTimeInfinity);
  // The grant lands inside a window, on whichever lane owns the node; its
  // handler's schedule() fails there and the failure reaches run_until.
  Client& client = system.clients().at(30);
  client.on_granted([&system](Lease) { system.engine().schedule(1, [] {}); });
  client.acquire(1);
  ASSERT_TRUE(client.waiting());
  EXPECT_THROW(system.run_until(system.engine().now() + 200'000),
               support::CheckFailure);
  EXPECT_EQ(system.engine().callbacks_scheduled(), 0u);
  EXPECT_FALSE(system.engine().in_window());
}

// -- calendar ring auto-sizing (scheduler satellite) -------------------------

/// Echoes each message back with f0 decremented until it reaches zero.
class EchoProcess : public sim::Process {
 public:
  void on_message(int channel, const sim::Message& msg) override {
    ++deliveries;
    if (msg.f0 > 0) {
      sim::Message reply = msg;
      --reply.f0;
      send(channel, reply);
    }
  }
  void on_timer(int timer_id) override { timer_fires.push_back(timer_id); }

  int deliveries = 0;
  std::vector<int> timer_fires;

  using sim::Process::send;
  using sim::Process::set_timer;
};

struct EchoPair {
  explicit EchoPair(sim::DelayModel delays = {}, std::uint64_t seed = 1)
      : engine(delays, seed) {
    auto p0 = std::make_unique<EchoProcess>();
    auto p1 = std::make_unique<EchoProcess>();
    a = p0.get();
    b = p1.get();
    engine.add_process(std::move(p0));
    engine.add_process(std::move(p1));
    engine.connect(0, 0, 1, 0);
    engine.connect(1, 0, 0, 0);
  }
  sim::Engine engine;
  EchoProcess* a = nullptr;
  EchoProcess* b = nullptr;
};

TEST(CalendarAutoSize, DefaultDelayModelKeepsTheDefaultWindow) {
  EchoPair net;  // DelayModel{1, 16}
  net.engine.start();
  // The default window must not move: its routing counters are pinned
  // elsewhere (event_core_test) and must stay bit-identical.
  EXPECT_EQ(net.engine.stats().bucket_window, 1024u);
}

TEST(CalendarAutoSize, WideDelayModelGrowsTheWindow) {
  EchoPair net(sim::DelayModel{1000, 3000}, /*seed=*/5);
  net.engine.start();
  ASSERT_EQ(net.engine.stats().bucket_window, 4096u);

  // 64 concurrent echo chains keep the queue far above the sparse
  // regime (where pushes legitimately prefer the overflow heap), so
  // every delay <= 3000 must land on the grown ring. Stop well before
  // the chains drain (100 hops at >= 1000 ticks each) so the queue
  // never falls back into the sparse regime mid-measurement.
  for (int i = 0; i < 64; ++i) {
    sim::Message msg;
    msg.type = 1;
    msg.f0 = 100;
    net.a->send(0, msg);
  }
  net.engine.run_until(150'000);

  sim::EngineStats stats = net.engine.stats();
  EXPECT_GT(stats.scheduler.bucket_inserts, 1000u);
  // Only the initial sparse ramp-up (first ~dozen sends) may overflow.
  EXPECT_LE(stats.scheduler.overflow_pushes, 32u);
}

// -- counter widths (overflow satellite) -------------------------------------

TEST(EngineStatsWidth, PerEventCountersAreSixtyFourBit) {
  // A 10^6-node run executes well beyond 2^32 events; every counter that
  // grows per event (or per scheduler operation) must be 64-bit. These
  // are compile-time pins so a narrowing refactor fails loudly here.
  using sim::Engine;
  using sim::EngineStats;
  using sim::SchedulerCounters;
  static_assert(
      std::is_same_v<decltype(EngineStats::events_executed), std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(EngineStats::messages_sent), std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(EngineStats::messages_delivered), std::uint64_t>);
  static_assert(std::is_same_v<decltype(EngineStats::callbacks_scheduled),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(EngineStats::callback_slots_created),
                               std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(EngineStats::max_heap_size), std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(EngineStats::in_flight_walks), std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(EngineStats::bucket_window), std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::bucket_inserts),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::bucket_scans),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::overflow_pushes),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::overflow_pops),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::bucket_sorts),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(SchedulerCounters::sorted_events),
                               std::uint64_t>);
  static_assert(
      std::is_same_v<decltype(sim::ParallelEngine::WindowStats::windows),
                     std::uint64_t>);
  static_assert(std::is_same_v<
                decltype(sim::ParallelEngine::WindowStats::merged_fallbacks),
                std::uint64_t>);
  // Accessor return types must not narrow either.
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .messages_sent()),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .messages_delivered()),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .events_executed()),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .in_flight_messages()),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .in_flight_of_type(1)),
                               std::uint64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const Engine&>()
                                            .sent_of_type(1)),
                               std::uint64_t>);
  SUCCEED();
}

}  // namespace
}  // namespace klex
