// ExperimentRunner: grid expansion, parallel execution determinism,
// aggregation, and the JSON artifact shape.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace klex::exp {
namespace {

ScenarioSpec small_scenario() {
  ScenarioSpec spec;
  spec.name = "test_scenario";
  spec.topologies = {TopologySpec::tree_line(5), TopologySpec::ring(5)};
  spec.kl = {{1, 2}};
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.warmup = 10'000;
  spec.horizon = 300'000;
  spec.seeds = 2;
  spec.base_seed = 41;
  return spec;
}

TEST(TopologySpec, NamesAndNodeCounts) {
  EXPECT_EQ(TopologySpec::tree_line(16).name(), "tree:line(n=16)");
  EXPECT_EQ(TopologySpec::tree_line(16).node_count(), 16);
  EXPECT_EQ(TopologySpec::tree_balanced(2, 3).node_count(), 15);
  EXPECT_EQ(TopologySpec::graph_grid(4, 4).name(), "graph:grid(4x4)");
  EXPECT_EQ(TopologySpec::graph_grid(4, 4).node_count(), 16);
  EXPECT_EQ(TopologySpec::tree_caterpillar(6, 2).node_count(), 18);
  EXPECT_EQ(TopologySpec::ring(9).name(), "ring(n=9)");
}

TEST(ExperimentRunner, ExpandsFullGrid) {
  ScenarioSpec spec = small_scenario();
  spec.kl = {{1, 2}, {2, 3}};
  std::vector<RunPoint> points = ExperimentRunner::expand(spec);
  ASSERT_EQ(points.size(), 2u * 2u * 2u);  // topologies x kl x seeds
  // Seed-major inner loop.
  EXPECT_EQ(points[0].seed, 41u);
  EXPECT_EQ(points[1].seed, 42u);
  EXPECT_EQ(points[0].k, 1);
  EXPECT_EQ(points[2].k, 2);
  EXPECT_EQ(points[2].l, 3);
}

#if defined(__linux__)
TEST(ExperimentRunner, DefaultPoolFollowsTheAffinityMask) {
  // The pool is one worker per CPU the process may use, so taskset can
  // serialise a timing bench's grid points.
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(ExperimentRunner(0).threads(), CPU_COUNT(&mask));

  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = ExperimentRunner(0).threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(pinned, 1);
}
#endif

TEST(ExperimentRunner, RunPointServesWorkload) {
  ScenarioSpec spec = small_scenario();
  RunPoint point = ExperimentRunner::expand(spec)[0];
  RunResult result = ExperimentRunner::run_point(spec, point);
  EXPECT_EQ(result.topology, "tree:line(n=5)");
  EXPECT_EQ(result.n, 5);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.safety_ok);
  EXPECT_GT(result.grants, 0);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.events_per_sec, 0.0);
}

TEST(ExperimentRunner, ParallelMatchesSerialBitForBit) {
  ScenarioSpec spec = small_scenario();
  std::vector<RunResult> serial = ExperimentRunner(1).run(spec);
  std::vector<RunResult> parallel = ExperimentRunner(4).run(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Everything but the wall-clock fields is deterministic.
    EXPECT_EQ(serial[i].topology, parallel[i].topology);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].stabilization_time, parallel[i].stabilization_time);
    EXPECT_EQ(serial[i].grants, parallel[i].grants);
    EXPECT_EQ(serial[i].requests, parallel[i].requests);
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed);
    EXPECT_EQ(serial[i].mean_wait_entries, parallel[i].mean_wait_entries);
    EXPECT_EQ(serial[i].control_messages, parallel[i].control_messages);
  }
}

TEST(ExperimentRunner, RungAxisReachesEveryRun) {
  // Every run must execute its own rung: a pusher-only run that sends a
  // priority or control token ran the full protocol instead.
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_balanced(2, 2)};
  spec.features = {proto::Features::with_pusher(),
                   proto::Features::with_priority(),
                   proto::Features::full()};
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  ASSERT_EQ(results.size(), 3u * 2u);  // rungs x seeds
  int pusher = 0, priority = 0, full = 0;
  for (const RunResult& run : results) {
    SCOPED_TRACE(run.features + " seed " + std::to_string(run.seed));
    EXPECT_TRUE(run.safety_ok);
    if (run.features == "pusher") {
      ++pusher;
      EXPECT_EQ(run.control_messages, 0u);
      EXPECT_EQ(run.priority_messages, 0u);
    } else if (run.features == "pusher+priority") {
      ++priority;
      EXPECT_EQ(run.control_messages, 0u);
      EXPECT_GT(run.priority_messages, 0u);
    } else {
      ASSERT_EQ(run.features, "full");
      ++full;
      EXPECT_GT(run.control_messages, 0u);
    }
  }
  EXPECT_EQ(pusher, 2);
  EXPECT_EQ(priority, 2);
  EXPECT_EQ(full, 2);
}

TEST(ExperimentRunner, FaultPhaseRecovers) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_line(5)};
  spec.seeds = 1;
  spec.fault = ScenarioSpec::FaultKind::kTransient;
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].fault_injected);
  EXPECT_TRUE(results[0].recovered);
  EXPECT_GT(results[0].recovery_time, 0u);
  // Elapsed-since-fault, not an absolute timestamp: the fault fires after
  // stabilization + warmup + horizon (> 300k ticks), while recovery on a
  // 5-node line takes a few thousand.
  EXPECT_LT(results[0].recovery_time, 300'000u);
}

TEST(ExperimentRunner, ChannelWipeFaultRecovers) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_line(5)};
  spec.seeds = 1;
  spec.fault = ScenarioSpec::FaultKind::kChannelWipe;
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].fault_injected);
  EXPECT_TRUE(results[0].recovered);
  // Deficit-only: the root timeout restarts circulation, the mint repairs
  // the population; recovery must not need a reset-length drain.
  EXPECT_GT(results[0].recovery_time, 0u);
  EXPECT_LT(results[0].recovery_time, 300'000u);
}

TEST(ExperimentRunner, AggregatesAcrossSeeds) {
  ScenarioSpec spec = small_scenario();
  std::vector<RunResult> results = ExperimentRunner(2).run(spec);
  std::vector<Aggregate> cells = ExperimentRunner::aggregate(results);
  ASSERT_EQ(cells.size(), 2u);  // one per topology (single kl pair)
  for (const Aggregate& cell : cells) {
    EXPECT_EQ(cell.runs, 2);
    EXPECT_EQ(cell.stabilized_runs, 2);
    EXPECT_EQ(cell.safe_runs, 2);
    EXPECT_GT(cell.mean_grants_per_mtick, 0.0);
  }
}

// The keys of the JSON object whose '{' is the first one at or after
// `from`, in order (the keys of nested objects are skipped).
std::vector<std::string> object_keys(const std::string& text,
                                     std::size_t from) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = text.find('{', from); i < text.size(); ++i) {
    if (text[i] == '"') {
      std::size_t end = i + 1;
      while (text[end] != '"') end += text[end] == '\\' ? 2 : 1;
      if (depth == 1 && text[end + 1] == ':') {
        keys.push_back(text.substr(i + 1, end - i - 1));
      }
      i = end;
    } else if (text[i] == '{' || text[i] == '[') {
      ++depth;
    } else if ((text[i] == '}' || text[i] == ']') && --depth == 0) {
      break;
    }
  }
  return keys;
}

using Keys = std::vector<std::string>;

TEST(ExperimentRunner, JsonArtifactIsWellFormed) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_line(5)};
  spec.seeds = 1;
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  std::ostringstream out;
  write_json(out, spec, results);
  std::string text = out.str();
  EXPECT_NE(text.find("\"scenario\": \"test_scenario\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  // The emitted key order is the artifact schema: every conditional block
  // of a plain fault-free run stays out.
  EXPECT_EQ(object_keys(text, 0), (Keys{"scenario", "spec", "runs",
                                        "aggregates"}));
  const std::size_t runs = text.find("\"runs\": [");
  ASSERT_NE(runs, std::string::npos);
  EXPECT_EQ(object_keys(text, runs),
            (Keys{"topology", "features", "n", "k", "l", "threads", "seed",
                  "stabilized", "stabilization_time", "grants", "requests",
                  "grants_per_mtick", "outstanding_at_end", "quiescent_at_end",
                  "mean_wait_entries", "max_wait_entries", "p99_wait_entries",
                  "latency_count", "grant_latency_p50", "grant_latency_p99",
                  "grant_latency_p999", "messages_per_grant",
                  "control_messages", "resource_messages", "pusher_messages",
                  "priority_messages", "safety_ok", "events_executed",
                  "wall_seconds", "events_per_sec", "engine"}));
  EXPECT_EQ(object_keys(text, text.find("\"engine\": {", runs)),
            (Keys{"callbacks_scheduled", "callback_slots_created",
                  "max_heap_size", "in_flight_walks", "bucket_inserts",
                  "bucket_scans", "overflow_pushes", "overflow_pops",
                  "bucket_sorts", "sorted_events", "bucket_window"}));
  const std::size_t aggregates = text.find("\"aggregates\": [");
  ASSERT_NE(aggregates, std::string::npos);
  EXPECT_EQ(
      object_keys(text, aggregates),
      (Keys{"topology", "features", "k", "l", "threads", "n", "runs",
            "stabilized_runs", "safe_runs", "recovered_runs",
            "mean_stabilization_time", "max_stabilization_time",
            "mean_recovery_time", "max_recovery_time", "mean_recovery_events",
            "mean_recovery_wall_seconds", "mean_wall_seconds",
            "mean_grants_per_mtick", "mean_wait_entries", "max_wait_entries",
            "mean_grant_latency_p50", "mean_grant_latency_p99",
            "mean_grant_latency_p999", "mean_messages_per_grant",
            "mean_outstanding_at_end", "total_events_per_sec"}));
}

// Scenarios that turn on every conditional block: a staged plan with a
// chaos burst (fault, per-event and chaos fields), the liveness watchdog
// (monitored fields), a policy axis and a workload class; then a fleet
// point (fleets take no staged plan).
TEST(ExperimentRunner, JsonArtifactEmitsEveryConditionalBlock) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_line(5)};
  spec.seeds = 1;
  spec.fault_garbage = {2};
  FaultEvent burst;
  burst.kind = FaultKind::kChaosBurst;
  burst.duration = 2'000;
  burst.chaos.drop_p = 0.05;
  spec.fault_plan.events = {burst};
  spec.stall_threshold = 200'000;
  ScenarioSpec::PolicyVariant variant;
  variant.label = "default";
  spec.policies = {variant};
  proto::BehaviorClass busy;
  busy.name = "busy";
  busy.count = 2;
  busy.behavior = spec.workload.base;
  spec.workload.classes = {busy};
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].recovered);
  std::ostringstream out;
  write_json(out, spec, results);
  std::string text = out.str();

  const std::size_t runs = text.find("\"runs\": [");
  ASSERT_NE(runs, std::string::npos);
  EXPECT_EQ(
      object_keys(text, runs),
      (Keys{"topology", "features", "n", "k", "l", "threads", "policy",
            "seed", "stabilized", "stabilization_time", "fault_garbage",
            "recovered", "recovery_time", "recovery_events",
            "recovery_wall_seconds", "fault_events", "grants", "requests",
            "grants_per_mtick", "outstanding_at_end", "quiescent_at_end",
            "classes", "mean_wait_entries", "max_wait_entries",
            "p99_wait_entries", "latency_count", "grant_latency_p50",
            "grant_latency_p99", "grant_latency_p999", "messages_per_grant",
            "control_messages", "resource_messages", "pusher_messages",
            "priority_messages", "safety_ok", "safety_violations",
            "last_violation_time", "liveness_stalls",
            "fault_phase_violations", "events_executed", "wall_seconds",
            "events_per_sec", "engine"}));
  EXPECT_EQ(object_keys(text, text.find("\"fault_events\": [", runs)),
            (Keys{"at", "kind", "links_changed", "nodes_changed", "detached",
                  "reattached", "attached_nodes", "parent_changes",
                  "stree_events", "stree_time", "repair_seed", "recovered",
                  "recovery_time", "recovery_events", "chaos_dropped",
                  "chaos_duplicated", "chaos_reordered", "chaos_jittered",
                  "violations"}));
  EXPECT_EQ(object_keys(text, text.find("\"classes\": [", runs)),
            (Keys{"name", "nodes", "requests", "grants", "holding_at_end",
                  "latency_count", "grant_latency_p50", "grant_latency_p99",
                  "grant_latency_p999"}));
  EXPECT_EQ(object_keys(text, text.find("\"engine\": {", runs)),
            (Keys{"callbacks_scheduled", "callback_slots_created",
                  "max_heap_size", "in_flight_walks", "chaos_dropped",
                  "chaos_duplicated", "chaos_reordered", "chaos_jittered",
                  "bucket_inserts", "bucket_scans", "overflow_pushes",
                  "overflow_pops", "bucket_sorts", "sorted_events",
                  "bucket_window"}));
  const std::size_t aggregates = text.find("\"aggregates\": [");
  ASSERT_NE(aggregates, std::string::npos);
  EXPECT_EQ(
      object_keys(text, aggregates),
      (Keys{"topology", "features", "k", "l", "fault_garbage", "threads",
            "policy", "n", "runs", "stabilized_runs", "safe_runs",
            "recovered_runs", "mean_stabilization_time",
            "max_stabilization_time", "mean_recovery_time",
            "max_recovery_time", "mean_recovery_events",
            "mean_recovery_wall_seconds", "mean_wall_seconds",
            "mean_grants_per_mtick", "mean_wait_entries", "max_wait_entries",
            "mean_grant_latency_p50", "mean_grant_latency_p99",
            "mean_grant_latency_p999", "mean_messages_per_grant",
            "mean_outstanding_at_end", "total_events_per_sec",
            "mean_fault_events", "mean_parent_changes", "mean_stree_events",
            "mean_chaos_dropped", "mean_chaos_duplicated",
            "mean_chaos_reordered", "mean_chaos_jittered",
            "mean_fault_phase_violations", "mean_liveness_stalls"}));

  // The fleet block: tenant count and mode in both records, per-tenant
  // slices in the run.
  ScenarioSpec fleet = small_scenario();
  fleet.topologies = {TopologySpec::tree_line(5)};
  fleet.seeds = 1;
  fleet.fleet = {2};
  std::ostringstream fleet_out;
  write_json(fleet_out, fleet, ExperimentRunner(1).run(fleet));
  text = fleet_out.str();
  const std::size_t fleet_runs = text.find("\"runs\": [");
  ASSERT_NE(fleet_runs, std::string::npos);
  Keys run_keys = object_keys(text, fleet_runs);
  ASSERT_GE(run_keys.size(), 9u);
  EXPECT_EQ(Keys(run_keys.begin() + 5, run_keys.begin() + 9),
            (Keys{"threads", "fleet", "fleet_mode", "seed"}));
  EXPECT_NE(std::find(run_keys.begin(), run_keys.end(), "tenants"),
            run_keys.end());
  EXPECT_EQ(object_keys(text, text.find("\"tenants\": [", fleet_runs)),
            (Keys{"tenant", "n", "stabilized", "stabilization_time",
                  "requests", "grants", "events_executed", "recovery_events",
                  "correct_at_end"}));
  Keys cell_keys = object_keys(text, text.find("\"aggregates\": ["));
  ASSERT_GE(cell_keys.size(), 8u);
  EXPECT_EQ(Keys(cell_keys.begin() + 4, cell_keys.begin() + 8),
            (Keys{"threads", "fleet", "fleet_mode", "n"}));
}

TEST(ExperimentRunner, GraphTopologyRunsThroughRunner) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::graph_grid(3, 3)};
  spec.seeds = 1;
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].n, 9);
  EXPECT_TRUE(results[0].stabilized);
  EXPECT_GT(results[0].grants, 0);
}

// The single post-measurement fault is the one-event case of the staged
// fault plan (offset 0): both spellings run through the same fault loop
// and must give the same run on the same seed.
struct FoldCase {
  const char* name;
  FaultKind kind;
  int garbage;  // -1 = the kind's default
};

// Keeps the printed parameter (and so the listed test name) stable.
void PrintTo(const FoldCase& param, std::ostream* out) { *out << param.name; }

class FaultPathFold : public ::testing::TestWithParam<FoldCase> {};

TEST_P(FaultPathFold, SingleFaultEqualsOneEventPlan) {
  const FoldCase& param = GetParam();
  ScenarioSpec single = small_scenario();
  single.topologies = {TopologySpec::tree_line(5)};
  single.seeds = 1;
  ScenarioSpec planned = single;
  single.fault = param.kind;
  single.fault_garbage = {param.garbage};
  FaultEvent event;
  event.kind = param.kind;
  event.garbage = param.garbage;
  planned.fault_plan.events = {event};

  RunResult a = ExperimentRunner::run_point(
      single, ExperimentRunner::expand(single).front());
  RunResult b = ExperimentRunner::run_point(
      planned, ExperimentRunner::expand(planned).front());
  ASSERT_TRUE(a.fault_injected);
  ASSERT_TRUE(b.fault_injected);
  EXPECT_TRUE(a.recovered);
  EXPECT_TRUE(b.recovered);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.recovery_time, b.recovery_time);
  EXPECT_EQ(a.recovery_events, b.recovery_events);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  // Only the staged spelling records its event.
  EXPECT_TRUE(a.fault_events.empty());
  ASSERT_EQ(b.fault_events.size(), 1u);
  EXPECT_EQ(b.fault_events.front().recovery_events, b.recovery_events);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FaultPathFold,
    ::testing::Values(FoldCase{"transient", FaultKind::kTransient, -1},
                      FoldCase{"channel_wipe", FaultKind::kChannelWipe, -1},
                      FoldCase{"garbage_flood", FaultKind::kGarbageFlood, 6}),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace klex::exp
