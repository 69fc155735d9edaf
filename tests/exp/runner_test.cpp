// ExperimentRunner: grid expansion, parallel execution determinism,
// aggregation, and the JSON artifact shape.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>

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

TEST(ExperimentRunner, JsonArtifactIsWellFormed) {
  ScenarioSpec spec = small_scenario();
  spec.topologies = {TopologySpec::tree_line(5)};
  spec.seeds = 1;
  std::vector<RunResult> results = ExperimentRunner(1).run(spec);
  std::ostringstream out;
  write_json(out, spec, results);
  std::string text = out.str();
  EXPECT_NE(text.find("\"scenario\": \"test_scenario\""), std::string::npos);
  EXPECT_NE(text.find("\"runs\": ["), std::string::npos);
  EXPECT_NE(text.find("\"events_per_sec\""), std::string::npos);
  EXPECT_NE(text.find("\"callback_slots_created\""), std::string::npos);
  EXPECT_NE(text.find("\"aggregates\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
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
