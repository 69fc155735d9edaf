// The experiment grid's fleet axis: expansion fan-out, shared-engine
// fleet runs with per-tenant slices, the separate-engines batching
// baseline, fault isolation in the artifact, and the JSON shape.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace klex::exp {
namespace {

ScenarioSpec fleet_scenario() {
  ScenarioSpec spec;
  spec.name = "test_fleet";
  spec.topologies = {TopologySpec::tree_line(6)};
  spec.kl = {{1, 2}};
  spec.fleet = {3};
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.warmup = 10'000;
  spec.horizon = 300'000;
  spec.seeds = 1;
  spec.base_seed = 71;
  return spec;
}

TEST(FleetGrid, ExpandFansOutSharedAndSeparateModes) {
  ScenarioSpec spec = fleet_scenario();
  spec.fleet = {1, 4};
  spec.seeds = 2;

  // Without the baseline: one point per fleet entry per seed.
  std::vector<RunPoint> points = ExperimentRunner::expand(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].fleet, 1);
  EXPECT_FALSE(points[0].fleet_separate);
  EXPECT_EQ(points[2].fleet, 4);
  EXPECT_EQ(points[3].seed, 72u);

  // With it: every fleet entry > 1 doubles into shared + separate.
  spec.fleet_compare_separate = true;
  points = ExperimentRunner::expand(spec);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_FALSE(points[2].fleet_separate);  // fleet=4 shared, seeds 71/72
  EXPECT_FALSE(points[3].fleet_separate);
  EXPECT_TRUE(points[4].fleet_separate);  // fleet=4 separate
  EXPECT_TRUE(points[5].fleet_separate);
  EXPECT_EQ(points[4].fleet, 4);
}

TEST(FleetGrid, SharedRunCarriesPerTenantSlices) {
  ScenarioSpec spec = fleet_scenario();
  RunPoint point = ExperimentRunner::expand(spec)[0];
  RunResult result = ExperimentRunner::run_point(spec, point);

  EXPECT_EQ(result.fleet, 3);
  EXPECT_EQ(result.fleet_mode, "shared");
  EXPECT_EQ(result.n, 3 * 6);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.safety_ok);
  ASSERT_EQ(result.tenants.size(), 3u);
  std::int64_t sliced_grants = 0;
  for (int t = 0; t < 3; ++t) {
    const TenantResult& cell = result.tenants[static_cast<std::size_t>(t)];
    EXPECT_EQ(cell.tenant, t);
    EXPECT_EQ(cell.n, 6);
    EXPECT_TRUE(cell.stabilized);
    EXPECT_GT(cell.grants, 0);
    EXPECT_GT(cell.events_executed, 0u);
    EXPECT_EQ(cell.recovery_events, 0);
    EXPECT_TRUE(cell.correct_at_end);
    sliced_grants += cell.grants;
  }
  // The tenant slices partition the fleet-wide totals.
  EXPECT_EQ(sliced_grants, result.grants);
}

TEST(FleetGrid, FaultPhaseTargetsTenantZeroAlone) {
  ScenarioSpec spec = fleet_scenario();
  spec.features = {proto::Features::full().with_epoch_cut()};
  spec.fault = ScenarioSpec::FaultKind::kTransient;
  RunPoint point = ExperimentRunner::expand(spec)[0];
  RunResult result = ExperimentRunner::run_point(spec, point);

  EXPECT_TRUE(result.fault_injected);
  EXPECT_TRUE(result.recovered);
  ASSERT_EQ(result.tenants.size(), 3u);
  // Tenant 0 took the fault (and, on the epoch-cut rung, the one drain);
  // the isolation observable is that tenants 1 and 2 never recovered
  // because they never faulted.
  EXPECT_EQ(result.tenants[0].recovery_events, 1);
  EXPECT_EQ(result.tenants[1].recovery_events, 0);
  EXPECT_EQ(result.tenants[2].recovery_events, 0);
  for (const TenantResult& cell : result.tenants) {
    EXPECT_TRUE(cell.correct_at_end);
  }
}

TEST(FleetGrid, SeparateBaselineReplaysTheSameTenants) {
  // Three inputs: no fault; a transient fault with 4 garbage messages
  // per channel on the full rung, which takes tenant 0 over its ℓ; and a
  // staged full+cut plan, a transient fault and then a lossy burst whose
  // deferred epoch cut runs in tenant 0's stream.
  ScenarioSpec quiet = fleet_scenario();
  ScenarioSpec garbage = fleet_scenario();
  garbage.fault = ScenarioSpec::FaultKind::kTransient;
  garbage.fault_garbage = {4};
  ScenarioSpec staged = fleet_scenario();
  staged.features = {proto::Features::full().with_epoch_cut()};
  FaultEvent transient;
  transient.kind = FaultKind::kTransient;
  FaultEvent burst;
  burst.at = 100'000;
  burst.kind = FaultKind::kChaosBurst;
  burst.chaos.drop_p = 0.05;
  burst.chaos.jitter = 6;
  burst.duration = 3'000;
  staged.fault_plan.events = {transient, burst};

  for (ScenarioSpec* spec : {&quiet, &garbage, &staged}) {
    spec->fleet_compare_separate = true;
    const std::string label =
        spec == &quiet ? "quiet" : spec == &garbage ? "garbage" : "staged";
    std::vector<RunPoint> points = ExperimentRunner::expand(*spec);
    ASSERT_EQ(points.size(), 2u) << label;
    RunResult shared = ExperimentRunner::run_point(*spec, points[0]);
    RunResult separate = ExperimentRunner::run_point(*spec, points[1]);

    EXPECT_EQ(separate.fleet_mode, "separate") << label;
    EXPECT_EQ(separate.n, shared.n) << label;
    ASSERT_EQ(separate.tenants.size(), shared.tenants.size()) << label;
    // Tenant t of the shared fleet replays the standalone system seeded
    // seed + t (the differential anchor), so the per-tenant workload
    // results of the two modes agree exactly.
    for (std::size_t t = 0; t < shared.tenants.size(); ++t) {
      EXPECT_EQ(separate.tenants[t].grants, shared.tenants[t].grants)
          << label << " tenant " << t;
      EXPECT_EQ(separate.tenants[t].requests, shared.tenants[t].requests)
          << label << " tenant " << t;
      EXPECT_EQ(separate.tenants[t].stabilization_time,
                shared.tenants[t].stabilization_time)
          << label << " tenant " << t;
    }
    EXPECT_EQ(separate.grants, shared.grants) << label;
    // Both modes measure the paper's waiting time, per tenant.
    EXPECT_GT(shared.mean_wait_entries, 0.0) << label;
    EXPECT_GT(separate.mean_wait_entries, 0.0) << label;
    EXPECT_EQ(separate.mean_wait_entries, shared.mean_wait_entries) << label;
    EXPECT_EQ(separate.max_wait_entries, shared.max_wait_entries) << label;
    // The fault hits tenant 0 alone, and the safety monitor bounds each
    // tenant by its own ℓ: the shared run counts exactly the violations
    // of tenant 0's standalone twin.
    EXPECT_EQ(shared.safety_violations, separate.safety_violations) << label;
    if (spec == &garbage) {
      EXPECT_GT(shared.safety_violations, 0);
    }
    ASSERT_EQ(shared.fault_events.size(), separate.fault_events.size())
        << label;
    for (std::size_t e = 0; e < shared.fault_events.size(); ++e) {
      const FaultEventResult& a = shared.fault_events[e];
      const FaultEventResult& b = separate.fault_events[e];
      EXPECT_EQ(a.at, b.at) << label << " event " << e;
      EXPECT_EQ(a.kind, b.kind) << label << " event " << e;
      EXPECT_EQ(a.recovered, b.recovered) << label << " event " << e;
      EXPECT_EQ(a.recovery_time, b.recovery_time) << label << " event " << e;
      EXPECT_EQ(a.chaos_dropped, b.chaos_dropped) << label << " event " << e;
      EXPECT_EQ(a.chaos_duplicated, b.chaos_duplicated)
          << label << " event " << e;
      EXPECT_EQ(a.chaos_reordered, b.chaos_reordered)
          << label << " event " << e;
      EXPECT_EQ(a.chaos_jittered, b.chaos_jittered) << label << " event " << e;
      EXPECT_EQ(a.violations, b.violations) << label << " event " << e;
    }
    if (spec == &staged) {
      ASSERT_EQ(shared.fault_events.size(), 2u);
      EXPECT_TRUE(shared.fault_events[1].recovered);
      EXPECT_GT(shared.fault_events[1].chaos_dropped, 0u);
      EXPECT_GT(shared.tenants[0].recovery_events, 0);
    }
    for (std::size_t t = 1; t < shared.tenants.size(); ++t) {
      EXPECT_EQ(shared.tenants[t].recovery_events, 0)
          << label << " tenant " << t;
    }

    // The two modes land in distinct aggregate cells.
    std::vector<Aggregate> cells =
        ExperimentRunner::aggregate({shared, separate});
    ASSERT_EQ(cells.size(), 2u) << label;
    EXPECT_EQ(cells[0].fleet, 3) << label;
    EXPECT_EQ(cells[0].fleet_mode, "shared") << label;
    EXPECT_EQ(cells[1].fleet_mode, "separate") << label;
  }
}

TEST(FleetGrid, SeparateBaselineCarriesTheSharedRunsClassSlices) {
  ScenarioSpec spec = fleet_scenario();
  spec.fleet_compare_separate = true;
  spec.workload.classes.push_back(proto::BehaviorClass::relays("relays", 0.3));
  spec.workload.classes.push_back(
      proto::BehaviorClass::budgeted("oneshot", 1, 1, 3));
  std::vector<RunPoint> points = ExperimentRunner::expand(spec);
  ASSERT_EQ(points.size(), 2u);
  RunResult shared = ExperimentRunner::run_point(spec, points[0]);
  RunResult separate = ExperimentRunner::run_point(spec, points[1]);

  ASSERT_FALSE(shared.classes.empty());
  ASSERT_EQ(separate.classes.size(), shared.classes.size());
  for (const RunResult* run : {&shared, &separate}) {
    std::int64_t requests = 0;
    std::int64_t grants = 0;
    int nodes = 0;
    for (const ClassResult& cell : run->classes) {
      requests += cell.requests;
      grants += cell.grants;
      nodes += cell.nodes;
    }
    EXPECT_EQ(requests, run->requests) << run->fleet_mode;
    EXPECT_EQ(grants, run->grants) << run->fleet_mode;
    EXPECT_EQ(nodes, run->n) << run->fleet_mode;
  }
  // Tenant t materializes the class membership of its standalone twin,
  // so both modes slice the same nodes into the same cells. (The counts
  // inside a cell may differ at the window edges: a separate system
  // opens its window at its own stabilization, the shared fleet at the
  // last tenant's.)
  for (std::size_t c = 0; c < shared.classes.size(); ++c) {
    EXPECT_EQ(separate.classes[c].name, shared.classes[c].name);
    EXPECT_EQ(separate.classes[c].nodes, shared.classes[c].nodes)
        << shared.classes[c].name;
    EXPECT_GT(separate.classes[c].nodes, 0) << shared.classes[c].name;
  }
}

TEST(FleetGrid, JsonCarriesFleetAxisOnlyForFleetScenarios) {
  ScenarioSpec spec = fleet_scenario();
  spec.fleet_compare_separate = true;
  ExperimentRunner runner(1);
  std::vector<RunResult> results = runner.run(spec);
  std::ostringstream out;
  write_json(out, spec, results);
  std::string json = out.str();
  EXPECT_NE(json.find("\"fleet\": ["), std::string::npos);
  EXPECT_NE(json.find("\"fleet_compare_separate\": true"),
            std::string::npos);
  EXPECT_NE(json.find("\"fleet_mode\": \"shared\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet_mode\": \"separate\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\": ["), std::string::npos);
  EXPECT_NE(json.find("\"recovery_events\": 0"), std::string::npos);

  // A plain scenario's artifact carries no fleet axis at all: pre-fleet
  // baselines stay byte-identical.
  ScenarioSpec plain = fleet_scenario();
  plain.name = "test_plain";
  plain.fleet = {1};
  plain.fleet_compare_separate = false;
  std::vector<RunResult> plain_results = runner.run(plain);
  std::ostringstream plain_out;
  write_json(plain_out, plain, plain_results);
  EXPECT_EQ(plain_out.str().find("\"fleet"), std::string::npos);
  EXPECT_EQ(plain_out.str().find("\"tenants"), std::string::npos);
}

}  // namespace
}  // namespace klex::exp
