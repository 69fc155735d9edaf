// E-churn -- live topology churn: online spanning-tree repair cost vs
// network size (the robustness PR's headline artifact).
//
// A rolling fault plan (fail links, fail more, restore them, crash nodes,
// revive them) runs against live-topology GraphSystems on grids from
// n = 128 to n = 32768 plus a random graph. Every event triggers the
// online repair pipeline -- reachability BFS, spanning-tree
// reconstruction over the survivors, epoch-cut drain, per-node state
// migration (RSet views rebound through the arena), client degradation,
// re-mint -- and the runner records the per-event repair cost
// (stree_events, parent_changes) and re-stabilization cost
// (recovery_events, recovery_time) into BENCH_churn.json, which
// tools/bench_diff.py gates in CI.
//
// The claim under test: re-stabilization work per churn event is bounded
// by the re-mint circulation (~O(n) events), not by a full protocol
// restart, and the repair's own spanning-tree phase converges in
// O(diameter * beacon) simulated ticks at every n. KLEX_SCALE_MAX_N caps
// the sweep for smoke runs (CI uses 2048).
#include "bench_common.hpp"

#include <utility>

#include "exp/scenario.hpp"

namespace klex {
namespace {

using bench::scale_sweep_sizes;

/// The staged schedule every cell runs: rolling link failures, a batched
/// restore, then node crashes and revivals. Offsets are generous enough
/// that each repair's re-stabilization completes before the next event
/// on every sweep size (the runner serializes them regardless).
FaultPlan rolling_plan() {
  auto event = [](sim::SimTime at, FaultKind kind, int count, bool restore) {
    FaultEvent e;
    e.at = at;
    e.kind = kind;
    e.count = count;
    e.restore = restore;
    return e;
  };
  FaultPlan plan;
  plan.events.push_back(event(0, FaultKind::kLinkChurn, 2, false));
  plan.events.push_back(event(50'000, FaultKind::kLinkChurn, 2, false));
  plan.events.push_back(event(100'000, FaultKind::kLinkChurn, 4, true));
  plan.events.push_back(event(150'000, FaultKind::kNodeCrash, 2, false));
  plan.events.push_back(event(200'000, FaultKind::kNodeCrash, 2, true));
  return plan;
}

exp::ScenarioSpec churn_spec() {
  exp::ScenarioSpec spec;
  spec.name = "churn";
  spec.note =
      "rolling churn plan per cell: fail 2 links @0, fail 2 more @50k, "
      "restore all 4 @100k, crash 2 nodes @150k, revive them @200k; "
      "inactive workload (pure circulation) so recovery_events isolates "
      "the repair + re-mint cost";
  // Grids reaching n = 32768 (w = 2h keeps the aspect fixed across the
  // sweep) plus one random graph with redundant links to reroute over.
  for (int n : scale_sweep_sizes()) {
    int h = 8;
    while (2 * h * h < n) h *= 2;  // n = 2h*h exactly for the sweep sizes
    spec.topologies.push_back(exp::TopologySpec::graph_grid(2 * h, h));
  }
  if (!scale_sweep_sizes(512).empty()) {
    spec.topologies.push_back(exp::TopologySpec::graph_random(512, 256, 3));
  }
  spec.features = {proto::Features::full().with_epoch_cut()};
  spec.kl = {{2, 4}};
  spec.seeds = 2;
  spec.base_seed = 41;
  // Pure circulation: churn cost, not steady-state throughput, is under
  // test. Short measurement window; the fault plan dominates the run.
  proto::NodeBehavior inactive;
  inactive.active = false;
  spec.workload = proto::WorkloadSpec{};
  spec.workload.base = inactive;
  spec.warmup = 1'000;
  spec.horizon = 50'000;
  spec.stabilize_deadline = 2'000'000'000;
  spec.fault_plan = rolling_plan();
  spec.recovery_deadline = 2'000'000'000;
  // The n=32768 grid has diameter ~382: the beacon period must exceed
  // the worst-case flood settle time (max_delay x diameter ~ 6k ticks)
  // or spanning-tree convergence is never *detectable* (a new epoch is
  // always mid-flood somewhere). One period serves the whole sweep.
  spec.beacon_period = 8'192;
  spec.spanning_tree_deadline = 100'000'000;
  return spec;
}

void emit_churn_scenario() {
  bench::print_header(
      "E-churn: online spanning-tree repair under rolling topology churn",
      "per-event re-stabilization work stays re-mint-bounded (~O(n)) from "
      "n=128 to n=32768; repairs migrate state, never restart the run");

  exp::ScenarioSpec spec = churn_spec();
  bench::ScenarioOutput output = bench::run_scenario(spec,
                                                     /*emit_json=*/false);

  support::Table table({"topology", "n", "seed", "events", "reroutes",
                        "detach", "stree events", "recovery events",
                        "rec events/n", "recovered"});
  for (const exp::RunResult& run : output.results) {
    int reroutes = 0;
    int detached = 0;
    std::uint64_t stree_events = 0;
    for (const exp::FaultEventResult& event : run.fault_events) {
      reroutes += event.parent_changes;
      detached += event.detached;
      stree_events += event.stree_events;
    }
    table.add_row(
        {run.topology, support::Table::cell(run.n),
         support::Table::cell(static_cast<int>(run.seed)),
         support::Table::cell(static_cast<int>(run.fault_events.size())),
         support::Table::cell(reroutes), support::Table::cell(detached),
         support::Table::cell(static_cast<double>(stree_events), 0),
         support::Table::cell(static_cast<double>(run.recovery_events), 0),
         support::Table::cell(
             static_cast<double>(run.recovery_events) / run.n, 1),
         support::Table::cell(run.recovered ? 1 : 0)});
  }
  table.print(std::cout,
              "rolling churn (flat 'rec events/n' = re-mint-bounded "
              "re-stabilization per event)");

  std::string path =
      exp::write_json_file(spec, output.results, output.aggregates);
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_churn_scenario();
  return 0;
}
