// E-recovery -- transient-fault recovery scaling: protocol reset drain
// vs the epoch-cut batched drain (the ROADMAP's "Scale, next rung").
//
// After the paper's transient fault, Θ(n) garbage tokens circulate the
// virtual ring until the root's counter-flushed census absorbs them
// through a reset -- Θ(n) ticks at Θ(n) in-flight tokens ≈ Θ(n²)
// deliveries of pure recovery work (cs/9909013 shows this is intrinsic
// to naive circulation). The epoch-cut rung (Features::epoch_cut)
// instead drains the detected fault in one batched O(n) pass and
// re-mints, so recovery work grows ~O(n) and recovery wall-time per
// node stays flat across the sweep. BENCH_recovery.json pins both
// rungs' recovery_events (deterministic per seed) and the trajectory of
// the scheduler counters; tools/bench_diff.py gates them in CI.
//
// The sweep spans n = 128 .. 32768 for the epoch-cut rung; the protocol
// rung stops at 8192 because its quadratic drain (~n² deliveries per
// recovery) would cost ~20 wall-minutes per point at 32768 -- the O(n²)
// law is unambiguous by 8192 and the big-n point belongs to the rung
// whose claim ("flat per node to 32768") needs it. KLEX_SCALE_MAX_N caps
// both sweeps for smoke runs (CI uses 2048).
#include "bench_common.hpp"

#include "exp/scenario.hpp"

namespace klex {
namespace {

using bench::scale_sweep_sizes;

exp::ScenarioSpec recovery_spec_base() {
  exp::ScenarioSpec spec;
  spec.name = "recovery";
  spec.kl = {{2, 4}};
  spec.seeds = 2;
  spec.base_seed = 29;
  // Recovery, not steady-state throughput, is under test: a short
  // workload window keeps the non-recovery phases negligible at every n.
  spec.warmup = 1'000;
  spec.horizon = 50'000;
  spec.stabilize_deadline = 2'000'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kTransient;
  spec.recovery_deadline = 2'000'000'000;
  return spec;
}

void emit_recovery_scenario() {
  bench::print_header(
      "E-recovery: transient-fault recovery work vs network size",
      "protocol reset drain ~O(n^2) recovery events; epoch-cut batched "
      "drain ~O(n) events, flat recovery wall-time per node");

  // Both rungs to 8192 ...
  exp::ScenarioSpec spec = recovery_spec_base();
  for (int n : scale_sweep_sizes(8192)) {
    spec.topologies.push_back(exp::TopologySpec::tree_random(n, 5));
  }
  spec.features = {proto::Features::full(),
                   proto::Features::full().with_epoch_cut()};
  exp::ExperimentRunner runner;
  bench::ScenarioOutput output;
  output.results = runner.run(spec);

  // ... plus the 32768 point for the epoch-cut rung alone.
  exp::ScenarioSpec big = recovery_spec_base();
  for (int n : scale_sweep_sizes(32768)) {
    if (n > 8192) big.topologies.push_back(exp::TopologySpec::tree_random(n, 5));
  }
  big.features = {proto::Features::full().with_epoch_cut()};
  if (!big.topologies.empty()) {
    std::vector<exp::RunResult> big_results = runner.run(big);
    output.results.insert(output.results.end(), big_results.begin(),
                          big_results.end());
  }

  // The artifact's spec section describes the grid *envelope* (all
  // topologies x both rungs); the runs list is authoritative for which
  // cells actually ran -- the note records the asymmetry.
  exp::ScenarioSpec doc = spec;
  doc.topologies.insert(doc.topologies.end(), big.topologies.begin(),
                        big.topologies.end());
  doc.note =
      "asymmetric sweep: the full (protocol-drain) rung is capped at "
      "n=8192 (~n^2 deliveries per recovery); only full+cut runs the "
      "n=32768 point. The runs list is authoritative.";
  output.aggregates = exp::ExperimentRunner::aggregate(output.results);
  bench::print_aggregate_table(doc, output, runner.threads());
  std::cout << "wrote "
            << exp::write_json_file(doc, output.results, output.aggregates)
            << "\n";

  support::Table table({"rung", "n", "seed", "recovery (sim)",
                        "recovery events", "events/node", "recovery ms",
                        "recovery us/node"});
  for (const exp::RunResult& run : output.results) {
    table.add_row(
        {run.features, support::Table::cell(run.n),
         support::Table::cell(static_cast<int>(run.seed)),
         support::Table::cell(static_cast<double>(run.recovery_time), 0),
         support::Table::cell(static_cast<double>(run.recovery_events), 0),
         support::Table::cell(
             static_cast<double>(run.recovery_events) / run.n, 1),
         support::Table::cell(run.recovery_wall_seconds * 1e3, 2),
         support::Table::cell(run.recovery_wall_seconds * 1e6 / run.n, 3)});
  }
  table.print(std::cout,
              "recovery scaling (flat events/node + us/node = O(n) "
              "epoch-cut drain; the plain rung grows linearly per node)");
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_recovery_scenario();
  return 0;
}
