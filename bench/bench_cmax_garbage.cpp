// E12 -- ablation: violating the CMAX assumption.
//
// The protocol's bounded-memory guarantee rests on channels initially
// holding at most CMAX arbitrary messages (the myC domain is sized
// 2(n−1)(CMAX+1)+1 accordingly; Gouda & Multari's impossibility result
// makes SOME such bound necessary for deterministic bounded-memory
// stabilization). This bench configures the protocol for CMAX = 2 and
// then floods channels with G ≥ CMAX garbage messages per channel: with
// G ≤ CMAX convergence is guaranteed; beyond it, counter flushing only
// converges if the root happens to reach a flag value not present in the
// (now oversized) garbage population -- with RANDOM garbage that is still
// overwhelmingly likely, which is exactly what the table shows. The
// adversarial worst case (garbage crafted to chase the root's counter)
// is what the bound exists to exclude.
//
// Declared as an ExperimentRunner scenario: the G sweep is the
// ScenarioSpec::fault_garbage grid over a kGarbageFlood fault, 10 seeds
// per cell; BENCH_cmax_garbage.json pins recovery_events and the
// scheduler counters per (cell, seed) in the gated perf trajectory.
#include "bench_common.hpp"

#include "exp/scenario.hpp"

namespace klex {
namespace {

exp::ScenarioSpec cmax_spec() {
  exp::ScenarioSpec spec;
  spec.name = "cmax_garbage";
  spec.topologies = {exp::TopologySpec::tree_line(8)};
  spec.kl = {{2, 3}};
  spec.cmax = 2;  // the protocol is SIZED for at most 2 garbage msgs
  // Pure convergence measurement, no application churn.
  spec.workload.base.active = false;
  spec.warmup = 1'000;
  spec.horizon = 10'000;
  spec.stabilize_deadline = 20'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kGarbageFlood;
  spec.fault_garbage = {0, 1, 2, 4, 8, 16, 32};
  spec.recovery_deadline = 100'000'000;
  spec.seeds = 10;
  spec.base_seed = 5001;
  return spec;
}

void print_cmax_table() {
  bench::print_header(
      "E12 / ablation: channel garbage beyond the CMAX assumption",
      "protocol sized for CMAX=2 (myC domain 2(n-1)(CMAX+1)+1 = 43); "
      "random garbage floods of G messages per channel, G up to 16x the "
      "assumed bound");

  exp::ScenarioSpec spec = cmax_spec();
  bench::ScenarioOutput output = bench::run_scenario(spec);

  support::Table table({"garbage/channel", "within CMAX?", "recovered",
                        "mean ticks", "max ticks"});
  for (const exp::Aggregate& cell : output.aggregates) {
    table.add_row(
        {support::Table::cell(cell.fault_garbage),
         cell.fault_garbage <= spec.cmax ? "yes" : "NO",
         std::to_string(cell.recovered_runs) + "/" +
             std::to_string(cell.runs),
         cell.recovered_runs > 0
             ? support::Table::cell(cell.mean_recovery_time, 0)
             : std::string("-"),
         cell.recovered_runs > 0
             ? support::Table::cell(cell.max_recovery_time, 0)
             : std::string("-")});
  }
  table.print(std::cout, "convergence under garbage floods (10 trials each)");
  std::cout << "\n(random garbage rarely collides with the root's counter "
               "walk, so recovery survives far past the guaranteed bound; "
               "only crafted adversarial garbage can exploit G > CMAX)\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_cmax_table();
  return 0;
}
