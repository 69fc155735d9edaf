// E6 -- Theorem 1: self-stabilization. Measures the convergence time from
// arbitrary configurations (random in-domain memory + up to CMAX garbage
// messages per channel) as a function of network size, shape and CMAX.
//
// Shape claims: convergence always happens; time grows with n (the
// controller needs O(1) circulations of 2(n−1) hops each once a fresh myC
// value flushes the system) and grows mildly with CMAX (a larger myC
// domain can need more circulations to reach a fresh value).
//
// Declared as an ExperimentRunner scenario (topology grid × kTransient
// fault × 10 seeds, workload inactive so the measurement is pure protocol
// convergence); BENCH_thm1_convergence.json carries the deterministic
// recovery_events / scheduler counters into the gated perf trajectory.
// The CMAX=0 ablation rows run the same scenario at cmax 0 (table only;
// the committed artifact pins the paper's CMAX=4 operating point).
#include "bench_common.hpp"

#include "exp/scenario.hpp"

namespace klex {
namespace {

exp::ScenarioSpec thm1_spec(int cmax) {
  exp::ScenarioSpec spec;
  spec.name = "thm1_convergence";
  spec.topologies = {
      exp::TopologySpec::tree_line(4),    exp::TopologySpec::tree_line(8),
      exp::TopologySpec::tree_line(16),   exp::TopologySpec::tree_line(32),
      exp::TopologySpec::tree_star(16),
      exp::TopologySpec::tree_balanced(2, 4),
  };
  spec.kl = {{2, 3}};
  spec.cmax = cmax;
  // Pure convergence measurement: no application churn (the historical
  // hand-rolled driver never issued requests either).
  spec.workload.base.active = false;
  spec.warmup = 1'000;
  spec.horizon = 10'000;
  spec.stabilize_deadline = 20'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kTransient;
  spec.recovery_deadline = 80'000'000;
  spec.seeds = 10;
  spec.base_seed = 4001;
  return spec;
}

void print_thm1_tables() {
  bench::print_header(
      "E6 / Theorem 1: convergence from arbitrary configurations",
      "10 random transient faults per cell; time until the token census "
      "is (and stays) l resource + 1 pusher + 1 priority");

  support::Table table({"shape", "n", "CMAX", "recovered", "mean ticks",
                        "max ticks", "mean events"});
  for (int cmax : {0, 4}) {
    // Only the paper's CMAX=4 operating point is the committed artifact;
    // the CMAX=0 sweep feeds the ablation rows of the table.
    exp::ScenarioSpec spec = thm1_spec(cmax);
    bench::ScenarioOutput output =
        bench::run_scenario(spec, /*emit_json=*/cmax == 4);
    for (const exp::Aggregate& cell : output.aggregates) {
      table.add_row(
          {cell.topology, support::Table::cell(cell.n),
           support::Table::cell(cmax),
           std::to_string(cell.recovered_runs) + "/" +
               std::to_string(cell.runs),
           support::Table::cell(cell.mean_recovery_time, 0),
           support::Table::cell(cell.max_recovery_time, 0),
           support::Table::cell(cell.mean_recovery_events, 0)});
    }
  }
  table.print(std::cout, "convergence time after a transient fault");
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_thm1_tables();
  return 0;
}
