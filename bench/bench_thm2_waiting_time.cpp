// E5 -- Theorem 2: once stabilized, the waiting time (number of CS
// entries by other processes between a request and its grant) is at most
// ℓ(2n−3)² in the worst case.
//
// The bench sweeps n and ℓ under a greedy (think=1) workload -- the
// adversarial pattern behind the bound -- and reports measured mean / p99
// / max waits against the bound. The paper's shape claim: measured max
// stays below the bound everywhere, and grows with both n and ℓ.
#include "api/workload_driver.hpp"
#include "bench_common.hpp"

namespace klex {
namespace {

struct WaitRow {
  double mean = 0, p99 = 0, max = 0;
  std::int64_t bound = 0;
  std::int64_t samples = 0;
};

WaitRow measure_waits(const tree::Tree& t, int k, int l, std::uint64_t seed,
                      sim::SimTime horizon) {
  SystemConfig config;
  config.tree = t;
  config.k = k;
  config.l = l;
  config.seed = seed;
  System system(config);
  stats::WaitingTimeTracker tracker(system.n());
  system.add_listener(&tracker);
  system.run_until_stabilized(10'000'000);
  tracker.reset_samples();

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::fixed(1);
  behavior.cs_duration = proto::Dist::fixed(8);
  behavior.need = proto::Dist::uniform(1, k);
  WorkloadDriver driver(system.engine(), system.clients(),
                               proto::uniform_behaviors(system.n(), behavior),
                               support::Rng(seed ^ 0x7A17));
  driver.begin();
  system.run_until(system.engine().now() + horizon);

  WaitRow row;
  row.bound = stats::theorem2_bound(t.size(), l);
  row.samples = static_cast<std::int64_t>(tracker.waits().count());
  if (row.samples > 0) {
    row.mean = tracker.waits().mean();
    row.p99 = tracker.waits().p99();
    row.max = tracker.waits().max();
  }
  return row;
}

void print_thm2_table() {
  bench::print_header(
      "E5 / Theorem 2: waiting time <= l(2n-3)^2 after stabilization",
      "measured waits (CS entries by others) vs the analytical bound; "
      "greedy requesters on a line (worst diameter)");

  // The n x l sweep as one declarative grid, fanned across all cores.
  exp::ScenarioSpec spec;
  spec.name = "thm2_waiting_time";
  for (int n : {3, 7, 15, 31}) {
    spec.topologies.push_back(exp::TopologySpec::tree_line(n));
  }
  spec.kl.clear();
  for (int l : {1, 2, 4, 8}) {
    spec.kl.emplace_back(std::min(2, l), l);
  }
  spec.workload.base.think = proto::Dist::fixed(1);       // greedy requesters
  spec.workload.base.cs_duration = proto::Dist::fixed(8);
  spec.workload.base.need = proto::Dist::uniform(1, 2);   // clamped to 1..k
  spec.warmup = 0;
  spec.horizon = 1'500'000;
  spec.seeds = 2;
  spec.base_seed = 1000;
  bench::ScenarioOutput output = bench::run_scenario(spec);

  support::Table table({"n", "l", "k", "max wait", "bound l(2n-3)^2",
                        "max/bound"});
  for (const exp::Aggregate& cell : output.aggregates) {
    // Every topology here is a line of some n.
    int n = 0;
    for (const exp::RunResult& run : output.results) {
      if (run.topology == cell.topology) { n = run.n; break; }
    }
    std::int64_t bound = stats::theorem2_bound(n, cell.l);
    table.add_row(
        {support::Table::cell(n), support::Table::cell(cell.l),
         support::Table::cell(cell.k),
         support::Table::cell(cell.max_wait_entries, 0),
         support::Table::cell(bound),
         support::Table::cell(
             bound > 0 ? cell.max_wait_entries / static_cast<double>(bound)
                       : 0.0,
             3)});
  }
  table.print(std::cout, "waiting time vs Theorem 2 bound (line trees)");

  support::Table shapes({"shape", "n", "l", "mean", "max",
                         "bound", "max/bound"});
  struct Shape {
    const char* name;
    tree::Tree t;
  };
  const Shape shape_rows[] = {
      {"line-15", tree::line(15)},
      {"star-15", tree::star(15)},
      {"balanced-2x3 (n=15)", tree::balanced(2, 3)},
  };
  for (const Shape& s : shape_rows) {
    WaitRow row = measure_waits(s.t, 2, 4, 77, 1'500'000);
    shapes.add_row({s.name, support::Table::cell(s.t.size()),
                    support::Table::cell(4),
                    support::Table::cell(row.mean, 1),
                    support::Table::cell(row.max, 0),
                    support::Table::cell(row.bound),
                    support::Table::cell(
                        row.max / static_cast<double>(row.bound), 3)});
  }
  shapes.print(std::cout, "same n, different shapes (bound is shape-free)");
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_thm2_table();
  return 0;
}
