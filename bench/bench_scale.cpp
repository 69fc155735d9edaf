// E-scale -- stabilization-detection scaling (the ROADMAP's headline
// scale item).
//
// run_until_stabilized used to poll the full token census every 64 ticks:
// O(channels + n) per poll. The phase that exposes this is deficit-fault
// recovery (ScenarioSpec::FaultKind::kChannelWipe): after the wipe the
// network goes almost silent until the root timeout (which scales with n)
// restarts circulation, so the old loop burned O(n) polls x O(n) walk =
// O(n^2) detection work over an O(n)-event recovery. With the incremental
// census the predicate is a couple of integer compares per *event*, so
// recovery wall-time per node stays flat across the sweep -- the table
// below prints exactly that quotient, and BENCH_scale.json carries the
// events/sec and walk/allocation counters into the perf trajectory that
// tools/bench_diff.py gates in CI.
//
// The detection sweep spans n = 128 .. 32768; the parallel section below
// extends the artifact with an n x P grid up to n = 2^20 over the
// conservative-window engine (sim/parallel_engine.hpp). KLEX_SCALE_MAX_N
// caps both for smoke runs (CI uses 2048).
#include "bench_common.hpp"

#include <map>

#include "exp/scenario.hpp"

namespace klex {
namespace {

using bench::scale_sweep_sizes;

exp::ScenarioSpec scale_spec() {
  exp::ScenarioSpec spec;
  spec.name = "scale";
  for (int n : scale_sweep_sizes()) {
    spec.topologies.push_back(exp::TopologySpec::tree_random(n, 5));
  }
  spec.kl = {{2, 4}};
  spec.seeds = 2;
  spec.base_seed = 17;
  // Detection, not steady-state throughput, is under test: a short
  // workload window keeps the non-detection phases negligible at every n,
  // and the channel-wipe fault makes the recovery detection-dominated
  // (idle wait for the O(n) root timeout, one circulation, a mint).
  spec.warmup = 1'000;
  spec.horizon = 50'000;
  spec.stabilize_deadline = 2'000'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kChannelWipe;
  spec.recovery_deadline = 2'000'000'000;
  return spec;
}

/// The n x P sweep of the conservative-window parallel engine: pure token
/// circulation (no requesters, no fault), the legitimate population
/// spread along the Euler tour so every lane has independent work from
/// tick 0, and no workload callbacks or observers -- exactly the regime
/// where SystemBase::run_until stays on the windowed path for the whole
/// measurement window.
exp::ScenarioSpec parallel_spec() {
  exp::ScenarioSpec spec;
  spec.name = "scale";  // merged with the detection sweep's artifact below
  int max_n = 1 << 20;
  if (const char* cap = std::getenv("KLEX_SCALE_MAX_N")) {
    max_n = std::min(max_n, std::atoi(cap));
  }
  for (int n : {1 << 11, 1 << 15, 1 << 20}) {
    if (n <= max_n) {
      spec.topologies.push_back(exp::TopologySpec::tree_random(n, 5));
    }
  }
  // Many tokens (l = 64) so windows carry real per-lane work; min_delay 8
  // gives the engine an 8-tick lookahead window.
  spec.kl = {{2, 64}};
  spec.delays = sim::DelayModel{8, 24};
  spec.threads = {1, 2, 4, 8};
  spec.seed_tokens = true;
  spec.spread_tokens = true;
  proto::NodeBehavior inactive;
  inactive.active = false;
  spec.workload = proto::WorkloadSpec{};
  spec.workload.base = inactive;
  spec.seeds = 2;
  spec.base_seed = 29;
  // Spread tokens mean the population is legitimate at boot; the
  // stabilization phase only runs the short confirmation window.
  spec.warmup = 2'000;
  spec.horizon = 50'000;
  spec.stabilize_deadline = 1'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kNone;
  return spec;
}

void emit_detection_section(bench::ScenarioOutput& output) {
  bench::print_header(
      "E-scale: stabilization detection cost vs network size",
      "incremental census => run_until_stabilized wall-time per node flat "
      "from n=10^2 to n>=10^4");

  exp::ScenarioSpec spec = scale_spec();
  output = bench::run_scenario(spec, /*emit_json=*/false);

  support::Table table({"topology", "n", "seed", "recovery (sim)", "events",
                        "census walks", "wall ms", "wall us/node",
                        "events/s"});
  for (const exp::RunResult& run : output.results) {
    table.add_row(
        {run.topology, support::Table::cell(run.n),
         support::Table::cell(static_cast<int>(run.seed)),
         support::Table::cell(static_cast<double>(run.recovery_time), 0),
         support::Table::cell(
             static_cast<double>(run.engine_stats.events_executed), 0),
         support::Table::cell(
             static_cast<double>(run.engine_stats.in_flight_walks), 0),
         support::Table::cell(run.wall_seconds * 1e3, 2),
         support::Table::cell(run.wall_seconds * 1e6 / run.n, 3),
         support::Table::cell(run.events_per_sec, 0)});
  }
  table.print(std::cout, "detection scaling (flat wall us/node = O(1) "
                         "per-event detection)");
}

void emit_parallel_section(bench::ScenarioOutput& output) {
  bench::print_header(
      "E-scale-parallel: conservative time-windows, n x P sweep to 2^20",
      "partitioned lanes + SoA hot state; the windowed trajectory is "
      "bit-identical to merged-serial (parallel_differential_test), so "
      "only wall clock varies with P");

  exp::ScenarioSpec spec = parallel_spec();
  exp::ExperimentRunner runner;
  output.results = runner.run(spec);
  output.aggregates = exp::ExperimentRunner::aggregate(output.results);

  // Speedup is relative to the threads=1 cell of the same topology on
  // this machine; on a single-core host it measures window overhead, not
  // scaling.
  std::map<std::string, double> serial_rate;
  for (const exp::Aggregate& cell : output.aggregates) {
    if (cell.threads == 1) serial_rate[cell.topology] =
        cell.total_events_per_sec;
  }
  support::Table table({"topology", "n", "threads", "runs", "stabilized",
                        "wall ms", "wall us/node", "events/s", "speedup"});
  for (const exp::Aggregate& cell : output.aggregates) {
    double base_rate = serial_rate[cell.topology];
    double speedup = base_rate > 0 ? cell.total_events_per_sec / base_rate
                                   : 0.0;
    table.add_row(
        {cell.topology, support::Table::cell(cell.n),
         support::Table::cell(cell.threads),
         support::Table::cell(cell.runs),
         support::Table::cell(cell.stabilized_runs),
         support::Table::cell(cell.mean_wall_seconds * 1e3, 2),
         support::Table::cell(cell.mean_wall_seconds * 1e6 / cell.n, 3),
         support::Table::cell(cell.total_events_per_sec, 0),
         support::Table::cell(speedup, 2)});
  }
  table.print(std::cout,
              "n x P circulation sweep (speedup vs the p=1 cell on this "
              "machine)");
}

void emit_scale_scenario() {
  bench::ScenarioOutput detection;
  emit_detection_section(detection);
  bench::ScenarioOutput parallel;
  emit_parallel_section(parallel);

  // One merged BENCH_scale.json: the detection cells (threads=1,
  // kChannelWipe, l=4) plus the parallel circulation cells (threads in
  // {1,2,4,8}, kNone, l=64). Distinct (k,l,threads) keys keep the two
  // sweeps from colliding in tools/bench_diff.py.
  exp::ScenarioSpec artifact = scale_spec();
  artifact.note =
      "merged sweeps: serial channel-wipe detection cells (threads=1, "
      "l=4) plus parallel circulation cells (threads in {1,2,4,8}, l=64, "
      "spread tokens, inactive workload, no fault); the spec grid above "
      "describes the detection sweep only";
  std::vector<exp::RunResult> results = detection.results;
  results.insert(results.end(), parallel.results.begin(),
                 parallel.results.end());
  std::vector<exp::Aggregate> aggregates = detection.aggregates;
  aggregates.insert(aggregates.end(), parallel.aggregates.begin(),
                    parallel.aggregates.end());
  std::string path = exp::write_json_file(artifact, results, aggregates);
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_scale_scenario();
  return 0;
}
