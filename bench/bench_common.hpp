// Shared helpers for the experiment benchmarks.
//
// Every bench binary regenerates one artifact of the paper (a figure, a
// theorem, or a design-ablation table): it prints the experiment table
// to stdout and writes the machine-readable BENCH_<scenario>.json
// artifact from exp::ExperimentRunner results (most through
// run_scenario below). CI gates every artifact against
// bench/baselines/BENCH_<scenario>.json with tools/bench_diff.py.
// Absolute numbers are simulator-dependent; the tables are about the
// paper's *shape* claims (who wins, by what factor, where the crossovers
// are).
//
// Not everything is a scenario: fig1 prints its Euler tours and thm2 its
// waiting-time bound from hand-driven systems. That output is
// console-only and never reaches an artifact; timing claims are the
// gated events/s and wall-clock fields of the artifacts themselves.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/builder.hpp"
#include "api/system.hpp"
#include "api/system_base.hpp"
#include "exp/runner.hpp"
#include "proto/workload.hpp"
#include "stats/waiting_time.hpp"
#include "support/table.hpp"

namespace klex::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n################################################\n"
            << "# " << id << "\n"
            << "# " << claim << "\n"
            << "################################################\n";
}

/// Per-run results plus the cross-seed aggregates, computed once.
struct ScenarioOutput {
  std::vector<exp::RunResult> results;
  std::vector<exp::Aggregate> aggregates;
};

/// Prints the aggregate table for `output` under the scenario's name.
inline void print_aggregate_table(const exp::ScenarioSpec& spec,
                                  const ScenarioOutput& output,
                                  int threads) {
  support::Table table({"topology", "rung", "k", "l", "runs", "stabilized",
                        "mean stab time", "grants/Mtick", "mean wait",
                        "msgs/grant", "safe", "sum events/s"});
  for (const exp::Aggregate& cell : output.aggregates) {
    table.add_row({cell.topology, cell.features, support::Table::cell(cell.k),
                   support::Table::cell(cell.l),
                   support::Table::cell(cell.runs),
                   support::Table::cell(cell.stabilized_runs),
                   support::Table::cell(cell.mean_stabilization_time, 0),
                   support::Table::cell(cell.mean_grants_per_mtick, 1),
                   support::Table::cell(cell.mean_wait_entries, 2),
                   support::Table::cell(cell.mean_messages_per_grant, 1),
                   support::Table::cell(cell.safe_runs),
                   support::Table::cell(cell.total_events_per_sec, 0)});
  }
  table.print(std::cout,
              "scenario '" + spec.name + "' (" + std::to_string(threads) +
                  " threads)");
}

/// Runs `spec` across all cores and prints the per-cell aggregate table;
/// when `emit_json` is set, also writes BENCH_<spec.name>.json into the
/// current working directory (mirroring exactly the aggregates that were
/// printed).
inline ScenarioOutput run_scenario(const exp::ScenarioSpec& spec,
                                   bool emit_json = true) {
  exp::ExperimentRunner runner;
  ScenarioOutput output;
  output.results = runner.run(spec);
  output.aggregates = exp::ExperimentRunner::aggregate(output.results);
  print_aggregate_table(spec, output, runner.threads());
  if (emit_json) {
    std::string path =
        exp::write_json_file(spec, output.results, output.aggregates);
    std::cout << "wrote " << path << "\n";
  }
  return output;
}

/// The shared n-sweep of the scale-facing benches (bench_scale,
/// bench_recovery): {128 .. 32768} capped by `hard_cap` and by the
/// KLEX_SCALE_MAX_N environment variable (CI smoke runs use 2048).
inline std::vector<int> scale_sweep_sizes(int hard_cap = 32768) {
  std::vector<int> sizes = {128, 512, 2048, 8192, 32768};
  int max_n = hard_cap;
  if (const char* cap = std::getenv("KLEX_SCALE_MAX_N")) {
    max_n = std::min(max_n, std::atoi(cap));
  }
  std::erase_if(sizes, [max_n](int n) { return n > max_n; });
  return sizes;
}

}  // namespace klex::bench
