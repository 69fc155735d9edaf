// E-fleet -- multi-tenant batching: R protocol instances on ONE shared
// engine (api/fleet.hpp) vs the same R instances on R separate engines.
//
// The shared engine amortizes the calendar, the slab and the hot-state
// arrays across tenants and walks ONE event loop; the separate baseline
// pays R engine boots, R calendars and R clocks. Per-tenant trajectories
// are bit-identical between the two modes (fleet_differential_test pins
// tenant t of fleet(R) to the standalone system seeded seed + t), so the
// whole table is a pure wall-clock comparison: same events, same grants,
// different packaging. The table prints the shared/separate rate ratio
// per R; the crossover R -- where batching starts to win -- is the
// headline number ROADMAP tracks.
//
// The fault column exercises isolation: every shared run injects a
// transient fault into tenant 0 alone (epoch-cut rung), so the artifact's
// per-tenant slices pin recovery_events = 0 for the other R-1 tenants.
//
// KLEX_FLEET_MAX_R caps the tenant sweep and KLEX_SCALE_MAX_N gates the
// large-tenant section (CI smoke: R <= 16, small tenants only).
#include "bench_common.hpp"

#include <map>
#include <utility>

#include "exp/scenario.hpp"

namespace klex {
namespace {

constexpr int kSmallTenantN = 15;  // tree_balanced(2, 3)

std::vector<int> fleet_sizes() {
  std::vector<int> sizes = {1, 4, 16, 64, 256, 1024};
  int max_r = 1024;
  if (const char* cap = std::getenv("KLEX_FLEET_MAX_R")) {
    max_r = std::min(max_r, std::atoi(cap));
  }
  std::erase_if(sizes, [max_r](int r) { return r > max_r; });
  return sizes;
}

/// True when the large-tenant section (n = 2047 per tenant) fits the
/// KLEX_SCALE_MAX_N smoke cap.
bool large_tenants_enabled() {
  if (const char* cap = std::getenv("KLEX_SCALE_MAX_N")) {
    return std::atoi(cap) >= 2047;
  }
  return true;
}

proto::WorkloadSpec fleet_workload() {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::exponential(96);
  workload.base.cs_duration = proto::Dist::exponential(24);
  workload.base.need = proto::Dist::uniform(1, 2);
  return workload;
}

/// R x (n = 15) sweep: many small tenants is the regime multi-tenant
/// batching is for -- per-engine fixed costs dominate tiny instances.
exp::ScenarioSpec small_tenant_spec() {
  exp::ScenarioSpec spec;
  spec.name = "fleet";
  spec.topologies = {exp::TopologySpec::tree_balanced(2, 3)};
  spec.features = {proto::Features::full().with_epoch_cut()};
  spec.kl = {{2, 4}};
  spec.fleet = fleet_sizes();
  spec.fleet_compare_separate = true;
  spec.workload = fleet_workload();
  spec.warmup = 2'000;
  spec.horizon = 30'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kTransient;
  spec.seeds = 2;
  spec.base_seed = 53;
  return spec;
}

/// A few large tenants (n = 2047): the regime where per-event work
/// dominates and batching should buy little -- the far side of the
/// crossover.
exp::ScenarioSpec large_tenant_spec() {
  exp::ScenarioSpec spec = small_tenant_spec();
  spec.topologies = {exp::TopologySpec::tree_balanced(2, 10)};
  // With l = 4 units for 2047 nodes a tenant runs about 0.24 events per
  // tick, so the small-tenant 30 k-tick window would time a few ms of
  // CPU -- host noise, not a rate. 15 M ticks run about 3.7 M events
  // (at least 0.3 s of CPU) per tenant.
  spec.horizon = 15'000'000;
  spec.fleet = {1, 4};
  std::erase_if(spec.fleet, [](int r) {
    int max_r = 1024;
    if (const char* cap = std::getenv("KLEX_FLEET_MAX_R")) {
      max_r = std::atoi(cap);
    }
    return r > max_r;
  });
  spec.base_seed = 67;
  return spec;
}

void print_crossover_table(const bench::ScenarioOutput& output) {
  // (topology, R) -> aggregate per mode; R = 1 runs are the plain
  // single-system reference ("shared" of a fleet of one).
  std::map<std::pair<std::string, int>, const exp::Aggregate*> shared;
  std::map<std::pair<std::string, int>, const exp::Aggregate*> separate;
  for (const exp::Aggregate& cell : output.aggregates) {
    auto key = std::make_pair(cell.topology, cell.fleet);
    (cell.fleet_mode == "separate" ? separate : shared)[key] = &cell;
  }
  support::Table table({"topology", "R", "total n", "shared events/s",
                        "separate events/s", "shared/separate"});
  int crossover = 0;
  for (const auto& [key, cell] : shared) {
    const auto& [topology, fleet] = key;
    auto twin = separate.find(key);
    double baseline =
        twin != separate.end() ? twin->second->total_events_per_sec : 0.0;
    double ratio =
        baseline > 0.0 ? cell->total_events_per_sec / baseline : 0.0;
    if (cell->n == fleet * kSmallTenantN && ratio > 1.0 &&
        crossover == 0 && fleet > 1) {
      crossover = fleet;
    }
    table.add_row({topology, support::Table::cell(fleet),
                   support::Table::cell(cell->n),
                   support::Table::cell(cell->total_events_per_sec, 0),
                   fleet > 1 ? support::Table::cell(baseline, 0)
                             : std::string("-"),
                   fleet > 1 ? support::Table::cell(ratio, 2)
                             : std::string("-")});
  }
  table.print(std::cout,
              "shared-engine fleet vs R separate engines (same per-tenant "
              "trajectories; wall clock only)");
  if (crossover > 0) {
    std::cout << "batching crossover: shared engine wins from R = "
              << crossover << " small tenants\n";
  } else {
    std::cout << "batching crossover: not reached in this sweep\n";
  }
}

void print_isolation_summary(const bench::ScenarioOutput& output) {
  // The artifact's per-tenant slices carry the isolation observable;
  // surface it in the text report too.
  int shared_runs = 0;
  int clean = 0;
  for (const exp::RunResult& run : output.results) {
    if (run.fleet_mode != "shared" || run.tenants.empty()) continue;
    ++shared_runs;
    bool ok = run.tenants.front().recovery_events <= 1;
    for (std::size_t t = 1; t < run.tenants.size(); ++t) {
      ok = ok && run.tenants[t].recovery_events == 0 &&
           run.tenants[t].correct_at_end;
    }
    if (ok) ++clean;
  }
  std::cout << "fault isolation: " << clean << "/" << shared_runs
            << " shared runs kept every non-faulted tenant at "
               "recovery_events = 0\n";
}

void emit_fleet_scenario() {
  bench::print_header(
      "E-fleet: R tenants on one engine vs R separate engines",
      "instance-contiguous sharding + per-tenant census: identical "
      "per-tenant trajectories, one calendar instead of R");

  exp::ScenarioSpec small = small_tenant_spec();
  bench::ScenarioOutput output = bench::run_scenario(small,
                                                     /*emit_json=*/false);
  if (large_tenants_enabled()) {
    bench::ScenarioOutput large =
        bench::run_scenario(large_tenant_spec(), /*emit_json=*/false);
    output.results.insert(output.results.end(), large.results.begin(),
                          large.results.end());
    output.aggregates.insert(output.aggregates.end(),
                             large.aggregates.begin(),
                             large.aggregates.end());
  } else {
    std::cout << "large-tenant section skipped (KLEX_SCALE_MAX_N < 2047)\n";
  }

  print_crossover_table(output);
  print_isolation_summary(output);

  exp::ScenarioSpec artifact = small;
  artifact.note =
      "merged sweeps: small-tenant cells (tree_balanced(2,3), n=15 per "
      "tenant, R in the spec's fleet grid) plus large-tenant cells "
      "(tree_balanced(2,10), n=2047 per tenant, R in {1,4}, a 15M-tick "
      "window); every fleet cell has a shared and a separate-engines run "
      "of the same seeds, and every shared run faults tenant 0 alone; the "
      "spec grid above describes the small-tenant sweep only";
  std::string path =
      exp::write_json_file(artifact, output.results, output.aggregates);
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_fleet_scenario();
  return 0;
}
