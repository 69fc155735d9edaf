// E-chaos -- adversarial channels: post-burst re-stabilization cost vs
// chaos intensity and network size (the chaos PR's headline artifact).
//
// An escalating burst plan (mild drop/jitter, medium drop + slight
// duplication + reordering, severe drop + heavy reordering) runs against
// balanced binary trees across the n sweep, on both recovery rungs: the
// protocol's own drain ("full") and the epoch-cut shortcut ("full+cut").
// Every burst perturbs the live channels through the engine's ChaosModel
// -- messages dropped, duplicated, reordered, jittered, all counted --
// and the runner records the per-burst adversary activity and the
// re-stabilization cost (recovery_events, recovery_time) into
// BENCH_chaos.json, which tools/bench_diff.py gates in CI (the chaos
// decision counters are bit-deterministic per seed: any drift in the
// per-link rng streams shows up as a counter regression).
//
// The claim under test: every burst re-stabilizes -- lossy episodes
// degrade the protocol into states the self-stabilization machinery
// already covers (deficits re-mint via the root timeout, surpluses drain
// via the counter sweep or the epoch cut) -- and the epoch-cut rung
// re-converges with bounded-above work while the full rung's drain pays
// the protocol-counter sweep. KLEX_CHAOS_MAX_N caps the sweep for smoke
// runs (CI uses 127).
//
// The duplication probabilities are deliberately tiny: every duplicated
// message re-enters circulation and can be duplicated again, so the
// in-flight population grows by ~(1 + dup_p - drop_p) per hop; dup_p is
// sized so a burst's net amplification exponent stays ~1 (a few minted
// units -- enough to exercise the surplus drain, not a population bomb).
#include "bench_common.hpp"

#include <utility>

#include "exp/scenario.hpp"
#include "sim/chaos.hpp"

namespace klex {
namespace {

/// Balanced-binary-tree sweep heights: n = 2^(h+1) - 1 in {31, 127,
/// 511}, capped by KLEX_CHAOS_MAX_N (chaos runs carry the live safety
/// monitor, so the sweep stays below the scale benches').
std::vector<int> chaos_sweep_heights() {
  std::vector<std::pair<int, int>> sweep = {{4, 31}, {6, 127}, {8, 511}};
  int max_n = 511;
  if (const char* cap = std::getenv("KLEX_CHAOS_MAX_N")) {
    max_n = std::min(max_n, std::atoi(cap));
  }
  std::vector<int> heights;
  for (auto [h, n] : sweep) {
    if (n <= max_n) heights.push_back(h);
  }
  if (heights.empty()) heights.push_back(4);
  return heights;
}

sim::ChaosConfig mild_chaos() {
  sim::ChaosConfig config;
  config.drop_p = 0.02;
  config.jitter = 6;
  return config;
}

sim::ChaosConfig medium_chaos() {
  sim::ChaosConfig config;
  config.drop_p = 0.10;
  config.dup_p = 0.002;  // amplification exponent ~1 over an 8k burst
  config.reorder_p = 0.10;
  config.reorder_window = 4;
  config.jitter = 8;
  return config;
}

sim::ChaosConfig severe_chaos() {
  sim::ChaosConfig config;
  config.drop_p = 0.30;
  config.reorder_p = 0.25;
  config.reorder_window = 8;
  config.jitter = 12;
  return config;
}

/// The escalating schedule every cell runs. Offsets leave room for each
/// burst's re-stabilization (the runner serializes them regardless; at
/// n = 511 a post-drop re-mint waits on the ~65k-tick root timeout).
FaultPlan escalating_plan() {
  auto burst = [](sim::SimTime at, const sim::ChaosConfig& config,
                  sim::SimTime duration) {
    FaultEvent e;
    e.kind = FaultKind::kChaosBurst;
    e.at = at;
    e.chaos = config;
    e.duration = duration;
    return e;
  };
  FaultPlan plan;
  plan.events.push_back(burst(0, mild_chaos(), 4'000));
  plan.events.push_back(burst(200'000, medium_chaos(), 8'000));
  plan.events.push_back(burst(400'000, severe_chaos(), 16'000));
  return plan;
}

exp::ScenarioSpec chaos_spec() {
  exp::ScenarioSpec spec;
  spec.name = "chaos";
  spec.note =
      "escalating chaos bursts per cell: mild (drop 2% + jitter) @0 for "
      "4k, medium (drop 10%, dup 0.2%, reorder 10%) @200k for 8k, severe "
      "(drop 30%, reorder 25%) @400k for 16k; active workload so the "
      "live monitor sees grants; recovery_* isolates the post-burst "
      "re-stabilization cost per rung";
  for (int h : chaos_sweep_heights()) {
    spec.topologies.push_back(exp::TopologySpec::tree_balanced(2, h));
  }
  spec.features = {proto::Features::full(),
                   proto::Features::full().with_epoch_cut()};
  spec.kl = {{2, 3}};
  spec.seeds = 2;
  spec.base_seed = 77;
  spec.warmup = 2'000;
  spec.horizon = 50'000;
  spec.stabilize_deadline = 2'000'000'000;
  spec.fault_plan = escalating_plan();
  spec.recovery_deadline = 2'000'000'000;
  // Live continuous monitoring: timestamps fault-phase violations and
  // arms the grant-stall watchdog (also what flips the artifact into
  // the monitored schema carrying the chaos counters).
  spec.stall_threshold = 150'000;
  return spec;
}

void emit_chaos_scenario() {
  bench::print_header(
      "E-chaos: adversarial channel bursts vs recovery rung",
      "every burst re-stabilizes (lossy episodes land in states the "
      "self-stabilization machinery already covers); the epoch-cut rung "
      "re-converges with bounded work where the full rung pays the drain");

  exp::ScenarioSpec spec = chaos_spec();
  bench::ScenarioOutput output = bench::run_scenario(spec,
                                                     /*emit_json=*/false);

  support::Table table({"topology", "rung", "n", "seed", "dropped", "dup",
                        "reordered", "violations", "recovery events",
                        "rec events/n", "recovered"});
  for (const exp::RunResult& run : output.results) {
    std::int64_t violations = 0;
    for (const exp::FaultEventResult& event : run.fault_events) {
      violations += event.violations;
    }
    table.add_row(
        {run.topology, run.features, support::Table::cell(run.n),
         support::Table::cell(static_cast<int>(run.seed)),
         support::Table::cell(
             static_cast<double>(run.engine_stats.chaos_dropped), 0),
         support::Table::cell(
             static_cast<double>(run.engine_stats.chaos_duplicated), 0),
         support::Table::cell(
             static_cast<double>(run.engine_stats.chaos_reordered), 0),
         support::Table::cell(static_cast<double>(violations), 0),
         support::Table::cell(static_cast<double>(run.recovery_events), 0),
         support::Table::cell(
             static_cast<double>(run.recovery_events) / run.n, 1),
         support::Table::cell(run.recovered ? 1 : 0)});
  }
  table.print(std::cout,
              "escalating bursts (all 'recovered' = 1: chaos lands inside "
              "the self-stabilizing envelope; fault-phase violations are "
              "the adversary's transient damage, timestamped live)");

  std::string path =
      exp::write_json_file(spec, output.results, output.aggregates);
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_chaos_scenario();
  return 0;
}
