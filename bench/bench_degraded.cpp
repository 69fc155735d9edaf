// E-degraded -- degraded-mode operation: goodput and grant-latency tail
// vs sustained channel loss, with and without the client resilience
// layer (the degraded-mode PR's headline artifact).
//
// Unlike bench_chaos (bounded bursts against a clean steady state), the
// loss here is SUSTAINED: the ChaosModel perturbs every link for the
// whole run, stabilization included. Each cell of the sweep runs the
// same (topology, rung, k, l, seed) point under a policy grid of
// {clean, drop 0.5%, drop 2% + reorder} x {no policy, resilient}: the
// resilient variant arms a per-acquire deadline (abandoned waits stop
// counting toward the latency tail -- the SLO view of a grant that
// arrives too late to matter), seeded backoff jitter (decorrelates
// retry storms without losing replay) and an admission bound that
// fast-fails requests past the queue-depth knee instead of growing the
// wait queue without bound.
//
// The claim under test: under sustained loss the resilience layer
// strictly improves the p99 grant latency (deadline-censored tail) or
// the goodput at the lossy cells, while the clean cells stay within
// noise of the no-policy baseline -- degraded-mode operation is a
// client-layer property, not a protocol change. The artifact
// (BENCH_degraded.json) carries the per-policy goodput and latency
// percentiles; tools/bench_diff.py gates them in CI (single-threaded
// runs of a fixed seed are bit-deterministic, chaos draws included).
//
// No duplication in the sustained configs: a duplicated message
// re-enters circulation for the whole run, so even a tiny dup_p
// compounds over an 80k-tick horizon (see bench_chaos on amplification
// exponents). Drop/reorder/jitter perturb without multiplying.
#include "bench_common.hpp"

#include <utility>

#include "exp/scenario.hpp"
#include "sim/chaos.hpp"

namespace klex {
namespace {

/// Balanced-binary-tree sweep heights: n = 2^(h+1) - 1 in {31, 127},
/// capped by KLEX_DEGRADED_MAX_N (CI smoke caps at 31; the sweep stays
/// small because every cell runs six policy variants under the live
/// safety monitor).
std::vector<int> degraded_sweep_heights() {
  std::vector<std::pair<int, int>> sweep = {{4, 31}, {6, 127}};
  int max_n = 127;
  if (const char* cap = std::getenv("KLEX_DEGRADED_MAX_N")) {
    max_n = std::min(max_n, std::atoi(cap));
  }
  std::vector<int> heights;
  for (auto [h, n] : sweep) {
    if (n <= max_n) heights.push_back(h);
  }
  if (heights.empty()) heights.push_back(4);
  return heights;
}

sim::ChaosConfig clean_channels() { return sim::ChaosConfig{}; }

/// Sustained loss must be read against the circulation length: a token
/// survives ~1/drop_p hops, and one loop of the balanced tree is
/// 2(n-1) hops, so drop_p x diameter sets the regime. 0.5% leaves
/// n = 31 essentially untouched while degrading n = 127 (252-hop
/// loops); 2% + reorder degrades n = 31 and pushes n = 127 past the
/// sustainable knee, where circulation survives only in bursts after
/// each root-timeout re-mint.
sim::ChaosConfig drop05_channels() {
  sim::ChaosConfig config;
  config.drop_p = 0.005;
  config.jitter = 6;
  return config;
}

sim::ChaosConfig drop2_channels() {
  sim::ChaosConfig config;
  config.drop_p = 0.02;
  config.reorder_p = 0.10;
  config.reorder_window = 4;
  config.jitter = 8;
  return config;
}

/// The resilient client policy every "<loss>/resilient" variant runs:
/// deadline + jitter on the driver side, a queue-depth bound on the
/// engine side. The deadline sits well above the clean-channel tail so
/// the clean cells stay within noise of no-policy; under sustained
/// loss it censors the starvation tail that a dropped resource token
/// otherwise inflicts on one unlucky requester. The admission bound
/// binds only in the overload pathology where essentially every node
/// queues at once (the collapse cells): past it requests fast-fail
/// with kOverloaded instead of deepening a doomed queue.
proto::RetryPolicy resilient_retry() {
  proto::RetryPolicy retry;
  retry.deadline = 10'000;
  retry.jitter = 128;
  return retry;
}

proto::AdmissionPolicy resilient_admission() {
  proto::AdmissionPolicy admission;
  admission.max_waiting = 120;
  return admission;
}

exp::ScenarioSpec degraded_spec() {
  exp::ScenarioSpec spec;
  spec.name = "degraded";
  spec.note =
      "sustained channel loss for the whole run (stabilization included): "
      "{clean, drop 0.5% + jitter, drop 2% + reorder 10%} x {none, "
      "resilient}; resilient = acquire deadline 10k + backoff jitter 128 "
      "+ admission max_waiting 120; latency percentiles are "
      "deadline-censored (a wait abandoned past its deadline records no "
      "grant-latency sample -- the SLO view)";
  for (int h : degraded_sweep_heights()) {
    spec.topologies.push_back(exp::TopologySpec::tree_balanced(2, h));
  }
  spec.features = {proto::Features::full().with_epoch_cut()};
  spec.kl = {{2, 3}};
  spec.seeds = 2;
  spec.base_seed = 91;
  spec.warmup = 2'000;
  spec.horizon = 80'000;
  // Sustained loss keeps perturbing the token census, so an exact
  // legitimacy snapshot may never be observed: bound the stabilization
  // phase tightly and measure from wherever it lands (the closed-loop
  // goodput is the metric, not the stabilization time).
  spec.stabilize_deadline = 300'000;
  // Live monitoring along the whole lossy run (monitored schema): the
  // window-safe monitor timestamps any safety violation and the stall
  // watchdog flags the starvation the resilient policy is built to
  // mask.
  spec.stall_threshold = 25'000;
  for (const auto& [loss_label, loss_config] :
       std::vector<std::pair<std::string, sim::ChaosConfig>>{
           {"clean", clean_channels()},
           {"drop05", drop05_channels()},
           {"drop2", drop2_channels()}}) {
    exp::ScenarioSpec::PolicyVariant none;
    none.label = loss_label + "/none";
    none.override_chaos = true;
    none.chaos = loss_config;
    spec.policies.push_back(none);

    exp::ScenarioSpec::PolicyVariant resilient;
    resilient.label = loss_label + "/resilient";
    resilient.retry = resilient_retry();
    resilient.admission = resilient_admission();
    resilient.override_chaos = true;
    resilient.chaos = loss_config;
    spec.policies.push_back(resilient);
  }
  return spec;
}

void emit_degraded_scenario() {
  bench::print_header(
      "E-degraded: sustained lossy links vs the client resilience layer",
      "deadlines + retry jitter + admission control strictly improve the "
      "p99 grant latency or the goodput at the lossy cells; clean cells "
      "stay within noise -- degraded-mode operation lives in the client "
      "layer");

  exp::ScenarioSpec spec = degraded_spec();
  bench::ScenarioOutput output = bench::run_scenario(spec,
                                                     /*emit_json=*/false);

  support::Table table({"topology", "n", "policy", "seed", "dropped",
                        "grants", "grants/mtick", "lat p50", "lat p99",
                        "stalls"});
  for (const exp::RunResult& run : output.results) {
    table.add_row(
        {run.topology, support::Table::cell(run.n), run.policy,
         support::Table::cell(static_cast<int>(run.seed)),
         support::Table::cell(
             static_cast<double>(run.engine_stats.chaos_dropped), 0),
         support::Table::cell(static_cast<double>(run.grants), 0),
         support::Table::cell(run.grants_per_mtick, 1),
         support::Table::cell(run.latency_p50, 0),
         support::Table::cell(run.latency_p99, 0),
         support::Table::cell(static_cast<double>(run.liveness_stalls), 0)});
  }
  table.print(std::cout,
              "sustained loss, whole run; 'resilient' = deadline 10k + "
              "jitter 128 + max_waiting 120 (latency tail is "
              "deadline-censored at the resilient cells)");

  std::string path =
      exp::write_json_file(spec, output.results, output.aggregates);
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace klex

int main() {
  klex::emit_degraded_scenario();
  return 0;
}
