// Declarative experiment scenarios.
//
// A ScenarioSpec names a family of runs: a grid of topologies × ladder
// rungs × (k,ℓ) pairs × seeds, one workload (base behavior + named
// behavior classes), and the measurement windows. The ExperimentRunner
// expands the grid, builds one SystemBase per point through
// klex::SystemBuilder (tree, ring, or arbitrary graph -- the runtime
// unification is what makes this a single code path) and executes the
// points in parallel.
//
// klex::TopologySpec is a value description, not a topology: the
// topology is materialized per run so that every run owns its engine
// (one engine per thread, as sim/engine.hpp promises).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/builder.hpp"
#include "api/system_base.hpp"
#include "api/topology.hpp"
#include "proto/app.hpp"
#include "proto/workload.hpp"
#include "sim/engine.hpp"

namespace klex::exp {

using TopologySpec = klex::TopologySpec;

struct ScenarioSpec {
  /// Scenario id; the JSON artifact is written to BENCH_<name>.json.
  std::string name;
  /// Free-text caveat emitted into the artifact's spec section (e.g. a
  /// bench that merges asymmetric sweeps documents which cells ran).
  std::string note;

  std::vector<TopologySpec> topologies;
  /// Ladder rungs; every rung runs on every topology (the Figure 2
  /// deadlock artifact contrasts naive vs pusher vs full this way).
  std::vector<proto::Features> features = {proto::Features::full()};
  /// (k, ℓ) grid; every pair runs on every (topology, rung).
  std::vector<std::pair<int, int>> kl = {{1, 1}};

  int cmax = 4;
  sim::DelayModel delays{};

  /// Engine worker-lane grid: every entry runs on every
  /// (topology, rung, k, ℓ) cell (SystemBuilder::threads; 1 = the serial
  /// engine). Distinct from ExperimentRunner's own worker pool, which
  /// parallelizes across grid points.
  std::vector<int> threads = {1};
  /// Multi-tenant fleet grid: entry R runs the cell as R identical
  /// copies of the topology on ONE shared engine, tenant t seeded
  /// seed + t (SystemBuilder::fleet; R > 1 needs a tree topology). 1 =
  /// the plain single system. The fault phase of a fleet run (the single
  /// fault or a staged plan) targets tenant 0 alone, so the artifact's
  /// per-tenant slices exhibit fault isolation.
  std::vector<int> fleet = {1};
  /// For every fleet entry R > 1, also run the same R tenants as R
  /// separate engines (sequentially, seeds seed .. seed+R-1) and record
  /// it as a fleet_mode = "separate" run -- the batching baseline the
  /// shared-engine rate is compared against (bench_fleet's crossover).
  bool fleet_compare_separate = false;
  /// Seed the legitimate token population at boot
  /// (SystemBuilder::seed_tokens).
  bool seed_tokens = false;
  /// Spanning-tree phase knobs (graph topologies only; ignored
  /// elsewhere). The beacon period must exceed the worst-case flood
  /// settle time (~max_delay x diameter) for convergence to be
  /// *detectable*: with a short period on a large-diameter graph a new
  /// epoch is always mid-flood somewhere and no snapshot is ever exact.
  sim::SimTime beacon_period = 256;
  sim::SimTime spanning_tree_deadline = 4'000'000;
  /// Spread the seeded resources along the Euler tour instead of a root
  /// convoy (tree topologies only; SystemBuilder::spread_tokens).
  bool spread_tokens = false;

  /// Base behavior + named behavior classes (hold-forever sets, inactive
  /// relays, bounded budgets); materialized per run, deterministically
  /// from the run seed. An empty class list is the uniform workload.
  proto::WorkloadSpec workload{};
  /// Extra settle time after stabilization before measuring.
  sim::SimTime warmup = 50'000;
  /// Measurement window length (simulated ticks).
  sim::SimTime horizon = 2'000'000;
  /// Deadline for the initial stabilization phase.
  sim::SimTime stabilize_deadline = 10'000'000;

  /// Post-measurement fault phase (see klex::FaultKind).
  using FaultKind = klex::FaultKind;
  FaultKind fault = FaultKind::kNone;
  sim::SimTime recovery_deadline = 40'000'000;
  /// Per-channel garbage grid for the fault phase: every entry runs on
  /// every (topology, rung, k, l) cell. -1 (the default single entry)
  /// keeps the fault kind's own behavior (uniform 0..CMAX garbage for
  /// kTransient); explicit counts pin the flood size -- the
  /// CMAX-violation ablation sweeps counts beyond the configured CMAX.
  std::vector<int> fault_garbage = {-1};
  /// Staged fault schedule (mutually exclusive with `fault`): each event
  /// fires at measurement-end + event.at, the runner re-stabilizes after
  /// every event and records a per-event FaultEventResult. Topology
  /// events (kLinkChurn / kNodeCrash) imply live-topology graph systems.
  klex::FaultPlan fault_plan{};

  /// Steady-state adversarial-channel config (SystemBuilder::chaos):
  /// every link drops / duplicates / reorders / jitters per this config
  /// for the whole run. All-zero (the default) leaves the engine's stock
  /// paths untouched; kChaosBurst plan events attach the model even
  /// then. Chaos draws are keyed per channel off the run seed, so a
  /// (seed, chaos, topology) triple replays bit for bit at any thread
  /// count.
  sim::ChaosConfig chaos{};
  /// Liveness-watchdog threshold (verify::SafetyMonitor): a request
  /// outstanding longer than this many ticks counts as a grant stall.
  /// 0 (the default) disables the watchdog; enabling it attaches the
  /// monitor as an engine observer. The monitor is window-safe, so
  /// monitored runs still ride the windowed parallel executor.
  sim::SimTime stall_threshold = 0;

  /// One point on the scenario's resilience-policy axis: a labeled
  /// (retry, admission, optional chaos override) bundle. The degraded-
  /// mode benches sweep {loss level} x {no policy, resilient policy}
  /// cells this way and diff goodput / tail latency between them.
  struct PolicyVariant {
    /// Cell label ("" = unnamed); joins the aggregate key and the
    /// bench_diff cell key as the "policy" axis.
    std::string label;
    /// Client retry/backoff/deadline policy (WorkloadDriver).
    proto::RetryPolicy retry{};
    /// Engine-side admission bounds (SystemBase::request fast-fail).
    proto::AdmissionPolicy admission{};
    /// When set, replaces the scenario-level `chaos` config for this
    /// variant (so one scenario can sweep loss levels x policies).
    bool override_chaos = false;
    sim::ChaosConfig chaos{};
  };
  /// Policy grid: every variant runs on every cell. Empty (the default)
  /// means one unlabeled variant with default policies -- artifacts gain
  /// no "policy" field and stay byte-identical to pre-policy baselines.
  std::vector<PolicyVariant> policies;

  /// Seeds base_seed, base_seed+1, ... base_seed+seeds-1.
  int seeds = 4;
  std::uint64_t base_seed = 1;
};

/// Materializes one grid point as a runnable system, via SystemBuilder.
std::unique_ptr<SystemBase> make_system(const TopologySpec& topology, int k,
                                        int l,
                                        const proto::Features& features,
                                        int cmax, sim::DelayModel delays,
                                        std::uint64_t seed);

}  // namespace klex::exp
