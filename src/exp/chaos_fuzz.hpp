// Chaos-campaign fuzzer: randomized search over adversarial-channel
// configs, with delta-debugging trace minimization.
//
// A campaign samples `cases` one-point scenarios -- topology × (k,ℓ) ×
// run seed × one kChaosBurst event whose intensity (drop / duplicate /
// reorder / jitter probabilities, burst length) is drawn from the
// campaign rng -- and executes each through ExperimentRunner::run_point,
// the phase pipeline every grid point runs (stabilize, warm up, measure,
// the fault plan's loop, monitor totals), with continuous invariant
// monitoring on. A case FAILS when the burst either breaks the paper's
// safety property (the SafetyMonitor timestamps a k-out-of-ℓ violation
// inside the fault phase -- e.g. a duplicated resource token minting an
// extra unit) or the system does not re-stabilize within the recovery
// deadline after the burst expires.
//
// Every failing case is then shrunk ddmin-style toward a minimal
// reproducer: halve the burst duration, halve each probability (zeroing
// it once negligible), shrink the reordering window and jitter, shrink
// the topology itself (subtree extraction by parameter halving, down to
// a ~4-node floor -- a failure sampled on a 64-node tree often survives
// on a fraction of it), and narrow the burst from all links to a
// binary-split subset of tree edges. A shrink step is kept only if
// re-running the smaller scenario reproduces the SAME failure class, so
// the minimized spec is verified by construction; it is emitted as
// replayable ScenarioSpec JSON (write_scenario_json) that any harness
// can re-run bit for bit.
//
// Everything -- sampling, execution, shrinking -- is a pure function of
// ChaosFuzzConfig::seed; a campaign is reproducible from its config
// alone, which is what lets CI keep a bounded smoke campaign honest.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace klex::exp {

struct ChaosFuzzConfig {
  /// Sampled cases per campaign.
  int cases = 24;
  /// Campaign seed: drives every sampled scenario AND its run seed.
  std::uint64_t seed = 1;

  /// Topology pool the sampler draws from (tree kinds only -- the link
  /// minimizer narrows bursts to subsets of tree edges). Empty = a
  /// default small-tree family.
  std::vector<TopologySpec> topologies;
  /// (k, ℓ) pool the sampler draws from.
  std::vector<std::pair<int, int>> kl = {{1, 2}, {2, 3}};
  proto::Features features = proto::Features::full();
  int cmax = 4;

  /// Windows for each sampled case (short: campaigns run many cases;
  /// the deadlines are sized for the default 8-64-node pool, where the
  /// root timeout -- the slowest legitimate recovery mechanism -- is
  /// ~1.2k ticks at the small shapes and ~8k at the 64-node ones, and
  /// the longest sampled burst is 30k).
  sim::SimTime warmup = 2'000;
  sim::SimTime horizon = 40'000;
  sim::SimTime stabilize_deadline = 300'000;
  /// What "non-stabilization" means: re-stabilization not confirmed
  /// within this many ticks of the burst's injection (comfortably above
  /// burst length + drain + a few timeout periods).
  sim::SimTime recovery_deadline = 150'000;
  /// Liveness-watchdog threshold passed into each case (0 = off).
  sim::SimTime stall_threshold = 0;

  /// Sampler intensity caps (probabilities in percent, so the draws stay
  /// integer-exact and platform-independent).
  int max_prob_percent = 45;
  int max_jitter = 24;
  sim::SimTime min_burst = 4'000;
  sim::SimTime max_burst = 30'000;

  /// Minimization budget: greedy rounds over the shrink moves (each
  /// accepted or rejected move costs one verification re-run).
  bool minimize = true;
  int max_shrink_runs = 64;
};

/// One failing case with its verified minimal reproducer.
struct ChaosFailure {
  int case_index = 0;
  /// "safety" (fault-phase k-out-of-ℓ violation) or "no_recovery".
  std::string reason;
  /// Fault-phase violations / recovery outcome of the ORIGINAL case.
  std::int64_t violations = 0;
  bool recovered = false;
  /// The sampled failing scenario, replayable as-is.
  ScenarioSpec spec;
  /// The shrunk reproducer (== spec when minimization is off or nothing
  /// shrank); every accepted shrink step re-ran and reproduced `reason`.
  ScenarioSpec minimized;
  /// Fault-phase violations of the minimized reproducer's verifying run.
  std::int64_t minimized_violations = 0;
  int shrink_steps = 0;  // accepted moves
  int shrink_runs = 0;   // verification re-runs spent
  /// The final minimized spec re-ran and reproduced the failure class.
  bool minimized_verified = false;
};

struct ChaosFuzzReport {
  int cases_run = 0;
  std::vector<ChaosFailure> failures;
};

/// Classifies one run: "safety" if the monitor timestamped violations
/// inside the fault phase, else "no_recovery" if the burst's
/// re-stabilization missed the deadline, else "" (pass).
std::string classify_chaos_failure(const RunResult& result);

/// Builds the `index`-th sampled case of the campaign (deterministic in
/// (config.seed, index); exposed for tests and for replaying a single
/// case by index).
ScenarioSpec make_chaos_case(const ChaosFuzzConfig& config, int index);

/// Runs the campaign: sample, execute, classify, minimize.
ChaosFuzzReport run_chaos_fuzz(const ChaosFuzzConfig& config);

/// Campaign summary as one JSON object (per-failure metadata plus the
/// minimized burst parameters; the full reproducer specs are emitted
/// separately via write_scenario_json).
void write_chaos_fuzz_json(std::ostream& out, const ChaosFuzzConfig& config,
                           const ChaosFuzzReport& report);

}  // namespace klex::exp
