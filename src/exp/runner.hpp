// ExperimentRunner: fans a ScenarioSpec out over its
// topology × rung × (k,ℓ) × seed grid across worker threads and
// aggregates the results.
//
// One run pipeline: every grid point runs as one or more sessions
// (klex::Session), and each session goes through the same phases --
// build, stabilize + warm up, the measured workload window, the fault
// phase, the monitor totals -- and every session reads out per tenant
// (TenantResult; a plain system is tenant 0 of one). A plain point is one
// session. A shared fleet point is one session over an R-tenant System;
// its only fleet-specific step is aiming the fault at tenant 0. A separate
// fleet point runs the pipeline R times, once
// per standalone twin seeded seed + t, with the fault in session 0 only,
// and merges the R sessions: counters and EngineStats summed, the
// slowest stabilization, the latency and waiting-time distributions
// merged. The fault phase is one loop over the session's fault plan; the
// single post-measurement fault is its one-event case at offset 0.
//
// Waiting time is the paper's unit (Section 2): CS entries by the other
// processes of the requester's own protocol instance between its request
// and its grant. In a fleet each tenant is its own instance, so a shared
// run's waits equal those of its standalone twins.
//
// Parallelism model: the worker pool runs grid points concurrently, each
// constructing its own SystemBase (own engine, own rng) through
// klex::SystemBuilder inside its worker; a point with threads = P > 1
// runs its engine as a P-lane sim::ParallelEngine inside that worker.
// Event sequencing is per channel, node and stream, never per lane, so
// runs are bit-identical regardless of pool size, lane count or
// scheduling -- only wall-clock fields vary.
//
// Output: run() returns per-point results; write_json() /
// write_json_file() emit the machine-readable artifact
// (BENCH_<scenario>.json). Its schema is one field list per record type
// (runner.cpp), which also drives the separate-fleet merge and
// aggregate().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace klex::exp {

/// One expanded grid point.
struct RunPoint {
  TopologySpec topology;
  proto::Features features = proto::Features::full();
  int k = 1;
  int l = 1;
  /// Fault-phase garbage per channel (-1 = fault kind's default).
  int fault_garbage = -1;
  /// Engine worker lanes (1 = serial).
  int threads = 1;
  /// Tenants (SystemBuilder::fleet; 1 = plain single system).
  int fleet = 1;
  /// Fleet baseline mode: run the `fleet` tenants as separate serial
  /// engines, one pipeline session per tenant seeded seed + t, instead
  /// of one shared engine (ScenarioSpec::fleet_compare_separate).
  /// Only session 0 takes the fault; the result merges the sessions.
  bool fleet_separate = false;
  /// Index into ScenarioSpec::policies (-1 = the scenario has no policy
  /// axis; default retry/admission, scenario-level chaos).
  int policy = -1;
  std::uint64_t seed = 1;
};

/// Per-behavior-class slice of one run ("base" covers unassigned nodes).
struct ClassResult {
  std::string name;
  int nodes = 0;
  std::int64_t requests = 0;
  std::int64_t grants = 0;
  /// Members inside their critical section when the window closed (the
  /// hold-forever set I shows up here).
  int holding_at_end = 0;
  /// Grant-latency distribution over the class's expected grants
  /// (request issue -> grant, simulated ticks). count = 0 (no grants)
  /// leaves the percentiles unset / unemitted.
  std::int64_t latency_count = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
};

/// One staged fault event as it actually happened in one run: what the
/// fault changed and the repair cost (the TopologyFaultResult base, zero
/// for non-topology kinds), the materialized schedule (absolute
/// injection time) and the re-stabilization cost. Together with the
/// spec's fault_plan this makes every churn incident reproducible from
/// the JSON artifact alone.
struct FaultEventResult : TopologyFaultResult {
  sim::SimTime at = 0;  // absolute simulated injection time
  std::string kind;     // to_string(FaultKind)
  /// Re-stabilization after this event.
  bool recovered = false;
  sim::SimTime recovery_time = 0;
  std::uint64_t recovery_events = 0;
  /// kChaosBurst events only (chaos = true): what the adversary actually
  /// did between injection and re-stabilization (deltas of the engine's
  /// chaos counters) and how many safety violations the monitor
  /// timestamped inside that window. Non-chaos events leave chaos =
  /// false and these fields unset / unemitted.
  bool chaos = false;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_reordered = 0;
  std::uint64_t chaos_jittered = 0;
  std::int64_t violations = 0;
};

/// Per-tenant slice of one fleet run (fleet runs only). The
/// recovery_events field is the tenant's epoch-cut drain count -- the
/// fault-isolation observable: a fault into tenant 0 leaves every other
/// tenant's count at 0.
struct TenantResult {
  int tenant = 0;
  int n = 0;
  bool stabilized = false;
  sim::SimTime stabilization_time = 0;
  std::int64_t requests = 0;
  std::int64_t grants = 0;
  /// Engine events executed on behalf of this tenant.
  std::uint64_t events_executed = 0;
  /// Epoch-cut recovery drains performed for this tenant.
  std::int64_t recovery_events = 0;
  /// The tenant's census legitimacy when the run ended.
  bool correct_at_end = false;
};

/// Everything measured in one run of one grid point.
struct RunResult {
  std::string topology;
  std::string features;
  int n = 0;
  int k = 1;
  int l = 1;
  int threads = 1;
  /// Tenants in this run (1 = plain single system). For fleet runs, n is
  /// the TOTAL node count (fleet x per-tenant size) and the per-tenant
  /// slices live in `tenants`.
  int fleet = 1;
  /// "shared" (one engine) or "separate" (R engines) for fleet
  /// runs; empty for plain runs.
  std::string fleet_mode;
  /// Resilience-policy cell label (ScenarioSpec::PolicyVariant); empty
  /// for scenarios without a policy axis.
  std::string policy;
  std::uint64_t seed = 1;

  // Stabilization / recovery.
  bool stabilized = false;
  sim::SimTime stabilization_time = 0;
  bool fault_injected = false;
  int fault_garbage = -1;
  bool recovered = false;
  /// Elapsed ticks from fault injection to re-stabilization.
  sim::SimTime recovery_time = 0;
  /// Engine events executed between fault injection and re-stabilization
  /// (deterministic per seed): the recovery *work*. The epoch-cut rung
  /// keeps it ~O(n) where the protocol's own drain is ~O(n^2).
  std::uint64_t recovery_events = 0;
  /// Wall clock of the fault + recovery phase alone (non-deterministic).
  double recovery_wall_seconds = 0.0;
  /// Per-event records when the scenario ran a staged fault plan; the
  /// recovery_* totals above then sum over the events.
  std::vector<FaultEventResult> fault_events;

  // Workload window.
  std::int64_t grants = 0;
  std::int64_t requests = 0;
  double grants_per_mtick = 0.0;
  /// Requesters still waiting when the window closed (a wedged rung --
  /// Figure 2's deadlock -- shows up here).
  int outstanding_at_end = 0;
  /// Nothing was scheduled when the window closed: no token circulates
  /// and no workload timer is pending. With requesters still outstanding
  /// this is the paper's Figure 2 deadlock signature (the naive rung goes
  /// silent; the pusher rung keeps its token moving forever).
  bool quiescent_at_end = false;
  /// Per-class slices; empty for uniform (classless) workloads.
  std::vector<ClassResult> classes;
  /// Per-tenant slices; empty for plain (fleet = 1) runs.
  std::vector<TenantResult> tenants;
  /// Waiting time over the window's grants, in the paper's unit: CS
  /// entries by the requester's own tenant between request and grant.
  double mean_wait_entries = 0.0;
  double max_wait_entries = 0.0;
  double p99_wait_entries = 0.0;
  /// Whole-run grant-latency distribution (request issue -> grant,
  /// simulated ticks, expected grants only -- deadline-abandoned waits
  /// record nothing). count = 0 leaves the percentiles unemitted.
  std::int64_t latency_count = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
  double messages_per_grant = 0.0;
  std::uint64_t control_messages = 0;
  std::uint64_t resource_messages = 0;
  std::uint64_t pusher_messages = 0;
  std::uint64_t priority_messages = 0;
  bool safety_ok = true;
  /// Continuous-monitoring totals over the WHOLE run (measurement and
  /// fault phases; safety_ok above still covers the measurement window
  /// alone). Emitted into the artifact only for chaos / watchdog runs.
  std::int64_t safety_violations = 0;
  sim::SimTime last_violation_time = 0;
  std::int64_t liveness_stalls = 0;
  /// Violations timestamped inside the fault phase -- the chaos-campaign
  /// failure signal (a duplicated token minting an extra unit shows up
  /// here, not in the pre-fault snapshot).
  std::int64_t fault_phase_violations = 0;

  // Simulator performance (wall clock; the only non-deterministic fields).
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  sim::EngineStats engine_stats{};
};

/// Cross-seed aggregate for one (topology, features, k, l, fault_garbage,
/// threads, fleet, fleet_mode, policy) cell.
struct Aggregate {
  std::string topology;
  std::string features;
  int k = 1;
  int l = 1;
  int fault_garbage = -1;
  int threads = 1;
  /// Fleet axis (part of the cell key): tenants and shared/separate mode
  /// ("" for plain single-system cells).
  int fleet = 1;
  std::string fleet_mode;
  /// Policy axis ("" for scenarios without one).
  std::string policy;
  int n = 0;
  int runs = 0;
  int stabilized_runs = 0;
  int safe_runs = 0;
  int recovered_runs = 0;
  double mean_stabilization_time = 0.0;
  double max_stabilization_time = 0.0;
  double mean_recovery_time = 0.0;
  double max_recovery_time = 0.0;
  double mean_recovery_events = 0.0;
  double mean_recovery_wall_seconds = 0.0;
  double mean_wall_seconds = 0.0;
  double mean_grants_per_mtick = 0.0;
  double mean_wait_entries = 0.0;
  double max_wait_entries = 0.0;
  double mean_messages_per_grant = 0.0;
  double mean_outstanding_at_end = 0.0;
  double total_events_per_sec = 0.0;  // sum of per-run rates
  // Staged fault plans (zero for single-fault / fault-free scenarios):
  // per-run means of the event count, the overlay parent churn and the
  // online repair's own engine events.
  double mean_fault_events = 0.0;
  double mean_parent_changes = 0.0;
  double mean_stree_events = 0.0;
  // Chaos / continuous-monitoring means (all zero -- and unemitted --
  // for cells whose runs never exercised a ChaosModel or watchdog).
  double mean_chaos_dropped = 0.0;
  double mean_chaos_duplicated = 0.0;
  double mean_chaos_reordered = 0.0;
  double mean_chaos_jittered = 0.0;
  double mean_fault_phase_violations = 0.0;
  double mean_liveness_stalls = 0.0;
  // Grant-latency percentile means over the runs that recorded any
  // grants (latency_runs of them); all zero -- and unemitted -- when no
  // run did.
  int latency_runs = 0;
  double mean_latency_p50 = 0.0;
  double mean_latency_p99 = 0.0;
  double mean_latency_p999 = 0.0;
};

class ExperimentRunner {
 public:
  /// `threads` = 0 uses one worker per CPU the process may run on (its
  /// affinity mask, so `taskset -c 0` runs one grid point at a time).
  explicit ExperimentRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Expands the grid (topologies × features × kl × fault_garbage ×
  /// threads × fleet × policies × seeds, seed-major last so neighboring
  /// points differ only in seed; fleet entries > 1 fan out into a shared
  /// point plus, when fleet_compare_separate is set, a separate-engines
  /// one; an empty policy list is one implicit default variant).
  static std::vector<RunPoint> expand(const ScenarioSpec& spec);

  /// Executes one grid point through the run pipeline: one session for a
  /// plain or shared-fleet point, R merged sessions for a separate-fleet
  /// point (used by the workers; exposed for tests, the chaos fuzzer and
  /// benches that want a single run). Fleet points accept only the
  /// single transient fault.
  static RunResult run_point(const ScenarioSpec& spec,
                             const RunPoint& point);

  /// Runs every grid point across the worker threads; results are in
  /// expand() order.
  std::vector<RunResult> run(const ScenarioSpec& spec) const;

  /// Groups results by (topology, features, k, l, fault_garbage,
  /// threads, fleet, fleet_mode, policy) and averages across seeds.
  static std::vector<Aggregate> aggregate(
      const std::vector<RunResult>& results);

 private:
  int threads_;
};

/// Writes the scenario + per-run results + aggregates as one JSON object.
/// The two-argument-results form is for callers that computed the
/// aggregates already (the JSON must mirror exactly what they reported).
void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results,
                const std::vector<Aggregate>& aggregates);
void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results);

/// Writes just the scenario spec (no runs) as one JSON object -- the
/// replayable-reproducer format the chaos fuzzer emits for minimized
/// failing configs.
void write_scenario_json(std::ostream& out, const ScenarioSpec& spec);

/// Writes BENCH_<spec.name>.json into `directory`; returns the path.
std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::vector<Aggregate>& aggregates,
                            const std::string& directory = ".");
std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::string& directory = ".");

}  // namespace klex::exp
