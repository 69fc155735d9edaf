#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "api/fleet.hpp"
#include "stats/waiting_time.hpp"
#include "support/check.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "verify/safety_monitor.hpp"

namespace klex::exp {

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads) {
  KLEX_REQUIRE(threads >= 0, "negative thread count");
  if (threads_ == 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
}

std::vector<RunPoint> ExperimentRunner::expand(const ScenarioSpec& spec) {
  KLEX_REQUIRE(!spec.topologies.empty(), "scenario has no topologies");
  KLEX_REQUIRE(!spec.features.empty(), "scenario has no ladder rungs");
  KLEX_REQUIRE(!spec.kl.empty(), "scenario has no (k,l) pairs");
  KLEX_REQUIRE(spec.seeds >= 1, "scenario needs at least one seed");
  KLEX_REQUIRE(!spec.fault_garbage.empty(),
               "scenario has no fault_garbage entries");
  KLEX_REQUIRE(!spec.threads.empty(), "scenario has no thread counts");
  KLEX_REQUIRE(!spec.fleet.empty(), "scenario has no fleet entries");
  for (int fleet : spec.fleet) {
    KLEX_REQUIRE(fleet >= 1, "fleet entries must be >= 1, got ", fleet);
  }
  // An empty policy list is one implicit default variant (policy = -1):
  // artifacts gain no policy axis and stay byte-identical.
  const int policy_count =
      spec.policies.empty() ? 1 : static_cast<int>(spec.policies.size());
  std::vector<RunPoint> points;
  for (const TopologySpec& topology : spec.topologies) {
    for (const proto::Features& features : spec.features) {
      for (const auto& [k, l] : spec.kl) {
        for (int garbage : spec.fault_garbage) {
          for (int threads : spec.threads) {
            for (int fleet : spec.fleet) {
              // A fleet entry fans out into the shared-engine point and,
              // when requested, the separate-engines baseline point.
              const int modes =
                  (fleet > 1 && spec.fleet_compare_separate) ? 2 : 1;
              for (int mode = 0; mode < modes; ++mode) {
                for (int policy = 0; policy < policy_count; ++policy) {
                  for (int s = 0; s < spec.seeds; ++s) {
                    RunPoint point;
                    point.topology = topology;
                    point.features = features;
                    point.k = k;
                    point.l = l;
                    point.fault_garbage = garbage;
                    point.threads = threads;
                    point.fleet = fleet;
                    point.fleet_separate = mode == 1;
                    point.policy = spec.policies.empty() ? -1 : policy;
                    point.seed =
                        spec.base_seed + static_cast<std::uint64_t>(s);
                    points.push_back(point);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

namespace {

/// The grid point's policy variant (null when the scenario has no
/// policy axis).
const ScenarioSpec::PolicyVariant* variant_of(const ScenarioSpec& spec,
                                              const RunPoint& point) {
  if (point.policy < 0) return nullptr;
  KLEX_CHECK(static_cast<std::size_t>(point.policy) < spec.policies.size(),
             "policy index out of range");
  return &spec.policies[static_cast<std::size_t>(point.policy)];
}

// Fleet grid points support the single post-measurement transient fault
// only (targeted at tenant 0). Staged fault plans imply live-topology
// graph systems; fleets are tree-tenant only.
void require_fleet_fault_supported(const ScenarioSpec& spec) {
  KLEX_REQUIRE(spec.fault_plan.events.empty(),
               "fleet grid points do not support staged fault plans");
  KLEX_REQUIRE(spec.fault == ScenarioSpec::FaultKind::kNone ||
                   spec.fault == ScenarioSpec::FaultKind::kTransient,
               "fleet grid points support only none/transient faults");
}

/// What one session's pass through the phase pipeline measured: the
/// counters in `result`, plus the distributions a separate-fleet batch
/// merges before finish() reads quantiles off them. `result.classes`
/// holds every class in order and a trailing "base" cell, and
/// `class_latency` runs parallel to it.
struct SessionRun {
  RunResult result;
  support::Histogram waits;
  support::Histogram latency;
  std::vector<support::Histogram> class_latency;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The builder of one session of `point` (with its fault when `faulted`).
SystemBuilder point_builder(const ScenarioSpec& spec, const RunPoint& point,
                            bool faulted) {
  const ScenarioSpec::PolicyVariant* variant = variant_of(spec, point);
  SystemBuilder builder;
  builder.topology(point.topology)
      .kl(point.k, point.l)
      .features(point.features)
      .cmax(spec.cmax)
      .delays(spec.delays)
      .seed(point.seed)
      .seed_tokens(spec.seed_tokens)
      .spread_tokens(spec.spread_tokens)
      .beacon_period(spec.beacon_period)
      .spanning_tree_deadline(spec.spanning_tree_deadline)
      .threads(point.threads)
      .workload(spec.workload)
      .chaos(variant != nullptr && variant->override_chaos ? variant->chaos
                                                           : spec.chaos);
  if (point.fleet > 1) builder.fleet(point.fleet);
  if (faulted) {
    builder.fault(spec.fault)
        .fault_garbage(point.fault_garbage)
        .fault_plan(spec.fault_plan);
  }
  if (variant != nullptr) {
    builder.retry_policy(variant->retry).admission_policy(variant->admission);
  }
  return builder;
}

/// The phase pipeline every grid point runs through, once per session:
/// build, stabilize + warm up, measured window, fault phase, monitor
/// totals. A fleet point (point.fleet > 1) builds one FleetSystem; its
/// only fleet-specific steps are the per-tenant readout and aiming the
/// fault at tenant 0. Any other session reads out as one tenant. With
/// `faulted` false the session skips the fault phase. The warmup starts
/// where stabilization detection left the clock or at `settle_from`,
/// whichever is later.
SessionRun run_session(const ScenarioSpec& spec, const RunPoint& point,
                       bool faulted, sim::SimTime settle_from = 0) {
  Session session = point_builder(spec, point, faulted).build_session();
  SystemBase& system = *session.system;
  WorkloadDriver& driver = *session.driver;
  SessionRun run;
  RunResult& result = run.result;
  result.n = system.n();
  auto* fleet = dynamic_cast<FleetSystem*>(session.system.get());
  const int tenants = fleet != nullptr ? fleet->tenant_count() : 1;
  // Tenant t owns nodes [node_begin(t), node_end(t)); a plain system is
  // one tenant.
  auto node_begin = [&](int t) { return fleet ? fleet->node_begin(t) : 0; };
  auto node_end = [&](int t) { return fleet ? fleet->node_end(t) : result.n; };

  // The wall clock starts after construction so events_per_sec measures
  // the exclusion engine only (GraphSystem's constructor simulates a
  // whole spanning-tree engine that is invisible to engine().stats()).
  auto wall_start = std::chrono::steady_clock::now();

  // Each tenant is its own waiting-time scope: a wait counts the CS
  // entries of the requester's own protocol instance only.
  std::vector<int> scope_of_node(static_cast<std::size_t>(result.n));
  for (int t = 0; t < tenants; ++t) {
    for (NodeId node = node_begin(t); node < node_end(t); ++node) {
      scope_of_node[static_cast<std::size_t>(node)] = t;
    }
  }
  stats::WaitingTimeTracker waits(std::move(scope_of_node));
  // Fleet-wide bounds: k is the max per-node need, l the sum of the
  // tenants' populations (SystemBase accessors aggregate for fleets).
  verify::SafetyMonitor safety(result.n, system.k(), system.l());
  system.add_listener(&waits);
  system.add_listener(&safety);
  if (spec.stall_threshold > 0) {
    // Continuous liveness watchdog: the window-safe monitor rides the
    // engine as an observer, so stalls are timestamped as they happen.
    safety.set_stall_threshold(spec.stall_threshold);
    safety.watch(system.engine());
  }
  // Message overhead: window deltas of the engine's inline per-type send
  // counters (no per-send observer in the measured window).
  using proto::TokenType;
  auto sent_of = [&system](TokenType type) {
    return system.engine().sent_of_type(static_cast<std::int32_t>(type));
  };

  // Phase 1: stabilize (a fleet's predicate is the AND of the per-tenant
  // O(1) predicates), then settle through the warmup window.
  sim::SimTime stabilized =
      system.run_until_stabilized(spec.stabilize_deadline);
  result.stabilized = stabilized != sim::kTimeInfinity;
  result.stabilization_time = stabilized;
  system.run_until(std::max(system.engine().now(), settle_from) +
                   spec.warmup);

  // Phase 2: closed-loop workload over the measurement window.
  session.begin_workload();
  waits.reset_samples();
  const std::uint64_t resource_before = sent_of(TokenType::kResource);
  const std::uint64_t pusher_before = sent_of(TokenType::kPusher);
  const std::uint64_t priority_before = sent_of(TokenType::kPriority);
  const std::uint64_t control_before = sent_of(TokenType::kControl);
  sim::SimTime window_start = system.engine().now();
  std::uint64_t events_before = system.engine().events_executed();
  system.run_until(window_start + spec.horizon);

  result.grants = driver.total_grants();
  result.requests = driver.total_requests();
  result.outstanding_at_end = driver.outstanding();
  result.quiescent_at_end =
      system.engine().next_event_time() == sim::kTimeInfinity;
  if (!spec.workload.classes.empty()) {
    // Per-class slices in class order, then the "base" cell for nodes
    // that fell through to the base behavior.
    result.classes.resize(spec.workload.classes.size() + 1);
    run.class_latency.resize(result.classes.size());
    for (std::size_t c = 0; c < spec.workload.classes.size(); ++c) {
      result.classes[c].name = spec.workload.classes[c].name;
    }
    result.classes.back().name = "base";
  }
  for (NodeId node = 0; node < result.n; ++node) {
    run.latency.merge(driver.grant_latency(node));
    if (result.classes.empty()) continue;
    int cls = session.workload.class_index[static_cast<std::size_t>(node)];
    std::size_t slot = cls >= 0 ? static_cast<std::size_t>(cls)
                                : spec.workload.classes.size();
    ClassResult& cell = result.classes[slot];
    ++cell.nodes;
    cell.requests += driver.requests_issued(node);
    cell.grants += driver.grants(node);
    run.class_latency[slot].merge(driver.grant_latency(node));
    if (system.state_of(node) == proto::AppState::kIn) ++cell.holding_at_end;
  }
  for (int t = 0; t < waits.scope_count(); ++t) {
    run.waits.merge(waits.waits(t));
  }
  result.control_messages = sent_of(TokenType::kControl) - control_before;
  result.resource_messages = sent_of(TokenType::kResource) - resource_before;
  result.pusher_messages = sent_of(TokenType::kPusher) - pusher_before;
  result.priority_messages = sent_of(TokenType::kPriority) - priority_before;
  // Snapshotted before any fault: self-stabilization only guarantees
  // eventual safety, so violations while re-stabilizing must not read as
  // regressions; the event count likewise covers the window alone.
  result.safety_ok = !safety.any_violation();
  result.events_executed = system.engine().events_executed() - events_before;
  const std::int64_t violations_at_measure_end = safety.violation_count();

  // Per-tenant slices of the window, read before the fault phase accrues
  // more grants on the cumulative per-node driver counters.
  result.tenants.resize(static_cast<std::size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    TenantResult& cell = result.tenants[static_cast<std::size_t>(t)];
    cell.tenant = t;
    cell.n = node_end(t) - node_begin(t);
    sim::SimTime since = fleet ? fleet->tenant_stabilized_at(t) : stabilized;
    cell.stabilized = since != sim::kTimeInfinity;
    cell.stabilization_time = cell.stabilized ? since : 0;
    for (NodeId node = node_begin(t); node < node_end(t); ++node) {
      cell.requests += driver.requests_issued(node);
      cell.grants += driver.grants(node);
    }
  }

  // Phase 3 (optional): the fault phase. The staged plan and the single
  // post-measurement fault (which the builder folds into a one-event plan
  // at offset 0) share this loop: the engine advances to each event's
  // time (relative to the end of the measurement window), applies it and
  // re-stabilizes. Only staged events are recorded as fault_events.
  if (!session.fault_plan.empty()) {
    result.fault_injected = true;
    auto recovery_start = std::chrono::steady_clock::now();
    const sim::SimTime phase_start = system.engine().now();
    support::Rng fault_rng(point.seed ^ 0xFA17ull);
    bool all_recovered = true;
    for (const FaultEvent& event : session.fault_plan.events) {
      system.run_until(phase_start + event.at);
      const sim::SimTime fault_at = system.engine().now();
      const std::uint64_t events_at_fault = system.engine().events_executed();
      const std::int64_t violations_at_event = safety.violation_count();
      const sim::ChaosStats chaos_then = system.engine().chaos_stats();
      FaultEventResult record;
      if (fleet != nullptr) {
        // A fleet's fault corrupts tenant 0 alone: the other tenants'
        // slices exhibit fault isolation.
        fleet->inject_transient_fault_tenant(0, fault_rng, event.garbage);
        if (fleet->tenant_params(0).features.epoch_cut) {
          fleet->epoch_cut_recover_tenant(0);  // no-op if the fault missed
        }
        driver.resync();
      } else {
        static_cast<TopologyFaultResult&>(record) =
            session.apply_fault_event(event, fault_rng);
      }
      const sim::SimTime recovered_at =
          system.run_until_stabilized(fault_at + spec.recovery_deadline);
      record.at = fault_at;
      record.kind = to_string(event.kind);
      record.recovered = recovered_at != sim::kTimeInfinity;
      // Elapsed since the fault (comparable across warmups and horizons).
      record.recovery_time = record.recovered ? recovered_at - fault_at : 0;
      record.recovery_events =
          system.engine().events_executed() - events_at_fault;
      if (event.kind == FaultKind::kChaosBurst) {
        // What the adversary did until re-stabilization, and its damage.
        const sim::ChaosStats chaos_now = system.engine().chaos_stats();
        record.chaos = true;
        record.chaos_dropped = chaos_now.dropped - chaos_then.dropped;
        record.chaos_duplicated = chaos_now.duplicated - chaos_then.duplicated;
        record.chaos_reordered = chaos_now.reordered - chaos_then.reordered;
        record.chaos_jittered = chaos_now.jittered - chaos_then.jittered;
        record.violations = safety.violation_count() - violations_at_event;
      }
      all_recovered = all_recovered && record.recovered;
      result.recovery_time += record.recovery_time;
      result.recovery_events += record.recovery_events;
      if (!spec.fault_plan.empty()) result.fault_events.push_back(record);
    }
    result.recovered = all_recovered;
    result.recovery_wall_seconds = seconds_since(recovery_start);
  }

  // Per-tenant end state: the isolation observables the artifact pins.
  for (int t = 0; t < tenants; ++t) {
    TenantResult& cell = result.tenants[static_cast<std::size_t>(t)];
    cell.events_executed = fleet ? fleet->tenant_events_executed(t)
                                 : system.engine().events_executed();
    cell.recovery_events =
        fleet ? fleet->tenant_recovery_events(t) : system.epoch_cuts();
    cell.correct_at_end =
        fleet ? fleet->tenant_correct(t) : system.token_counts_correct();
  }

  // Monitor totals over the whole run, after a final watchdog sweep for
  // stalls younger than the last delivery heartbeat.
  if (spec.stall_threshold > 0) safety.check_stalls(system.engine().now());
  result.safety_violations = safety.violation_count();
  result.last_violation_time = safety.last_violation_time();
  result.liveness_stalls = safety.stall_count();
  result.fault_phase_violations =
      safety.violation_count() - violations_at_measure_end;

  result.engine_stats = system.engine().stats();
  result.wall_seconds = seconds_since(wall_start);
  return run;
}

/// The batching baseline: the fleet's R tenants as R standalone serial
/// systems seeded seed .. seed + R - 1 -- exactly the twins the shared
/// run's tenants replay (tests/integration/fleet_differential_test.cpp)
/// -- each through the same pipeline, session 0 alone taking the fault.
/// A shared fleet warms up from where its slowest tenant's stabilization
/// left the clock, so a probe pass first stabilizes every twin and each
/// session then warms up from that same instant. The batch pays R engine
/// boots, R calendars and R clocks. The merge sums the counters, takes
/// the slowest stabilization and merges the distributions; every
/// per-tenant window has length `horizon`, so the batch rates use the
/// same denominator as the shared run's one window.
SessionRun run_separate(const ScenarioSpec& spec, const RunPoint& point) {
  auto tenant_point = [&point](int t) {
    RunPoint one = point;
    one.fleet = 1;
    one.threads = 1;
    one.seed = point.seed + static_cast<std::uint64_t>(t);
    return one;
  };
  sim::SimTime fleet_settled = 0;
  for (int t = 0; t < point.fleet; ++t) {
    std::unique_ptr<SystemBase> probe =
        point_builder(spec, tenant_point(t), false).build();
    probe->run_until_stabilized(spec.stabilize_deadline);
    fleet_settled = std::max(fleet_settled, probe->engine().now());
  }
  SessionRun batch;
  for (int t = 0; t < point.fleet; ++t) {
    SessionRun run =
        run_session(spec, tenant_point(t), t == 0, fleet_settled);
    run.result.tenants.front().tenant = t;
    if (t == 0) {
      batch = std::move(run);  // also carries the fault phase's fields
      continue;
    }
    RunResult& total = batch.result;
    const RunResult& one = run.result;
    total.n += one.n;
    total.stabilized = total.stabilized && one.stabilized;
    total.stabilization_time =
        std::max(total.stabilization_time, one.stabilization_time);
    total.grants += one.grants;
    total.requests += one.requests;
    total.outstanding_at_end += one.outstanding_at_end;
    total.quiescent_at_end = total.quiescent_at_end && one.quiescent_at_end;
    for (std::size_t c = 0; c < total.classes.size(); ++c) {
      total.classes[c].nodes += one.classes[c].nodes;
      total.classes[c].requests += one.classes[c].requests;
      total.classes[c].grants += one.classes[c].grants;
      total.classes[c].holding_at_end += one.classes[c].holding_at_end;
      batch.class_latency[c].merge(run.class_latency[c]);
    }
    total.tenants.push_back(one.tenants.front());
    batch.waits.merge(run.waits);
    batch.latency.merge(run.latency);
    total.control_messages += one.control_messages;
    total.resource_messages += one.resource_messages;
    total.pusher_messages += one.pusher_messages;
    total.priority_messages += one.priority_messages;
    total.safety_ok = total.safety_ok && one.safety_ok;
    total.safety_violations += one.safety_violations;
    total.last_violation_time =
        std::max(total.last_violation_time, one.last_violation_time);
    total.liveness_stalls += one.liveness_stalls;
    total.fault_phase_violations += one.fault_phase_violations;
    total.events_executed += one.events_executed;
    total.engine_stats += one.engine_stats;
    total.wall_seconds += one.wall_seconds;
  }
  return batch;
}

/// Reads the quantiles off the (merged) distributions, derives the
/// window rates and drops an empty "base" class cell.
RunResult finish(SessionRun run, sim::SimTime horizon) {
  RunResult& result = run.result;
  // A slice that recorded no grant leaves its percentiles unset.
  auto fill_latency = [](auto& slice, const support::Histogram& latency) {
    if (latency.count() == 0) return;
    slice.latency_count = static_cast<std::int64_t>(latency.count());
    slice.latency_p50 = latency.quantile(0.5);
    slice.latency_p99 = latency.quantile(0.99);
    slice.latency_p999 = latency.quantile(0.999);
  };
  fill_latency(result, run.latency);
  for (std::size_t c = 0; c < result.classes.size(); ++c) {
    fill_latency(result.classes[c], run.class_latency[c]);
  }
  if (!result.classes.empty() && result.classes.back().nodes == 0) {
    result.classes.pop_back();
  }
  if (run.waits.count() > 0) {
    result.mean_wait_entries = run.waits.mean();
    result.max_wait_entries = run.waits.max();
    result.p99_wait_entries = run.waits.p99();
  }
  result.grants_per_mtick = static_cast<double>(result.grants) * 1e6 /
                            static_cast<double>(horizon);
  if (result.grants > 0) {
    result.messages_per_grant =
        static_cast<double>(result.control_messages +
                            result.resource_messages +
                            result.pusher_messages +
                            result.priority_messages) /
        static_cast<double>(result.grants);
  }
  if (result.wall_seconds > 0.0) {
    result.events_per_sec =
        static_cast<double>(result.engine_stats.events_executed) /
        result.wall_seconds;
  }
  return std::move(run.result);
}

}  // namespace

RunResult ExperimentRunner::run_point(const ScenarioSpec& spec,
                                      const RunPoint& point) {
  const bool fleet = point.fleet > 1;
  if (fleet) require_fleet_fault_supported(spec);
  SessionRun run = fleet && point.fleet_separate
                       ? run_separate(spec, point)
                       : run_session(spec, point, /*faulted=*/true);
  RunResult& result = run.result;
  // A plain point has no tenant axis (its one-tenant readout is dropped).
  if (!fleet) result.tenants.clear();
  result.topology = point.topology.name();
  result.features = point.features.name();
  result.k = point.k;
  result.l = point.l;
  result.fault_garbage = point.fault_garbage;
  result.threads = point.threads;
  result.fleet = point.fleet;
  if (fleet) result.fleet_mode = point.fleet_separate ? "separate" : "shared";
  if (const auto* variant = variant_of(spec, point)) {
    result.policy = variant->label;
  }
  result.seed = point.seed;
  return finish(std::move(run), spec.horizon);
}

std::vector<RunResult> ExperimentRunner::run(const ScenarioSpec& spec) const {
  std::vector<RunPoint> points = expand(spec);
  std::vector<RunResult> results(points.size());

  int workers = std::min<int>(threads_, static_cast<int>(points.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      results[i] = run_point(spec, points[i]);
    }
    return results;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&spec, &points, &results, &next] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      results[i] = run_point(spec, points[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  return results;
}

std::vector<Aggregate> ExperimentRunner::aggregate(
    const std::vector<RunResult>& results) {
  // Keyed by (topology, features, k, l, fault_garbage, threads, fleet,
  // fleet_mode, policy), in first-appearance order.
  std::map<std::tuple<std::string, std::string, int, int, int, int, int,
                      std::string, std::string>,
           std::size_t>
      index;
  std::vector<Aggregate> cells;
  for (const RunResult& run : results) {
    auto key = std::tuple{run.topology, run.features,  run.k,
                          run.l,        run.fault_garbage, run.threads,
                          run.fleet,    run.fleet_mode, run.policy};
    auto [it, inserted] = index.try_emplace(key, cells.size());
    if (inserted) {
      Aggregate cell;
      cell.topology = run.topology;
      cell.features = run.features;
      cell.k = run.k;
      cell.l = run.l;
      cell.fault_garbage = run.fault_garbage;
      cell.threads = run.threads;
      cell.fleet = run.fleet;
      cell.fleet_mode = run.fleet_mode;
      cell.policy = run.policy;
      cell.n = run.n;
      cells.push_back(cell);
    }
    Aggregate& cell = cells[it->second];
    ++cell.runs;
    if (run.stabilized) {
      ++cell.stabilized_runs;
      double t = static_cast<double>(run.stabilization_time);
      cell.mean_stabilization_time += t;
      cell.max_stabilization_time = std::max(cell.max_stabilization_time, t);
    }
    if (run.recovered) {
      ++cell.recovered_runs;
      double t = static_cast<double>(run.recovery_time);
      cell.mean_recovery_time += t;
      cell.max_recovery_time = std::max(cell.max_recovery_time, t);
      cell.mean_recovery_events += static_cast<double>(run.recovery_events);
      cell.mean_recovery_wall_seconds += run.recovery_wall_seconds;
    }
    if (run.safety_ok) ++cell.safe_runs;
    cell.mean_grants_per_mtick += run.grants_per_mtick;
    cell.mean_wait_entries += run.mean_wait_entries;
    cell.max_wait_entries =
        std::max(cell.max_wait_entries, run.max_wait_entries);
    cell.mean_messages_per_grant += run.messages_per_grant;
    cell.mean_outstanding_at_end += run.outstanding_at_end;
    cell.mean_wall_seconds += run.wall_seconds;
    cell.total_events_per_sec += run.events_per_sec;
    cell.mean_fault_events += static_cast<double>(run.fault_events.size());
    for (const FaultEventResult& event : run.fault_events) {
      cell.mean_parent_changes += event.parent_changes;
      cell.mean_stree_events += static_cast<double>(event.stree_events);
    }
    cell.mean_chaos_dropped +=
        static_cast<double>(run.engine_stats.chaos_dropped);
    cell.mean_chaos_duplicated +=
        static_cast<double>(run.engine_stats.chaos_duplicated);
    cell.mean_chaos_reordered +=
        static_cast<double>(run.engine_stats.chaos_reordered);
    cell.mean_chaos_jittered +=
        static_cast<double>(run.engine_stats.chaos_jittered);
    cell.mean_fault_phase_violations +=
        static_cast<double>(run.fault_phase_violations);
    cell.mean_liveness_stalls += static_cast<double>(run.liveness_stalls);
    if (run.latency_count > 0) {
      ++cell.latency_runs;
      cell.mean_latency_p50 += run.latency_p50;
      cell.mean_latency_p99 += run.latency_p99;
      cell.mean_latency_p999 += run.latency_p999;
    }
  }
  for (Aggregate& cell : cells) {
    if (cell.stabilized_runs > 0) {
      cell.mean_stabilization_time /= cell.stabilized_runs;
    }
    if (cell.recovered_runs > 0) {
      for (double* mean : {&cell.mean_recovery_time, &cell.mean_recovery_events,
                           &cell.mean_recovery_wall_seconds}) {
        *mean /= cell.recovered_runs;
      }
    }
    if (cell.runs > 0) {
      for (double* mean :
           {&cell.mean_grants_per_mtick, &cell.mean_wait_entries,
            &cell.mean_messages_per_grant, &cell.mean_outstanding_at_end,
            &cell.mean_wall_seconds, &cell.mean_fault_events,
            &cell.mean_parent_changes, &cell.mean_stree_events,
            &cell.mean_chaos_dropped, &cell.mean_chaos_duplicated,
            &cell.mean_chaos_reordered, &cell.mean_chaos_jittered,
            &cell.mean_fault_phase_violations, &cell.mean_liveness_stalls}) {
        *mean /= cell.runs;
      }
    }
    if (cell.latency_runs > 0) {
      for (double* mean : {&cell.mean_latency_p50, &cell.mean_latency_p99,
                           &cell.mean_latency_p999}) {
        *mean /= cell.latency_runs;
      }
    }
  }
  return cells;
}

namespace {

void write_dist(support::JsonWriter& json, const proto::Dist& dist) {
  json.begin_object();
  switch (dist.kind) {
    case proto::Dist::Kind::kFixed:
      json.field("kind", "fixed").field("value", dist.a);
      break;
    case proto::Dist::Kind::kUniform:
      json.field("kind", "uniform").field("lo", dist.a).field("hi", dist.b);
      break;
    case proto::Dist::Kind::kExponential:
      json.field("kind", "exponential").field("mean", dist.a);
      break;
  }
  json.end_object();
}

void write_chaos_config(support::JsonWriter& json,
                        const sim::ChaosConfig& chaos) {
  json.begin_object();
  json.field("drop_p", chaos.drop_p);
  json.field("dup_p", chaos.dup_p);
  json.field("reorder_p", chaos.reorder_p);
  json.field("reorder_window", chaos.reorder_window);
  json.field("reorder_flush_delay", chaos.reorder_flush_delay);
  json.field("jitter", chaos.jitter);
  json.end_object();
}

void write_behavior(support::JsonWriter& json,
                    const proto::NodeBehavior& behavior) {
  json.begin_object();
  json.field("active", behavior.active);
  json.field("hold_forever", behavior.hold_forever);
  json.key("think");
  write_dist(json, behavior.think);
  json.key("cs_duration");
  write_dist(json, behavior.cs_duration);
  json.key("need");
  write_dist(json, behavior.need);
  if (behavior.max_requests >= 0) {
    json.field("max_requests", behavior.max_requests);
  }
  json.end_object();
}

// True when any run of the scenario can exercise a ChaosModel or the
// liveness watchdog -- gates the chaos/monitoring fields so pre-chaos
// artifacts stay byte-identical.
bool is_monitored_spec(const ScenarioSpec& spec) {
  if (spec.chaos.enabled() || spec.fault_plan.has_chaos_events() ||
      spec.stall_threshold > 0) {
    return true;
  }
  for (const ScenarioSpec::PolicyVariant& variant : spec.policies) {
    if (variant.override_chaos && variant.chaos.enabled()) return true;
  }
  return false;
}

void write_retry_policy(support::JsonWriter& json,
                        const proto::RetryPolicy& retry) {
  json.begin_object();
  json.field("backoff_base", retry.backoff_base);
  json.field("backoff_cap_exponent", retry.backoff_cap_exponent);
  json.field("jitter", retry.jitter);
  json.field("max_attempts", retry.max_attempts);
  json.field("retry_budget", retry.retry_budget);
  json.field("deadline", retry.deadline);
  json.end_object();
}

void write_admission_policy(support::JsonWriter& json,
                            const proto::AdmissionPolicy& admission) {
  json.begin_object();
  json.field("max_waiting", admission.max_waiting);
  json.field("max_outstanding_need", admission.max_outstanding_need);
  json.end_object();
}

// The artifact's "spec" object -- factored out of write_json so the
// chaos fuzzer can emit a minimized reproducer as standalone,
// replayable scenario JSON (write_scenario_json).
void write_spec_object(support::JsonWriter& json,
                       const ScenarioSpec& spec) {
  json.begin_object();
  if (!spec.note.empty()) json.field("note", spec.note);
  json.key("topologies").begin_array();
  for (const TopologySpec& topology : spec.topologies) {
    json.value(topology.name());
  }
  json.end_array();
  json.key("features").begin_array();
  for (const proto::Features& features : spec.features) {
    json.value(features.name());
  }
  json.end_array();
  json.key("kl").begin_array();
  for (const auto& [k, l] : spec.kl) {
    json.begin_object().field("k", k).field("l", l).end_object();
  }
  json.end_array();
  json.field("cmax", spec.cmax);
  json.key("delays").begin_object();
  json.field("min", spec.delays.min_delay);
  json.field("max", spec.delays.max_delay);
  json.end_object();
  json.key("threads").begin_array();
  for (int threads : spec.threads) json.value(threads);
  json.end_array();
  // The fleet axis is emitted only when the scenario actually sweeps it,
  // so pre-fleet artifacts stay byte-identical.
  const bool fleet_grid = spec.fleet != std::vector<int>{1} ||
                          spec.fleet_compare_separate;
  if (fleet_grid) {
    json.key("fleet").begin_array();
    for (int fleet : spec.fleet) json.value(fleet);
    json.end_array();
    json.field("fleet_compare_separate", spec.fleet_compare_separate);
  }
  json.field("seed_tokens", spec.seed_tokens);
  json.field("spread_tokens", spec.spread_tokens);
  json.key("workload").begin_object();
  json.key("base");
  write_behavior(json, spec.workload.base);
  json.key("classes").begin_array();
  for (const proto::BehaviorClass& cls : spec.workload.classes) {
    json.begin_object();
    json.field("name", cls.name);
    if (!cls.nodes.empty()) {
      json.key("nodes").begin_array();
      for (proto::NodeId node : cls.nodes) json.value(node);
      json.end_array();
    } else if (cls.count >= 0) {
      json.field("count", cls.count);
    } else {
      json.field("fraction", cls.fraction);
    }
    json.key("behavior");
    write_behavior(json, cls.behavior);
    json.end_object();
  }
  json.end_array();
  json.end_object();  // workload
  json.field("warmup", spec.warmup);
  json.field("horizon", spec.horizon);
  json.field("stabilize_deadline", spec.stabilize_deadline);
  json.field("beacon_period", spec.beacon_period);
  json.field("fault", to_string(spec.fault));
  if (!spec.fault_plan.events.empty()) {
    json.key("fault_plan").begin_array();
    for (const FaultEvent& event : spec.fault_plan.events) {
      json.begin_object();
      json.field("at", event.at);
      json.field("kind", to_string(event.kind));
      json.field("count", event.count);
      json.field("restore", event.restore);
      if (!event.links.empty()) {
        json.key("links").begin_array();
        for (const auto& [a, b] : event.links) {
          json.begin_array().value(a).value(b).end_array();
        }
        json.end_array();
      }
      if (!event.nodes.empty()) {
        json.key("nodes").begin_array();
        for (int node : event.nodes) json.value(node);
        json.end_array();
      }
      if (event.garbage >= 0) json.field("garbage", event.garbage);
      if (event.kind == FaultKind::kChaosBurst) {
        json.field("duration", event.duration);
        json.key("chaos");
        write_chaos_config(json, event.chaos);
      }
      json.end_object();
    }
    json.end_array();
  }
  // Chaos / watchdog spec knobs, emitted only for scenarios that use
  // them so every pre-chaos artifact stays byte-identical.
  if (is_monitored_spec(spec)) {
    json.key("chaos");
    write_chaos_config(json, spec.chaos);
    json.field("stall_threshold", spec.stall_threshold);
  }
  // Policy axis, emitted only when the scenario sweeps one (pre-policy
  // artifacts stay byte-identical).
  if (!spec.policies.empty()) {
    json.key("policies").begin_array();
    for (const ScenarioSpec::PolicyVariant& variant : spec.policies) {
      json.begin_object();
      json.field("label", variant.label);
      json.key("retry");
      write_retry_policy(json, variant.retry);
      json.key("admission");
      write_admission_policy(json, variant.admission);
      if (variant.override_chaos) {
        json.key("chaos");
        write_chaos_config(json, variant.chaos);
      }
      json.end_object();
    }
    json.end_array();
  }
  json.key("fault_garbage").begin_array();
  for (int garbage : spec.fault_garbage) json.value(garbage);
  json.end_array();
  json.field("seeds", spec.seeds);
  json.field("base_seed", spec.base_seed);
  json.end_object();  // spec
}

}  // namespace

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results) {
  write_json(out, spec, results, ExperimentRunner::aggregate(results));
}

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results,
                const std::vector<Aggregate>& aggregates) {
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);

  json.key("spec");
  write_spec_object(json, spec);
  const bool monitored_spec = is_monitored_spec(spec);

  json.key("runs").begin_array();
  for (const RunResult& run : results) {
    json.begin_object();
    json.field("topology", run.topology);
    json.field("features", run.features);
    json.field("n", run.n);
    json.field("k", run.k);
    json.field("l", run.l);
    json.field("threads", run.threads);
    if (run.fleet > 1) {
      json.field("fleet", run.fleet);
      json.field("fleet_mode", run.fleet_mode);
    }
    if (!run.policy.empty()) json.field("policy", run.policy);
    json.field("seed", run.seed);
    json.field("stabilized", run.stabilized);
    if (run.stabilized) {
      json.field("stabilization_time", run.stabilization_time);
    }
    if (run.fault_injected) {
      if (run.fault_garbage >= 0) {
        json.field("fault_garbage", run.fault_garbage);
      }
      json.field("recovered", run.recovered);
      if (run.recovered) {
        json.field("recovery_time", run.recovery_time);
        json.field("recovery_events", run.recovery_events);
        json.field("recovery_wall_seconds", run.recovery_wall_seconds);
      }
      if (!run.fault_events.empty()) {
        json.key("fault_events").begin_array();
        for (const FaultEventResult& event : run.fault_events) {
          json.begin_object();
          json.field("at", event.at);
          json.field("kind", event.kind);
          json.field("links_changed", event.links_changed);
          json.field("nodes_changed", event.nodes_changed);
          json.field("detached", event.detached);
          json.field("reattached", event.reattached);
          json.field("attached_nodes", event.attached_nodes);
          json.field("parent_changes", event.parent_changes);
          json.field("stree_events", event.stree_events);
          json.field("stree_time", event.stree_time);
          json.field("repair_seed", event.repair_seed);
          json.field("recovered", event.recovered);
          json.field("recovery_time", event.recovery_time);
          json.field("recovery_events", event.recovery_events);
          if (event.chaos) {
            json.field("chaos_dropped", event.chaos_dropped);
            json.field("chaos_duplicated", event.chaos_duplicated);
            json.field("chaos_reordered", event.chaos_reordered);
            json.field("chaos_jittered", event.chaos_jittered);
            json.field("violations", event.violations);
          }
          json.end_object();
        }
        json.end_array();
      }
    }
    json.field("grants", run.grants);
    json.field("requests", run.requests);
    json.field("grants_per_mtick", run.grants_per_mtick);
    json.field("outstanding_at_end", run.outstanding_at_end);
    json.field("quiescent_at_end", run.quiescent_at_end);
    if (!run.classes.empty()) {
      json.key("classes").begin_array();
      for (const ClassResult& cls : run.classes) {
        json.begin_object();
        json.field("name", cls.name);
        json.field("nodes", cls.nodes);
        json.field("requests", cls.requests);
        json.field("grants", cls.grants);
        json.field("holding_at_end", cls.holding_at_end);
        if (cls.latency_count > 0) {
          json.field("latency_count", cls.latency_count);
          json.field("grant_latency_p50", cls.latency_p50);
          json.field("grant_latency_p99", cls.latency_p99);
          json.field("grant_latency_p999", cls.latency_p999);
        }
        json.end_object();
      }
      json.end_array();
    }
    if (!run.tenants.empty()) {
      json.key("tenants").begin_array();
      for (const TenantResult& cell : run.tenants) {
        json.begin_object();
        json.field("tenant", cell.tenant);
        json.field("n", cell.n);
        json.field("stabilized", cell.stabilized);
        if (cell.stabilized) {
          json.field("stabilization_time", cell.stabilization_time);
        }
        json.field("requests", cell.requests);
        json.field("grants", cell.grants);
        json.field("events_executed", cell.events_executed);
        json.field("recovery_events", cell.recovery_events);
        json.field("correct_at_end", cell.correct_at_end);
        json.end_object();
      }
      json.end_array();
    }
    json.field("mean_wait_entries", run.mean_wait_entries);
    json.field("max_wait_entries", run.max_wait_entries);
    json.field("p99_wait_entries", run.p99_wait_entries);
    // Grant-latency percentiles, only when the run recorded any grants
    // (bench_diff treats a percentile present in the baseline but
    // missing here as a loud failure).
    if (run.latency_count > 0) {
      json.field("latency_count", run.latency_count);
      json.field("grant_latency_p50", run.latency_p50);
      json.field("grant_latency_p99", run.latency_p99);
      json.field("grant_latency_p999", run.latency_p999);
    }
    json.field("messages_per_grant", run.messages_per_grant);
    json.field("control_messages", run.control_messages);
    json.field("resource_messages", run.resource_messages);
    json.field("pusher_messages", run.pusher_messages);
    json.field("priority_messages", run.priority_messages);
    json.field("safety_ok", run.safety_ok);
    if (monitored_spec) {
      json.field("safety_violations", run.safety_violations);
      json.field("last_violation_time", run.last_violation_time);
      json.field("liveness_stalls", run.liveness_stalls);
      json.field("fault_phase_violations", run.fault_phase_violations);
    }
    json.field("events_executed", run.events_executed);
    json.field("wall_seconds", run.wall_seconds);
    json.field("events_per_sec", run.events_per_sec);
    json.key("engine").begin_object();
    json.field("callbacks_scheduled", run.engine_stats.callbacks_scheduled);
    json.field("callback_slots_created",
               run.engine_stats.callback_slots_created);
    json.field("max_heap_size", run.engine_stats.max_heap_size);
    json.field("in_flight_walks", run.engine_stats.in_flight_walks);
    if (monitored_spec) {
      json.field("chaos_dropped", run.engine_stats.chaos_dropped);
      json.field("chaos_duplicated", run.engine_stats.chaos_duplicated);
      json.field("chaos_reordered", run.engine_stats.chaos_reordered);
      json.field("chaos_jittered", run.engine_stats.chaos_jittered);
    }
    json.field("bucket_inserts", run.engine_stats.scheduler.bucket_inserts);
    json.field("bucket_scans", run.engine_stats.scheduler.bucket_scans);
    json.field("overflow_pushes",
               run.engine_stats.scheduler.overflow_pushes);
    json.field("overflow_pops", run.engine_stats.scheduler.overflow_pops);
    json.field("bucket_window", run.engine_stats.bucket_window);
    json.end_object();
    json.end_object();
  }
  json.end_array();  // runs

  json.key("aggregates").begin_array();
  for (const Aggregate& cell : aggregates) {
    json.begin_object();
    json.field("topology", cell.topology);
    json.field("features", cell.features);
    json.field("k", cell.k);
    json.field("l", cell.l);
    if (cell.fault_garbage >= 0) {
      json.field("fault_garbage", cell.fault_garbage);
    }
    json.field("threads", cell.threads);
    if (cell.fleet > 1) {
      json.field("fleet", cell.fleet);
      json.field("fleet_mode", cell.fleet_mode);
    }
    if (!cell.policy.empty()) json.field("policy", cell.policy);
    json.field("n", cell.n);
    json.field("runs", cell.runs);
    json.field("stabilized_runs", cell.stabilized_runs);
    json.field("safe_runs", cell.safe_runs);
    json.field("recovered_runs", cell.recovered_runs);
    json.field("mean_stabilization_time", cell.mean_stabilization_time);
    json.field("max_stabilization_time", cell.max_stabilization_time);
    json.field("mean_recovery_time", cell.mean_recovery_time);
    json.field("max_recovery_time", cell.max_recovery_time);
    json.field("mean_recovery_events", cell.mean_recovery_events);
    json.field("mean_recovery_wall_seconds",
               cell.mean_recovery_wall_seconds);
    json.field("mean_wall_seconds", cell.mean_wall_seconds);
    json.field("mean_grants_per_mtick", cell.mean_grants_per_mtick);
    json.field("mean_wait_entries", cell.mean_wait_entries);
    json.field("max_wait_entries", cell.max_wait_entries);
    if (cell.latency_runs > 0) {
      json.field("mean_grant_latency_p50", cell.mean_latency_p50);
      json.field("mean_grant_latency_p99", cell.mean_latency_p99);
      json.field("mean_grant_latency_p999", cell.mean_latency_p999);
    }
    json.field("mean_messages_per_grant", cell.mean_messages_per_grant);
    json.field("mean_outstanding_at_end", cell.mean_outstanding_at_end);
    json.field("total_events_per_sec", cell.total_events_per_sec);
    if (cell.mean_fault_events > 0.0) {
      json.field("mean_fault_events", cell.mean_fault_events);
      json.field("mean_parent_changes", cell.mean_parent_changes);
      json.field("mean_stree_events", cell.mean_stree_events);
    }
    if (monitored_spec) {
      json.field("mean_chaos_dropped", cell.mean_chaos_dropped);
      json.field("mean_chaos_duplicated", cell.mean_chaos_duplicated);
      json.field("mean_chaos_reordered", cell.mean_chaos_reordered);
      json.field("mean_chaos_jittered", cell.mean_chaos_jittered);
      json.field("mean_fault_phase_violations",
                 cell.mean_fault_phase_violations);
      json.field("mean_liveness_stalls", cell.mean_liveness_stalls);
    }
    json.end_object();
  }
  json.end_array();  // aggregates

  json.end_object();
  out << '\n';
}

void write_scenario_json(std::ostream& out, const ScenarioSpec& spec) {
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);
  json.key("spec");
  write_spec_object(json, spec);
  json.end_object();
  out << '\n';
}

std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::vector<Aggregate>& aggregates,
                            const std::string& directory) {
  KLEX_REQUIRE(!spec.name.empty(), "scenario needs a name");
  std::string path = directory + "/BENCH_" + spec.name + ".json";
  std::ofstream out(path);
  KLEX_REQUIRE(out.good(), "cannot open ", path, " for writing");
  write_json(out, spec, results, aggregates);
  return path;
}

std::string write_json_file(const ScenarioSpec& spec,
                            const std::vector<RunResult>& results,
                            const std::string& directory) {
  return write_json_file(spec, results, ExperimentRunner::aggregate(results),
                         directory);
}

}  // namespace klex::exp
