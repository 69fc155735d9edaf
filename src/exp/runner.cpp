#include "exp/runner.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>
#include <tuple>
#include <type_traits>

#include "stats/waiting_time.hpp"
#include "support/check.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "verify/safety_monitor.hpp"

namespace klex::exp {

namespace {
// CPUs this process may run on: its affinity mask where the platform has
// one (so `taskset` lowers it), else the hardware concurrency, else 1.
int usable_cpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0 &&
      CPU_COUNT(&mask) > 0) {
    return CPU_COUNT(&mask);
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}
}  // namespace

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads) {
  KLEX_REQUIRE(threads >= 0, "negative thread count");
  if (threads_ == 0) threads_ = usable_cpus();
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

// The artifact schema: one field list per record type (fields_of). An
// entry holds the JSON name, the member it reads (a member pointer, or a
// getter), how the field combines and when it is emitted. write_value
// emits a record's list in order (list order is key order), run_separate
// merges a batch's sessions by the merge rules and aggregate() folds runs
// into cells by the Aggregate list's reductions.
template <class Member, class Rule, class When>
struct Field {
  const char* name;
  Member member;
  Rule rule;
  When when;
};

/// Emit conditions: (record, monitored) -> emitted, where `monitored` is
/// is_monitored_spec() of the artifact's scenario.
constexpr auto always = [](const auto&, bool) { return true; };
constexpr auto never = [](const auto&, bool) { return false; };
constexpr auto if_monitored = [](const auto&, bool on) { return on; };
constexpr auto if_fleet = [](const auto& r, bool) { return r.fleet > 1; };
template <auto M>
constexpr auto if_true = [](const auto& r, bool) { return r.*M; };
template <auto M>
constexpr auto if_positive = [](const auto& r, bool) { return r.*M > 0; };
template <auto M>  // -1 = unset
constexpr auto if_set = [](const auto& r, bool) { return r.*M >= 0; };
template <auto M, auto V>
constexpr auto if_equal = [](const auto& r, bool) { return r.*M == V; };
template <auto M>
constexpr auto if_nonempty = [](const auto& r, bool) {
  return !(r.*M).empty();
};

/// Separate-fleet merge rules: fold one session's value into the batch's.
/// A field with none keeps session 0's value, or finish() derives it.
struct NoRule {};
constexpr NoRule none;
constexpr auto sum = [](auto& to, const auto& x) { to += x; };
constexpr auto max_of = [](auto& to, const auto& x) { to = std::max(to, x); };
constexpr auto all_of = [](bool& to, bool x) { to = to && x; };
constexpr auto append = [](auto& to, const auto& x) {
  to.insert(to.end(), x.begin(), x.end());
};
template <class Record>
void merge(Record& total, const Record& one);
// Parallel record arrays (a batch's class slices) merge slot by slot.
constexpr auto each = [](auto& to, const auto& x) {
  for (std::size_t i = 0; i < to.size(); ++i) merge(to[i], x[i]);
};

/// Cross-seed reductions of `source` over the runs `over` selects. kKey
/// fields group the runs into cells; kKey and kFirst fields are copied
/// from a cell's first run; a kMean divides by the runs it folded.
enum class Op { kKey, kFirst, kSum, kMean, kMax };
template <class Source, class Over>
struct Reduce {
  Op op;
  Source source;
  Over over;
};
template <class S>
constexpr Reduce<S, decltype(always)> key(S s) { return {Op::kKey, s, always}; }
template <class S>
constexpr Reduce<S, decltype(always)> first(S s) {
  return {Op::kFirst, s, always};
}
template <class S, class O = decltype(always)>
constexpr Reduce<S, O> total(S s, O o = always) { return {Op::kSum, s, o}; }
template <class S, class O = decltype(always)>
constexpr Reduce<S, O> mean(S s, O o = always) { return {Op::kMean, s, o}; }
template <class S, class O = decltype(always)>
constexpr Reduce<S, O> peak(S s, O o = always) { return {Op::kMax, s, o}; }
template <class O>
constexpr auto count(O o) {
  return total([](const RunResult&) { return 1; }, o);
}

template <class Member, class Rule = NoRule, class When = decltype(always)>
constexpr Field<Member, Rule, When> field(const char* name, Member member,
                                          Rule rule = {}, When when = always) {
  return {name, member, rule, when};
}
// A field whose JSON name is its member's name.
#define KLEX_FIELD(Record, member, ...) \
  field(#member, &Record::member __VA_OPT__(, ) __VA_ARGS__)

template <class Fields, class Visit>
void for_each_field(const Fields& fields, Visit visit) {
  std::apply([&visit](const auto&... f) { (visit(f), ...); }, fields);
}

// Getter of a nested member: path<&A::b, &B::c>(a) is a.b.c.
template <auto... Ms>
constexpr auto path = [](const auto& r) { return (r .* ... .* Ms); };
template <auto M>
constexpr auto per_event_sum = [](const RunResult& run) {
  double total = 0.0;
  for (const FaultEventResult& event : run.fault_events) {
    total += static_cast<double>(event.*M);
  }
  return total;
};
template <auto M>
constexpr auto names_of = [](const ScenarioSpec& spec) {
  std::vector<std::string> names;
  for (const auto& item : spec.*M) names.push_back(item.name());
  return names;
};

// A run's "engine" object.
constexpr auto fields_of(const sim::EngineStats&) {
  using E = sim::EngineStats;
  using S = sim::SchedulerCounters;
  return std::tuple{
      KLEX_FIELD(E, callbacks_scheduled), KLEX_FIELD(E, callback_slots_created),
      KLEX_FIELD(E, max_heap_size), KLEX_FIELD(E, in_flight_walks),
      KLEX_FIELD(E, chaos_dropped, none, if_monitored),
      KLEX_FIELD(E, chaos_duplicated, none, if_monitored),
      KLEX_FIELD(E, chaos_reordered, none, if_monitored),
      KLEX_FIELD(E, chaos_jittered, none, if_monitored),
      field("bucket_inserts", path<&E::scheduler, &S::bucket_inserts>),
      field("bucket_scans", path<&E::scheduler, &S::bucket_scans>),
      field("overflow_pushes", path<&E::scheduler, &S::overflow_pushes>),
      field("overflow_pops", path<&E::scheduler, &S::overflow_pops>),
      field("bucket_sorts", path<&E::scheduler, &S::bucket_sorts>),
      field("sorted_events", path<&E::scheduler, &S::sorted_events>),
      KLEX_FIELD(E, bucket_window)};
}

constexpr auto fields_of(const FaultEventResult&) {
  using E = FaultEventResult;
  constexpr auto if_chaos = if_true<&E::chaos>;
  return std::tuple{
      KLEX_FIELD(E, at), KLEX_FIELD(E, kind), KLEX_FIELD(E, links_changed),
      KLEX_FIELD(E, nodes_changed), KLEX_FIELD(E, detached),
      KLEX_FIELD(E, reattached), KLEX_FIELD(E, attached_nodes),
      KLEX_FIELD(E, parent_changes), KLEX_FIELD(E, stree_events),
      KLEX_FIELD(E, stree_time), KLEX_FIELD(E, repair_seed),
      KLEX_FIELD(E, recovered), KLEX_FIELD(E, recovery_time),
      KLEX_FIELD(E, recovery_events),
      KLEX_FIELD(E, chaos_dropped, none, if_chaos),
      KLEX_FIELD(E, chaos_duplicated, none, if_chaos),
      KLEX_FIELD(E, chaos_reordered, none, if_chaos),
      KLEX_FIELD(E, chaos_jittered, none, if_chaos),
      KLEX_FIELD(E, violations, none, if_chaos)};
}

constexpr auto fields_of(const ClassResult&) {
  using C = ClassResult;
  constexpr auto if_latency = if_positive<&C::latency_count>;
  return std::tuple{
      KLEX_FIELD(C, name), KLEX_FIELD(C, nodes, sum),
      KLEX_FIELD(C, requests, sum), KLEX_FIELD(C, grants, sum),
      KLEX_FIELD(C, holding_at_end, sum),
      KLEX_FIELD(C, latency_count, none, if_latency),
      field("grant_latency_p50", &C::latency_p50, none, if_latency),
      field("grant_latency_p99", &C::latency_p99, none, if_latency),
      field("grant_latency_p999", &C::latency_p999, none, if_latency)};
}

constexpr auto fields_of(const TenantResult&) {
  using T = TenantResult;
  return std::tuple{
      KLEX_FIELD(T, tenant), KLEX_FIELD(T, n), KLEX_FIELD(T, stabilized),
      KLEX_FIELD(T, stabilization_time, none, if_true<&T::stabilized>),
      KLEX_FIELD(T, requests), KLEX_FIELD(T, grants),
      KLEX_FIELD(T, events_executed), KLEX_FIELD(T, recovery_events),
      KLEX_FIELD(T, correct_at_end)};
}

constexpr auto fields_of(const RunResult&) {
  using R = RunResult;
  constexpr auto if_faulted = if_true<&R::fault_injected>;
  constexpr auto if_garbage = [](const R& r, bool) {
    return r.fault_injected && r.fault_garbage >= 0;
  };
  constexpr auto if_recovered = [](const R& r, bool) {
    return r.fault_injected && r.recovered;
  };
  constexpr auto if_fault_events = [](const R& r, bool) {
    return r.fault_injected && !r.fault_events.empty();
  };
  constexpr auto if_latency = if_positive<&R::latency_count>;
  return std::tuple{
      KLEX_FIELD(R, topology), KLEX_FIELD(R, features), KLEX_FIELD(R, n, sum),
      KLEX_FIELD(R, k), KLEX_FIELD(R, l), KLEX_FIELD(R, threads),
      KLEX_FIELD(R, fleet, none, if_fleet),
      KLEX_FIELD(R, fleet_mode, none, if_fleet),
      KLEX_FIELD(R, policy, none, if_nonempty<&R::policy>),
      KLEX_FIELD(R, seed), KLEX_FIELD(R, stabilized, all_of),
      KLEX_FIELD(R, stabilization_time, max_of, if_true<&R::stabilized>),
      KLEX_FIELD(R, fault_garbage, none, if_garbage),
      KLEX_FIELD(R, recovered, none, if_faulted),
      KLEX_FIELD(R, recovery_time, none, if_recovered),
      KLEX_FIELD(R, recovery_events, none, if_recovered),
      KLEX_FIELD(R, recovery_wall_seconds, none, if_recovered),
      KLEX_FIELD(R, fault_events, none, if_fault_events),
      KLEX_FIELD(R, grants, sum), KLEX_FIELD(R, requests, sum),
      KLEX_FIELD(R, grants_per_mtick), KLEX_FIELD(R, outstanding_at_end, sum),
      KLEX_FIELD(R, quiescent_at_end, all_of),
      KLEX_FIELD(R, classes, each, if_nonempty<&R::classes>),
      KLEX_FIELD(R, tenants, append, if_nonempty<&R::tenants>),
      KLEX_FIELD(R, mean_wait_entries), KLEX_FIELD(R, max_wait_entries),
      KLEX_FIELD(R, p99_wait_entries),
      KLEX_FIELD(R, latency_count, none, if_latency),
      field("grant_latency_p50", &R::latency_p50, none, if_latency),
      field("grant_latency_p99", &R::latency_p99, none, if_latency),
      field("grant_latency_p999", &R::latency_p999, none, if_latency),
      KLEX_FIELD(R, messages_per_grant), KLEX_FIELD(R, control_messages, sum),
      KLEX_FIELD(R, resource_messages, sum),
      KLEX_FIELD(R, pusher_messages, sum),
      KLEX_FIELD(R, priority_messages, sum), KLEX_FIELD(R, safety_ok, all_of),
      KLEX_FIELD(R, safety_violations, sum, if_monitored),
      KLEX_FIELD(R, last_violation_time, max_of, if_monitored),
      KLEX_FIELD(R, liveness_stalls, sum, if_monitored),
      KLEX_FIELD(R, fault_phase_violations, sum, if_monitored),
      KLEX_FIELD(R, events_executed, sum), KLEX_FIELD(R, wall_seconds, sum),
      KLEX_FIELD(R, events_per_sec), field("engine", &R::engine_stats, sum)};
}

constexpr auto fields_of(const Aggregate&) {
  using A = Aggregate;
  using R = RunResult;
  using F = FaultEventResult;
  using S = sim::EngineStats;
  constexpr auto stabilized = if_true<&R::stabilized>;
  constexpr auto recovered = if_true<&R::recovered>;
  constexpr auto has_latency = if_positive<&R::latency_count>;
  constexpr auto fault_events = [](const R& r) {
    return r.fault_events.size();
  };
  constexpr auto if_latency = if_positive<&A::latency_runs>;
  constexpr auto if_fault_events = if_positive<&A::mean_fault_events>;
  return std::tuple{
      KLEX_FIELD(A, topology, key(&R::topology)),
      KLEX_FIELD(A, features, key(&R::features)),
      KLEX_FIELD(A, k, key(&R::k)), KLEX_FIELD(A, l, key(&R::l)),
      KLEX_FIELD(A, fault_garbage, key(&R::fault_garbage),
                 if_set<&A::fault_garbage>),
      KLEX_FIELD(A, threads, key(&R::threads)),
      KLEX_FIELD(A, fleet, key(&R::fleet), if_fleet),
      KLEX_FIELD(A, fleet_mode, key(&R::fleet_mode), if_fleet),
      KLEX_FIELD(A, policy, key(&R::policy), if_nonempty<&A::policy>),
      KLEX_FIELD(A, n, first(&R::n)), KLEX_FIELD(A, runs, count(always)),
      KLEX_FIELD(A, stabilized_runs, count(stabilized)),
      KLEX_FIELD(A, safe_runs, total(&R::safety_ok)),
      KLEX_FIELD(A, recovered_runs, count(recovered)),
      KLEX_FIELD(A, latency_runs, count(has_latency), never),
      KLEX_FIELD(A, mean_stabilization_time,
                 mean(&R::stabilization_time, stabilized)),
      KLEX_FIELD(A, max_stabilization_time,
                 peak(&R::stabilization_time, stabilized)),
      KLEX_FIELD(A, mean_recovery_time, mean(&R::recovery_time, recovered)),
      KLEX_FIELD(A, max_recovery_time, peak(&R::recovery_time, recovered)),
      KLEX_FIELD(A, mean_recovery_events, mean(&R::recovery_events, recovered)),
      KLEX_FIELD(A, mean_recovery_wall_seconds,
                 mean(&R::recovery_wall_seconds, recovered)),
      KLEX_FIELD(A, mean_wall_seconds, mean(&R::wall_seconds)),
      KLEX_FIELD(A, mean_grants_per_mtick, mean(&R::grants_per_mtick)),
      KLEX_FIELD(A, mean_wait_entries, mean(&R::mean_wait_entries)),
      KLEX_FIELD(A, max_wait_entries, peak(&R::max_wait_entries)),
      field("mean_grant_latency_p50", &A::mean_latency_p50,
            mean(&R::latency_p50, has_latency), if_latency),
      field("mean_grant_latency_p99", &A::mean_latency_p99,
            mean(&R::latency_p99, has_latency), if_latency),
      field("mean_grant_latency_p999", &A::mean_latency_p999,
            mean(&R::latency_p999, has_latency), if_latency),
      KLEX_FIELD(A, mean_messages_per_grant, mean(&R::messages_per_grant)),
      KLEX_FIELD(A, mean_outstanding_at_end, mean(&R::outstanding_at_end)),
      KLEX_FIELD(A, total_events_per_sec, total(&R::events_per_sec)),
      KLEX_FIELD(A, mean_fault_events, mean(fault_events), if_fault_events),
      KLEX_FIELD(A, mean_parent_changes,
                 mean(per_event_sum<&F::parent_changes>), if_fault_events),
      KLEX_FIELD(A, mean_stree_events, mean(per_event_sum<&F::stree_events>),
                 if_fault_events),
      KLEX_FIELD(A, mean_chaos_dropped,
                 mean(path<&R::engine_stats, &S::chaos_dropped>), if_monitored),
      KLEX_FIELD(A, mean_chaos_duplicated,
                 mean(path<&R::engine_stats, &S::chaos_duplicated>),
                 if_monitored),
      KLEX_FIELD(A, mean_chaos_reordered,
                 mean(path<&R::engine_stats, &S::chaos_reordered>),
                 if_monitored),
      KLEX_FIELD(A, mean_chaos_jittered,
                 mean(path<&R::engine_stats, &S::chaos_jittered>),
                 if_monitored),
      KLEX_FIELD(A, mean_fault_phase_violations,
                 mean(&R::fault_phase_violations), if_monitored),
      KLEX_FIELD(A, mean_liveness_stalls, mean(&R::liveness_stalls),
                 if_monitored)};
}

// The "spec" object: the scenario as run, replayable from the artifact.
constexpr auto fields_of(const ScenarioSpec&) {
  using S = ScenarioSpec;
  // The fleet axis only when the scenario sweeps it.
  constexpr auto if_fleet_grid = [](const S& s, bool) {
    return s.fleet != std::vector<int>{1} || s.fleet_compare_separate;
  };
  constexpr auto fault = [](const S& s) { return to_string(s.fault); };
  constexpr auto fault_plan = [](const S& s) -> const auto& {
    return s.fault_plan.events;
  };
  return std::tuple{
      KLEX_FIELD(S, note, none, if_nonempty<&S::note>),
      field("topologies", names_of<&S::topologies>),
      field("features", names_of<&S::features>), KLEX_FIELD(S, kl),
      KLEX_FIELD(S, cmax), KLEX_FIELD(S, delays), KLEX_FIELD(S, threads),
      KLEX_FIELD(S, fleet, none, if_fleet_grid),
      KLEX_FIELD(S, fleet_compare_separate, none, if_fleet_grid),
      KLEX_FIELD(S, seed_tokens), KLEX_FIELD(S, spread_tokens),
      KLEX_FIELD(S, workload), KLEX_FIELD(S, warmup), KLEX_FIELD(S, horizon),
      KLEX_FIELD(S, stabilize_deadline), KLEX_FIELD(S, beacon_period),
      field("fault", fault),
      field("fault_plan", fault_plan, none, if_nonempty<&S::fault_plan>),
      KLEX_FIELD(S, chaos, none, if_monitored),
      KLEX_FIELD(S, stall_threshold, none, if_monitored),
      KLEX_FIELD(S, policies, none, if_nonempty<&S::policies>),
      KLEX_FIELD(S, fault_garbage), KLEX_FIELD(S, seeds),
      KLEX_FIELD(S, base_seed)};
}

// One (k, l) pair of the spec's "kl" axis.
constexpr auto fields_of(const std::pair<int, int>&) {
  using P = std::pair<int, int>;
  return std::tuple{field("k", &P::first), field("l", &P::second)};
}

constexpr auto fields_of(const sim::DelayModel&) {
  using D = sim::DelayModel;
  return std::tuple{field("min", &D::min_delay), field("max", &D::max_delay)};
}

constexpr auto fields_of(const proto::WorkloadSpec&) {
  using W = proto::WorkloadSpec;
  return std::tuple{KLEX_FIELD(W, base), KLEX_FIELD(W, classes)};
}

constexpr auto fields_of(const proto::BehaviorClass&) {
  using C = proto::BehaviorClass;
  // Explicit nodes win over a count, a count over a fraction.
  constexpr auto if_count = [](const C& c, bool) {
    return c.nodes.empty() && c.count >= 0;
  };
  constexpr auto if_fraction = [](const C& c, bool) {
    return c.nodes.empty() && c.count < 0;
  };
  return std::tuple{KLEX_FIELD(C, name),
                    KLEX_FIELD(C, nodes, none, if_nonempty<&C::nodes>),
                    KLEX_FIELD(C, count, none, if_count),
                    KLEX_FIELD(C, fraction, none, if_fraction),
                    KLEX_FIELD(C, behavior)};
}

constexpr auto fields_of(const proto::NodeBehavior&) {
  using B = proto::NodeBehavior;
  return std::tuple{
      KLEX_FIELD(B, active), KLEX_FIELD(B, hold_forever), KLEX_FIELD(B, think),
      KLEX_FIELD(B, cs_duration), KLEX_FIELD(B, need),
      KLEX_FIELD(B, max_requests, none, if_set<&B::max_requests>)};
}

constexpr auto fields_of(const proto::Dist&) {
  using D = proto::Dist;
  using enum D::Kind;
  constexpr auto kind = [](const D& d) {
    return d.kind == kFixed ? "fixed"
           : d.kind == kUniform ? "uniform"
                                : "exponential";
  };
  return std::tuple{
      field("kind", kind),
      field("value", &D::a, none, if_equal<&D::kind, kFixed>),
      field("lo", &D::a, none, if_equal<&D::kind, kUniform>),
      field("hi", &D::b, none, if_equal<&D::kind, kUniform>),
      field("mean", &D::a, none, if_equal<&D::kind, kExponential>)};
}

constexpr auto fields_of(const FaultEvent&) {
  using E = FaultEvent;
  constexpr auto kind = [](const E& e) { return to_string(e.kind); };
  constexpr auto links = [](const E& e) {
    std::vector<std::array<int, 2>> pairs;
    for (const auto& [a, b] : e.links) pairs.push_back({a, b});
    return pairs;
  };
  constexpr auto if_burst = if_equal<&E::kind, FaultKind::kChaosBurst>;
  return std::tuple{
      KLEX_FIELD(E, at), field("kind", kind), KLEX_FIELD(E, count),
      KLEX_FIELD(E, restore),
      field("links", links, none, if_nonempty<&E::links>),
      KLEX_FIELD(E, nodes, none, if_nonempty<&E::nodes>),
      KLEX_FIELD(E, garbage, none, if_set<&E::garbage>),
      KLEX_FIELD(E, duration, none, if_burst),
      KLEX_FIELD(E, chaos, none, if_burst)};
}

constexpr auto fields_of(const sim::ChaosConfig&) {
  using C = sim::ChaosConfig;
  return std::tuple{
      KLEX_FIELD(C, drop_p), KLEX_FIELD(C, dup_p), KLEX_FIELD(C, reorder_p),
      KLEX_FIELD(C, reorder_window), KLEX_FIELD(C, reorder_flush_delay),
      KLEX_FIELD(C, jitter)};
}

constexpr auto fields_of(const ScenarioSpec::PolicyVariant&) {
  using P = ScenarioSpec::PolicyVariant;
  return std::tuple{
      KLEX_FIELD(P, label), KLEX_FIELD(P, retry), KLEX_FIELD(P, admission),
      KLEX_FIELD(P, chaos, none, if_true<&P::override_chaos>)};
}

constexpr auto fields_of(const proto::RetryPolicy&) {
  using P = proto::RetryPolicy;
  return std::tuple{
      KLEX_FIELD(P, backoff_base), KLEX_FIELD(P, backoff_cap_exponent),
      KLEX_FIELD(P, jitter), KLEX_FIELD(P, max_attempts),
      KLEX_FIELD(P, retry_budget), KLEX_FIELD(P, deadline)};
}

constexpr auto fields_of(const proto::AdmissionPolicy&) {
  using P = proto::AdmissionPolicy;
  return std::tuple{KLEX_FIELD(P, max_waiting),
                    KLEX_FIELD(P, max_outstanding_need)};
}
#undef KLEX_FIELD

template <class Record>
void merge(Record& total, const Record& one) {
  for_each_field(fields_of(total), [&](const auto& f) {
    if constexpr (!std::is_same_v<std::decay_t<decltype(f.rule)>, NoRule>) {
      f.rule(total.*f.member, one.*f.member);
    }
  });
}

/// Writes a scalar, an array, or a record through its field list.
template <class T>
void write_value(support::JsonWriter& json, const T& value, bool monitored) {
  if constexpr (requires { json.value(value); }) {
    json.value(value);
  } else if constexpr (requires { value.begin(); }) {
    json.begin_array();
    for (const auto& item : value) write_value(json, item, monitored);
    json.end_array();
  } else {
    json.begin_object();
    for_each_field(fields_of(value), [&](const auto& f) {
      if (!f.when(value, monitored)) return;
      write_value(json.key(f.name), std::invoke(f.member, value), monitored);
    });
    json.end_object();
  }
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
  builder.fleet(point.fleet);
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
/// totals. Every session reads out per tenant (a plain system is tenant
/// 0 of one); a fleet point (point.fleet > 1) builds one multi-tenant
/// system, and its only fleet-specific step is aiming the fault at
/// tenant 0. With `faulted` false the session skips the fault phase. The
/// warmup starts where stabilization detection left the clock or at
/// `settle_from`, whichever is later.
SessionRun run_session(const ScenarioSpec& spec, const RunPoint& point,
                       bool faulted, sim::SimTime settle_from = 0) {
  Session session = point_builder(spec, point, faulted).build_session();
  SystemBase& system = *session.system;
  WorkloadDriver& driver = *session.driver;
  SessionRun run;
  RunResult& result = run.result;
  result.n = system.n();
  const int tenants = system.tenant_count();

  // The wall clock starts after construction so events_per_sec measures
  // the exclusion engine only (GraphSystem's constructor simulates a
  // whole spanning-tree engine that is invisible to engine().stats()).
  auto wall_start = std::chrono::steady_clock::now();

  // Each tenant is its own waiting-time scope: a wait counts the CS
  // entries of the requester's own protocol instance only.
  std::vector<int> scope_of_node(static_cast<std::size_t>(result.n));
  for (int t = 0; t < tenants; ++t) {
    for (NodeId node = system.node_begin(t); node < system.node_end(t);
         ++node) {
      scope_of_node[static_cast<std::size_t>(node)] = t;
    }
  }
  stats::WaitingTimeTracker waits(std::move(scope_of_node));
  // System-wide bounds: k is the max per-node need, l the tenants' total
  // population.
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

  // Phase 2: closed-loop workload over the measurement window. Per-class
  // slices in class order, then the "base" cell for nodes that fell
  // through to the base behavior.
  if (!spec.workload.classes.empty()) {
    result.classes.resize(spec.workload.classes.size() + 1);
    run.class_latency.resize(result.classes.size());
    for (std::size_t c = 0; c < spec.workload.classes.size(); ++c) {
      result.classes[c].name = spec.workload.classes[c].name;
    }
    result.classes.back().name = "base";
  }
  auto class_slot = [&](NodeId node) {
    int cls = session.workload.class_index[static_cast<std::size_t>(node)];
    return cls >= 0 ? static_cast<std::size_t>(cls)
                    : spec.workload.classes.size();
  };
  // The window's grant latencies, binned as they happen (the driver
  // keeps no per-grant samples).
  driver.set_latency_recorder([&](NodeId node, sim::SimTime latency) {
    const double ticks = static_cast<double>(latency);
    run.latency.add(ticks);
    if (!run.class_latency.empty()) {
      run.class_latency[class_slot(node)].add(ticks);
    }
  });
  session.begin_workload();
  waits.reset_samples();
  const std::uint64_t resource_before = sent_of(TokenType::kResource);
  const std::uint64_t pusher_before = sent_of(TokenType::kPusher);
  const std::uint64_t priority_before = sent_of(TokenType::kPriority);
  const std::uint64_t control_before = sent_of(TokenType::kControl);
  sim::SimTime window_start = system.engine().now();
  std::uint64_t events_before = system.engine().events_executed();
  system.run_until(window_start + spec.horizon);
  driver.set_latency_recorder(nullptr);

  result.grants = driver.total_grants();
  result.requests = driver.total_requests();
  result.outstanding_at_end = driver.outstanding();
  result.quiescent_at_end =
      system.engine().next_event_time() == sim::kTimeInfinity;
  for (NodeId node = 0; node < result.n && !result.classes.empty(); ++node) {
    ClassResult& cell = result.classes[class_slot(node)];
    ++cell.nodes;
    cell.requests += driver.requests_issued(node);
    cell.grants += driver.grants(node);
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
    cell.n = system.tenant_n(t);
    const sim::SimTime since = system.tenant_stabilized_at(t);
    cell.stabilized = since != sim::kTimeInfinity;
    cell.stabilization_time = cell.stabilized ? since : 0;
    for (NodeId node = system.node_begin(t); node < system.node_end(t);
         ++node) {
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
      if (tenants > 1) {
        // A fleet's fault corrupts tenant 0 alone: the other tenants'
        // slices exhibit fault isolation.
        system.inject_transient_fault_tenant(0, fault_rng, event.garbage);
        if (system.params().features.epoch_cut) {
          system.epoch_cut_recover_tenant(0);  // no-op if the fault missed
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
    cell.events_executed = system.tenant_events_executed(t);
    cell.recovery_events = system.tenant_recovery_events(t);
    cell.correct_at_end = system.tenant_correct(t);
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
    merge(batch.result, run.result);
    batch.waits.merge(run.waits);
    batch.latency.merge(run.latency);
    for (std::size_t c = 0; c < batch.class_latency.size(); ++c) {
      batch.class_latency[c].merge(run.class_latency[c]);
    }
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
  // Groups the runs by the key fields, in first-appearance order, then
  // folds every field of a cell over its runs.
  const auto fields = fields_of(Aggregate{});
  std::vector<std::vector<const RunResult*>> cells;
  for (const RunResult& run : results) {
    auto same_cell = [&](const std::vector<const RunResult*>& cell) {
      bool same = true;
      for_each_field(fields, [&](const auto& f) {
        same = same && (f.rule.op != Op::kKey ||
                        std::invoke(f.rule.source, *cell.front()) ==
                            std::invoke(f.rule.source, run));
      });
      return same;
    };
    auto cell = std::find_if(cells.begin(), cells.end(), same_cell);
    if (cell == cells.end()) cell = cells.emplace(cells.end());
    cell->push_back(&run);
  }
  std::vector<Aggregate> aggregates(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for_each_field(fields, [&](const auto& f) {
      auto& value = aggregates[c].*f.member;
      using T = std::decay_t<decltype(value)>;
      int folded = 0;
      for (const RunResult* run : cells[c]) {
        if (!f.rule.over(*run, false)) continue;
        const T x = static_cast<T>(std::invoke(f.rule.source, *run));
        switch (f.rule.op) {
          case Op::kMax: value = std::max(value, x); break;
          case Op::kSum: case Op::kMean: value += x; break;
          default: if (folded == 0) value = x;  // kKey, kFirst
        }
        ++folded;
      }
      if constexpr (std::is_floating_point_v<T>) {
        if (f.rule.op == Op::kMean && folded > 0) value /= folded;
      }
    });
  }
  return aggregates;
}

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results) {
  write_json(out, spec, results, ExperimentRunner::aggregate(results));
}

void write_json(std::ostream& out, const ScenarioSpec& spec,
                const std::vector<RunResult>& results,
                const std::vector<Aggregate>& aggregates) {
  const bool monitored = is_monitored_spec(spec);
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);
  write_value(json.key("spec"), spec, monitored);
  write_value(json.key("runs"), results, monitored);
  write_value(json.key("aggregates"), aggregates, monitored);
  json.end_object();
  out << '\n';
}

void write_scenario_json(std::ostream& out, const ScenarioSpec& spec) {
  support::JsonWriter json(out);
  json.begin_object();
  json.field("scenario", spec.name);
  write_value(json.key("spec"), spec, is_monitored_spec(spec));
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
