// The phase pipeline of one benchmark repetition:
//
//   build -> stabilize -> warm-up -> measure -> (fault probe)
//
// Every phase is a host-time span; set-up (build + stabilize + warm-up)
// is what setup_s reports. Boot stabilization is confirmed over at least
// two controller circulations, 4 (n - 1) max_delay ticks: a shorter
// window accepts the pristine boot at t ~ 0, before the root's first
// controller wave has bounced off the members and minted a second token
// population.
//
// The traced variant drives the measured window from outside the engine:
// at P = 1 it steps the engine one event at a time and classes each step
// by the counter deltas it caused; at P > 1 it replays ParallelEngine's
// window loop one lane after another, timing every lane slice and every
// barrier. Both execute exactly the untraced trajectory, which the caller
// checks by comparing the simulated results of the two runs.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "api/builder.hpp"
#include "bench.hpp"
#include "sim/parallel_engine.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "verify/safety_monitor.hpp"

namespace klexbench {

namespace {

using Clock = std::chrono::steady_clock;
using klex::sim::kTimeInfinity;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Independent input streams derived from the run seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kSystemSalt = 1;
constexpr std::uint64_t kClientSalt = 2;

// The random trees have one fixed shape (TopologySpec::tree_random's own
// seed), so seeds vary delays and client traffic, not the tree.
constexpr int kTreeShape = 5;
// What a transient fault writes into processes and channels is a fixed
// adversary, the same for every run seed. About half of all corruptions
// throw faults_recovery into a ~25x message storm until the reset; drawn
// from the run seed, that makes per-seed recovery cost bimodal. This
// stream's first five transients are one storm and four ordinary faults
// on every seed, so seeds vary only the traffic the damage lands on.
constexpr std::uint64_t kAdversarySeed = 36;

constexpr SimTime kStabilizeDeadline = 200'000'000;
// Confirmation window = kConfirmRounds x (n - 1) x max_delay ticks.
constexpr int kConfirmRounds = 4;
// p999 needs at least ten samples beyond it.
constexpr std::size_t kMinLatencySamples = 10'000;
// The measured window is timed in this many equal slices of simulated
// time. A slice does the same work in every repetition of one seed, so a
// run can keep each slice's fastest repetition (main.cpp).
constexpr int kWindowSlices = 256;

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  klex::support::Histogram histogram;
  for (double value : values) histogram.add(value);
  return histogram.quantile(q);
}

/// Host-time phase spans, relative to the start of the repetition.
class Phases {
 public:
  int begin(std::string name, int parent = -1) {
    spans_.push_back(Span{std::move(name), parent, elapsed(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its length in seconds.
  double end(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = elapsed();
    return span.end_s - span.start_s;
  }
  double elapsed() const { return seconds_between(origin_, Clock::now()); }
  double top_level_s() const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.parent < 0) total += span.end_s - span.start_s;
    }
    return total;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Controller circulations, resets and minted tokens, counted through a
/// benchmark-owned listener. Only root processes make these upcalls, so a
/// single lane ever writes the counters.
class ProtoCounters final : public klex::proto::Listener {
 public:
  void on_circulation_end(int /*resource*/, int /*pusher*/, int /*priority*/,
                          bool reset_decided, SimTime /*at*/) override {
    ++circulations;
    if (reset_decided) ++resets;
  }
  void on_tokens_minted(std::int32_t /*type*/, int count,
                        SimTime /*at*/) override {
    minted += static_cast<std::uint64_t>(count);
  }

  std::uint64_t circulations = 0;
  std::uint64_t resets = 0;
  std::uint64_t minted = 0;
};

/// Advances the engine inside the measured window: SystemBase::run_until
/// untraced, or the same trajectory driven and timed from outside.
class WindowDriver {
 public:
  enum StepClass { kDelivery, kCallback, kOther, kStepClasses };

  explicit WindowDriver(klex::SystemBase& system) : system_(system) {}

  bool traced() const { return traced_; }
  void set_traced(bool on) { traced_ = on; }

  void run_until(SimTime t) {
    if (!traced_) {
      system_.run_until(t);
    } else if (system_.threads() > 1) {
      windowed(t);
    } else {
      stepped(t);
    }
  }

  // Traced P = 1: events and host seconds per step class.
  std::array<std::uint64_t, kStepClasses> steps{};
  std::array<double, kStepClasses> step_s{};
  // Traced P > 1: the parts of the window loop.
  std::uint64_t windows = 0;
  std::uint64_t fallbacks = 0;
  double lane_busy_s = 0.0;
  double critical_path_s = 0.0;
  double merge_s = 0.0;

 private:
  void stepped(SimTime t);
  void windowed(SimTime t);

  klex::SystemBase& system_;
  bool traced_ = false;
};

void WindowDriver::stepped(SimTime t) {
  klex::sim::Engine& engine = system_.engine();
  engine.start();
  std::uint64_t delivered = engine.messages_delivered();
  std::uint64_t pending = engine.pending_callbacks();
  std::uint64_t scheduled = engine.stats().callbacks_scheduled;
  Clock::time_point before = Clock::now();
  while (engine.next_event_time() <= t) {
    engine.step();
    const std::uint64_t delivered_now = engine.messages_delivered();
    const std::uint64_t pending_now = engine.pending_callbacks();
    const std::uint64_t scheduled_now = engine.stats().callbacks_scheduled;
    // A callback event retires one pending callback net of the ones it
    // schedules; a delivery moves the delivered counter.
    StepClass cls = kOther;
    if (delivered_now != delivered) {
      cls = kDelivery;
    } else if (pending_now + 1 == pending + (scheduled_now - scheduled)) {
      cls = kCallback;
    }
    const Clock::time_point after = Clock::now();
    ++steps[cls];
    step_s[cls] += seconds_between(before, after);
    before = after;
    delivered = delivered_now;
    pending = pending_now;
    scheduled = scheduled_now;
  }
  system_.run_until(t);  // nothing is left at or before t: clocks only
}

void WindowDriver::windowed(SimTime t) {
  // ParallelEngine::run_until with the lanes run one after another on
  // this thread, so every slice is timed alone.
  klex::sim::Engine& engine = system_.engine();
  engine.start();
  const SimTime lookahead = engine.delay_model().min_delay;
  const bool observers_block = engine.has_blocking_observers();
  for (;;) {
    if (observers_block || engine.pending_callbacks() > 0) {
      ++fallbacks;
      engine.run_until(t);
      return;
    }
    const SimTime start = engine.next_event_time();
    if (start > t) break;
    const SimTime last = std::min(start + lookahead - 1, t);
    const Clock::time_point opened = Clock::now();
    engine.begin_window(start);
    Clock::time_point mark = Clock::now();
    merge_s += seconds_between(opened, mark);
    double slowest = 0.0;
    for (int lane = 0; lane < engine.lane_count(); ++lane) {
      engine.run_lane_window(lane, last);
      const Clock::time_point done = Clock::now();
      const double slice = seconds_between(mark, done);
      lane_busy_s += slice;
      slowest = std::max(slowest, slice);
      mark = done;
    }
    engine.end_window();
    merge_s += seconds_between(mark, Clock::now());
    critical_path_s += slowest;
    ++windows;
  }
  engine.sync_lanes_to(t);
}

const char* const kTokenNames[] = {"", "resource", "pusher", "priority",
                                   "control"};

}  // namespace

RepResult run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  RepResult out;
  std::map<std::string, double>& sim = out.sim;
  std::map<std::string, double>& host = out.host;
  Phases phases;

  // -- build ------------------------------------------------------------------
  int span = phases.begin("build");
  klex::SystemBuilder builder;
  if (w.random_n > 0) {
    builder.topology(klex::TopologySpec::tree_random(w.random_n, kTreeShape));
  } else {
    builder.topology(klex::TopologySpec::tree_balanced(w.arity, w.height));
  }
  builder.kl(w.k, w.l)
      .delays(w.delays)
      .threads(w.threads)
      .spread_tokens(w.spread_tokens)
      .seed(derive(seed, kSystemSalt));
  if (w.tenants > 0) builder.fleet(w.tenants);
  if (w.clients == ClientModel::kClosedLoop) {
    klex::proto::WorkloadSpec spec;
    spec.base = w.closed;
    builder.workload(spec);
  }
  if (!w.faults.empty()) builder.fault_plan(klex::FaultPlan{w.faults});
  klex::Session session = builder.build_session();
  klex::SystemBase& system = *session.system;
  klex::sim::Engine& engine = system.engine();
  const int n = system.n();

  klex::verify::SafetyMonitor monitor(n, system.k(), system.l());
  system.add_listener(&monitor);
  if (w.stall_threshold > 0) monitor.set_stall_threshold(w.stall_threshold);
  // Lane threads call listeners concurrently inside windows; a monitor
  // that watches the engine buffers per lane instead of sharing state.
  if (w.stall_threshold > 0 || system.threads() > 1) monitor.watch(engine);
  GrantLatency latency(n);
  if (w.clients != ClientModel::kOpenLoop) system.add_listener(&latency);
  ProtoCounters proto;
  if (traced) system.add_listener(&proto);
  std::unique_ptr<EpochClients> epoch;
  std::unique_ptr<OpenLoop> open;
  if (w.clients == ClientModel::kEpoch) {
    epoch = std::make_unique<EpochClients>(system, w.epoch_arrivals,
                                           derive(seed, kClientSalt));
  } else if (w.clients == ClientModel::kOpenLoop) {
    open = std::make_unique<OpenLoop>(system, w.open,
                                      derive(seed, kClientSalt));
  }
  host["api.build_s"] = phases.end(span);

  // -- stabilize ----------------------------------------------------------------
  const int unit_n = w.tenants > 0 ? n / w.tenants : n;
  const SimTime confirm_poll =
      static_cast<SimTime>(unit_n - 1) * w.delays.max_delay;
  span = phases.begin("stabilize");
  const SimTime stabilized = system.run_until_stabilized(
      kStabilizeDeadline, confirm_poll, kConfirmRounds);
  host["api.stabilize_s"] = phases.end(span);
  if (stabilized == kTimeInfinity) {
    out.failures.push_back("the boot configuration never stabilized");
    out.spans = phases.take();
    return out;
  }
  sim["bench.stabilized_at_ticks"] = static_cast<double>(stabilized);

  // -- warm-up ------------------------------------------------------------------
  WindowDriver driver(system);
  SimTime next_boundary = kTimeInfinity;  // epoch clients only
  double boundary_s = 0.0;
  auto advance = [&](SimTime t) {
    while (next_boundary <= t) {
      driver.run_until(next_boundary);
      const Clock::time_point before = Clock::now();
      epoch->boundary();
      boundary_s += seconds_between(before, Clock::now());
      next_boundary += w.epoch;
    }
    driver.run_until(t);
  };
  span = phases.begin("warmup");
  switch (w.clients) {
    case ClientModel::kClosedLoop:
      session.begin_workload();
      break;
    case ClientModel::kEpoch:
      next_boundary = engine.now();
      break;
    case ClientModel::kOpenLoop:
      open->start();
      break;
  }
  advance(engine.now() + w.warmup);
  host["bench.warmup_s"] = phases.end(span);
  host["setup_s"] = phases.elapsed();

  // -- faults (inside the window or as a probe after it) -------------------------
  std::vector<double> recovery_ticks;
  std::vector<double> recovery_events;
  std::vector<double> recovery_ms;
  std::vector<double> apply_ms;
  std::vector<double> burst_ticks;
  std::int64_t fault_violations = 0;
  int unrecovered = 0;
  double fault_s = 0.0;
  std::vector<double> fault_event_s;  // each fault until the next one
  klex::support::Rng fault_rng(kAdversarySeed);
  auto run_faults = [&](int parent) {
    for (const klex::FaultEvent& event : w.faults) {
      const Clock::time_point event_start = Clock::now();
      const SimTime fault_at = engine.now();
      const std::uint64_t events_before = engine.events_executed();
      const std::int64_t violations_before = monitor.violation_count();
      const bool was_traced = driver.traced();
      driver.set_traced(false);
      const int apply = phases.begin(
          std::string("fault.") + klex::to_string(event.kind), parent);
      session.apply_fault_event(event, fault_rng);
      if (event.kind == klex::FaultKind::kTransient) {
        monitor.forget();  // corruption invalidated who holds what
        if (session.driver == nullptr) system.clients().resync();
      }
      const double apply_s = phases.end(apply);
      const int recovery = phases.begin("recovery", parent);
      if (event.kind == klex::FaultKind::kChaosBurst) {
        advance(fault_at + event.duration);
      }
      const SimTime recovered = system.run_until_stabilized(
          fault_at + w.recovery_deadline, confirm_poll, kConfirmRounds);
      const double recovery_s = phases.end(recovery);
      driver.set_traced(was_traced);
      fault_s += apply_s + recovery_s;
      apply_ms.push_back(apply_s * 1e3);
      fault_violations += monitor.violation_count() - violations_before;
      if (recovered == kTimeInfinity) {
        ++unrecovered;
      } else if (event.kind == klex::FaultKind::kChaosBurst) {
        burst_ticks.push_back(static_cast<double>(recovered - fault_at));
      } else {
        recovery_ticks.push_back(static_cast<double>(recovered - fault_at));
        recovery_events.push_back(
            static_cast<double>(engine.events_executed() - events_before));
        recovery_ms.push_back((apply_s + recovery_s) * 1e3);
      }
      advance(fault_at + w.fault_cycle);
      fault_event_s.push_back(seconds_between(event_start, Clock::now()));
    }
  };

  // -- measure ------------------------------------------------------------------
  const SimTime window_start = engine.now();
  latency.open_window(window_start, kTimeInfinity);
  if (open) open->open_window(window_start, kTimeInfinity);
  const klex::sim::EngineStats before = engine.stats();
  const std::uint64_t pending_before = engine.pending_callbacks();
  std::array<std::uint64_t, 5> sent_before{};
  for (std::int32_t type = 1; type <= 4; ++type) {
    sent_before[static_cast<std::size_t>(type)] = engine.sent_of_type(type);
  }
  const klex::sim::ParallelEngine* parallel = system.parallel_engine();
  const klex::sim::ParallelEngine::WindowStats windows_before =
      parallel != nullptr ? parallel->window_stats()
                          : klex::sim::ParallelEngine::WindowStats{};
  std::array<std::int64_t, klex::kDenyReasonCount> denied_before{};
  std::int64_t acquires_before = 0;
  if (session.driver != nullptr) {
    for (int r = 0; r < klex::kDenyReasonCount; ++r) {
      denied_before[static_cast<std::size_t>(r)] =
          session.driver->deny_count(static_cast<klex::DenyReason>(r));
    }
    acquires_before = session.driver->total_requests();
  } else if (epoch) {
    acquires_before = static_cast<std::int64_t>(epoch->acquires());
  } else if (open) {
    acquires_before = static_cast<std::int64_t>(open->acquires());
  }
  boundary_s = 0.0;

  span = phases.begin("measure");
  driver.set_traced(traced);
  Clock::time_point slice_start = Clock::now();
  for (int slice = 1; slice <= kWindowSlices; ++slice) {
    advance(window_start + w.steady * slice / kWindowSlices);
    const Clock::time_point slice_end = Clock::now();
    out.window_slices_s.push_back(seconds_between(slice_start, slice_end));
    slice_start = slice_end;
  }
  if (w.faults_in_window) {
    run_faults(span);
    out.window_slices_s.insert(out.window_slices_s.end(),
                               fault_event_s.begin(), fault_event_s.end());
  }
  driver.set_traced(false);
  const SimTime window_end = engine.now();
  const double measure_s = phases.end(span);
  host["measure_wall_s"] = measure_s;
  latency.open_window(window_start, window_end);
  if (open) open->open_window(window_start, window_end);
  next_boundary = kTimeInfinity;  // batch clients stop with the window
  const double window_fault_s = fault_s;
  const double window_boundary_s = boundary_s;
  const bool tokens_correct = system.token_counts_correct();

  const klex::sim::EngineStats after = engine.stats();
  const auto pending_delta = static_cast<std::int64_t>(
      engine.pending_callbacks() - pending_before);
  const double events =
      static_cast<double>(after.events_executed - before.events_executed);
  const double deliveries = static_cast<double>(after.messages_delivered -
                                                before.messages_delivered);
  const double callbacks = static_cast<double>(
      static_cast<std::int64_t>(after.callbacks_scheduled -
                                before.callbacks_scheduled) -
      pending_delta);
  sim["sim.events"] = events;
  sim["sim.deliveries"] = deliveries;
  sim["sim.callbacks"] = callbacks;
  sim["sim.timers"] = events - deliveries - callbacks;
  const double inserts = static_cast<double>(after.scheduler.bucket_inserts -
                                             before.scheduler.bucket_inserts);
  const double pushes = static_cast<double>(after.scheduler.overflow_pushes -
                                            before.scheduler.overflow_pushes);
  sim["sim.queue.bucket_inserts"] = inserts;
  sim["sim.queue.bucket_scans"] = static_cast<double>(
      after.scheduler.bucket_scans - before.scheduler.bucket_scans);
  sim["sim.queue.overflow_pushes"] = pushes;
  sim["sim.queue.overflow_pops"] = static_cast<double>(
      after.scheduler.overflow_pops - before.scheduler.overflow_pops);
  sim["sim.queue.overflow_ratio"] =
      inserts + pushes > 0 ? pushes / (inserts + pushes) : 0.0;
  sim["sim.queue.max_pending"] = static_cast<double>(after.max_heap_size);
  sim["sim.callback_slots_created"] =
      static_cast<double>(after.callback_slots_created);
  double messages = 0.0;
  for (std::int32_t type = 1; type <= 4; ++type) {
    const double sent = static_cast<double>(
        engine.sent_of_type(type) - sent_before[static_cast<std::size_t>(type)]);
    sim[std::string("core.sent.") + kTokenNames[type]] = sent;
    messages += sent;
  }
  const klex::sim::ParallelEngine::WindowStats windows_after =
      parallel != nullptr ? parallel->window_stats() : windows_before;
  const double window_count = static_cast<double>(
      windows_after.windows - windows_before.windows + driver.windows);
  sim["sim.window.count"] = window_count;
  sim["sim.window.merged_fallbacks"] = static_cast<double>(
      windows_after.merged_fallbacks - windows_before.merged_fallbacks +
      driver.fallbacks);
  sim["sim.window.events_per_window"] =
      window_count > 0 ? events / window_count : 0.0;

  // Grant latency is the fault-free service: requests due before the
  // first fault. Requests caught by a fault recover with it, and their
  // tail depends on what each burst happened to drop (the chaos draws
  // follow the run seed), so it is reported per layer instead.
  const SimTime steady_end = window_start + w.steady;
  const std::vector<double> samples =
      open ? open->samples(window_start, steady_end) : latency.samples();
  const std::vector<double> fault_samples =
      open ? open->samples(steady_end + 1, window_end) : std::vector<double>{};
  sim["api.fault_latency_p99_ticks"] = quantile(fault_samples, 0.99);
  sim["api.fault_latency_samples"] = static_cast<double>(fault_samples.size());
  const double grants =
      static_cast<double>(open ? open->grants() : latency.grants());
  const double window_ticks = static_cast<double>(window_end - window_start);
  sim["bench.window_ticks"] = window_ticks;
  sim["grant_latency_p50_ticks"] = quantile(samples, 0.50);
  sim["grant_latency_p99_ticks"] = quantile(samples, 0.99);
  sim["grant_latency_p999_ticks"] = quantile(samples, 0.999);
  sim["bench.grant_latency_max_ticks"] = quantile(samples, 1.0);
  sim["api.latency_samples"] = static_cast<double>(samples.size());
  sim["api.grants"] = grants;
  sim["goodput_grants_per_mtick"] = grants * 1e6 / window_ticks;
  sim["messages_per_grant"] = grants > 0 ? messages / grants : 0.0;
  host["events_per_s"] = events / measure_s;

  if (!w.faults_in_window && !w.faults.empty()) {
    span = phases.begin("probe");
    run_faults(span);
    phases.end(span);
  }

  // -- totals -----------------------------------------------------------------
  if (w.stall_threshold > 0) monitor.check_stalls(engine.now());
  sim["verify.violations_fault_phase"] = static_cast<double>(fault_violations);
  sim["verify.violations_steady"] =
      static_cast<double>(monitor.violation_count() - fault_violations);
  sim["verify.stalls"] = static_cast<double>(monitor.stall_count());
  sim["recovery_ticks_p50"] = quantile(recovery_ticks, 0.5);
  sim["recovery_ticks_max"] =
      recovery_ticks.empty()
          ? 0.0
          : *std::max_element(recovery_ticks.begin(), recovery_ticks.end());
  sim["recovery_events_p50"] = quantile(recovery_events, 0.5);
  const double faults = static_cast<double>(w.faults.size());
  sim["api.faults_injected"] = faults;
  sim["unrecovered_ratio"] = faults > 0 ? unrecovered / faults : 0.0;
  sim["sim.chaos.recovery_ticks_p50"] = quantile(burst_ticks, 0.5);
  const klex::sim::ChaosStats chaos = engine.chaos_stats();
  sim["sim.chaos.dropped"] = static_cast<double>(chaos.dropped);
  sim["sim.chaos.jittered"] = static_cast<double>(chaos.jittered);
  sim["sim.in_flight_walks"] =
      static_cast<double>(engine.stats().in_flight_walks);
  host["recovery_host_ms_p50"] = quantile(recovery_ms, 0.5);
  out.recovery_ms = recovery_ms;
  host["api.fault_apply_ms"] = quantile(apply_ms, 0.5);

  // Client-side counters, from the window start to the end of the run.
  std::int64_t acquires = 0;
  std::int64_t retries = 0;
  for (int r = 0; r < klex::kDenyReasonCount; ++r) {
    const auto reason = static_cast<klex::DenyReason>(r);
    double denied = 0.0;
    if (session.driver != nullptr) {
      denied = static_cast<double>(session.driver->deny_count(reason) -
                                   denied_before[static_cast<std::size_t>(r)]);
    } else if (open) {
      denied = static_cast<double>(open->denied(reason));
    }
    sim[std::string("api.denied.") + klex::deny_reason_name(reason)] = denied;
  }
  if (session.driver != nullptr) {
    acquires = session.driver->total_requests();
    retries = session.driver->retries_spent();
  } else if (epoch) {
    acquires = static_cast<std::int64_t>(epoch->acquires());
  } else if (open) {
    acquires = static_cast<std::int64_t>(open->acquires());
    retries = static_cast<std::int64_t>(open->retries());
  }
  sim["api.acquires"] = static_cast<double>(acquires - acquires_before);
  sim["api.retries_spent"] = static_cast<double>(retries);
  sim["api.backlog_high_water"] =
      open ? static_cast<double>(open->backlog_high_water()) : 0.0;
  sim["api.generator_lateness_ticks"] =
      open ? static_cast<double>(open->max_lateness()) : 0.0;
  const double requests =
      static_cast<double>(open ? open->arrivals() : latency.requests());
  const double expired = open ? static_cast<double>(open->expired()) : 0.0;
  sim["acquire_fail_ratio"] = requests > 0 ? expired / requests : 0.0;
  out.attempted = static_cast<std::uint64_t>(requests + faults);
  out.failed = static_cast<std::uint64_t>(expired) +
               static_cast<std::uint64_t>(unrecovered);

  if (traced) {
    sim["proto.circulations"] = static_cast<double>(proto.circulations);
    sim["proto.resets"] = static_cast<double>(proto.resets);
    sim["proto.tokens_minted"] = static_cast<double>(proto.minted);
    double classified = 0.0;
    for (double s : driver.step_s) classified += s;
    auto per_event_ns = [&](WindowDriver::StepClass cls) {
      return driver.steps[cls] > 0
                 ? driver.step_s[cls] * 1e9 /
                       static_cast<double>(driver.steps[cls])
                 : 0.0;
    };
    host["sim.delivery_ns"] = per_event_ns(WindowDriver::kDelivery);
    host["sim.timer_ns"] = per_event_ns(WindowDriver::kOther);
    host["api.callback_ns"] = per_event_ns(WindowDriver::kCallback);
    host["api.callback_share"] =
        classified > 0
            ? driver.step_s[WindowDriver::kCallback] / classified
            : 0.0;
    host["api.epoch_client_ms"] = window_boundary_s * 1e3;
    host["sim.window.lane_busy_ms"] = driver.lane_busy_s * 1e3;
    host["sim.window.critical_path_ms"] = driver.critical_path_s * 1e3;
    host["sim.window.merge_ms"] = driver.merge_s * 1e3;
    host["bench.class_sum_share"] =
        (classified + driver.lane_busy_s + driver.merge_s +
         window_boundary_s + window_fault_s) /
        measure_s;
  }

  // -- correctness gate ----------------------------------------------------------
  if (samples.size() < kMinLatencySamples) {
    out.failures.push_back("only " + std::to_string(samples.size()) +
                           " latency samples: p999 needs 10000");
  }
  if (!tokens_correct) {
    out.failures.push_back("token census incorrect at the end of the window");
  }
  if (recovery_ticks.empty()) {
    out.failures.push_back("no fault recovered");
  }
  if (sim["verify.violations_steady"] > 0) {
    out.failures.push_back("safety violated outside fault recovery");
  }
  if (monitor.stall_count() > 0) {
    out.failures.push_back("the stall watchdog flagged a request");
  }
  host["bench.rep_wall_s"] = phases.elapsed();
  host["bench.phase_sum_share"] =
      phases.top_level_s() / host["bench.rep_wall_s"];
  out.spans = phases.take();
  return out;
}

}  // namespace klexbench
