// Safety monitor: checks the paper's safety property online, plus a
// liveness watchdog for grant stalls.
//
//   "At any given time, each resource unit is used by at most one process,
//    each process uses at most k resource units, and at most ℓ resource
//    units are used."
//
// In the token model, unit-exclusivity is structural (a token is a
// message or an RSet entry, never both); what can be violated -- before
// stabilization, or while an adversarial channel duplicates token
// messages (sim::ChaosModel) -- are the aggregate bounds: more than ℓ
// units in use, or one process using more than k. The monitor tracks CS
// entries/exits as a protocol Listener and records every violation with
// its time, so convergence experiments can report the last-violation
// clock and chaos campaigns can prove a duplicated token really minted
// an extra unit.
//
// Live-observer mode: watch(engine) additionally registers the monitor
// as a sim::SimObserver. Every delivery then heartbeats the liveness
// watchdog -- a request outstanding longer than stall_threshold ticks is
// flagged as a grant stall (once per request), timestamped at the
// heartbeat that noticed it. This is continuous invariant monitoring:
// violations and stalls carry the simulated time they were observed at,
// not a post-run summary.
//
// The monitor is window-safe (SimObserver::window_safe), so it rides the
// windowed ParallelEngine instead of forcing the merged-serial fallback:
// while a parallel window is open, every observation is appended to the
// executing lane's record buffer stamped with the event's global
// (at, seq); at the window barrier (on_window_merge) the buffers are
// merged back into (at, seq) order and replayed through the exact serial
// logic. Since the merged order equals the merged-serial execution
// order -- and the watchdog's heartbeat rate limit is applied at replay
// time over that merged stream -- the monitor's output is bit-identical
// at any lane count (pinned by parallel_differential_test). Outside
// windows (serial engines, merged-serial fallbacks, out-of-event calls)
// observations apply directly, as before. Engines that should stay
// observer-free can poll check_stalls(now) manually instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proto/app.hpp"
#include "sim/engine.hpp"

namespace klex::verify {

class SafetyMonitor : public proto::Listener, public sim::SimObserver {
 public:
  SafetyMonitor(int n, int k, int l);

  // -- proto::Listener (safety + request tracking) ---------------------------
  void on_request(proto::NodeId node, int need, sim::SimTime at) override;
  void on_enter_cs(proto::NodeId node, int need, sim::SimTime at) override;
  void on_exit_cs(proto::NodeId node, sim::SimTime at) override;

  struct Violation {
    sim::SimTime at = 0;
    std::string what;
  };

  const std::vector<Violation>& violations() const { return violations_; }
  bool any_violation() const { return !violations_.empty(); }

  /// Total violations observed (the stored list caps at 1024; this
  /// count does not).
  std::int64_t violation_count() const { return violation_count_; }

  /// Time of the most recent violation (0 when none occurred).
  sim::SimTime last_violation_time() const { return last_violation_; }

  /// Drops the current holdings bookkeeping (but keeps the violation
  /// history). Call after injecting a transient fault: corruption
  /// invalidates who-holds-what, and carrying pre-fault holdings across
  /// the fault would report phantom violations.
  void forget();

  /// Number of processes currently inside their critical section.
  int in_cs_count() const;

  /// Total resource units currently in use.
  int units_in_use() const { return units_in_use_; }

  std::int64_t total_entries() const { return total_entries_; }

  // -- liveness watchdog -----------------------------------------------------

  /// One grant stall: `node`'s request from `requested_at` was still
  /// ungranted at `flagged_at` (> requested_at + threshold). Flagged at
  /// most once per request.
  struct Stall {
    proto::NodeId node = -1;
    sim::SimTime requested_at = 0;
    sim::SimTime flagged_at = 0;
  };

  /// Enables the watchdog: a request older than `threshold` ticks is a
  /// stall (0, the default, disables it).
  void set_stall_threshold(sim::SimTime threshold) {
    stall_threshold_ = threshold;
  }
  sim::SimTime stall_threshold() const { return stall_threshold_; }

  const std::vector<Stall>& stalls() const { return stalls_; }
  std::int64_t stall_count() const { return stall_count_; }

  /// Manual watchdog heartbeat: flags every unflagged request older
  /// than the threshold at time `now`. Returns the number newly
  /// flagged. The live-observer mode calls this from on_deliver (rate
  /// limited); observer-free harnesses can poll it.
  int check_stalls(sim::SimTime now);

  // -- live engine observer --------------------------------------------------

  /// Registers this monitor as an engine observer: deliveries heartbeat
  /// the watchdog continuously (see the file comment). The engine
  /// reference also powers the lane-local buffering that keeps the
  /// windowed ParallelEngine from falling back to merged-serial.
  void watch(sim::Engine& engine) {
    engine_ = &engine;
    engine.add_observer(this);
  }

  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override;

  // -- sim::SimObserver window protocol --------------------------------------

  /// Lane-local record buffers + barrier merge: never forces the
  /// parallel engine into its merged-serial fallback.
  bool window_safe() const override { return true; }

  /// Merges the per-lane record buffers into global (at, seq) order and
  /// replays them through the serial observation logic.
  void on_window_merge() override;

 private:
  enum class RecordKind : std::uint8_t { kRequest, kEnter, kExit, kDeliver };

  /// One buffered observation. All records of one event share (at, seq)
  /// and sit consecutively in one lane's buffer (an event executes on
  /// exactly one lane), so a stable merge by (at, seq) reproduces the
  /// serial observation order exactly.
  struct Record {
    sim::SimTime at = 0;
    std::uint64_t seq = 0;
    RecordKind kind = RecordKind::kRequest;
    proto::NodeId node = -1;
    int need = 0;
  };

  /// True while a parallel window is open: observations must be
  /// buffered per lane (concurrent callbacks), not applied directly.
  bool buffering() const { return engine_ != nullptr && engine_->in_window(); }

  void buffer(RecordKind kind, proto::NodeId node, int need, sim::SimTime at);

  // The serial observation logic (shared by the direct path and the
  // barrier replay).
  void apply_request(proto::NodeId node, sim::SimTime at);
  void apply_enter(proto::NodeId node, int need, sim::SimTime at);
  void apply_exit(proto::NodeId node);
  void apply_deliver(sim::SimTime at);

  void record(sim::SimTime at, std::string what);

  int k_;
  int l_;
  std::vector<int> usage_;  // units held per node (0 when not in CS)
  int units_in_use_ = 0;
  std::int64_t total_entries_ = 0;
  std::vector<Violation> violations_;
  std::int64_t violation_count_ = 0;
  sim::SimTime last_violation_ = 0;

  // Watchdog state: pending request time per node (kTimeInfinity = no
  // pending request) and whether that request was already flagged.
  std::vector<sim::SimTime> pending_since_;
  std::vector<char> stall_flagged_;
  int pending_requests_ = 0;
  sim::SimTime stall_threshold_ = 0;
  // Deliveries heartbeat at most every threshold/4 ticks (deterministic:
  // driven by simulated time, not wall clock). In windowed mode the rate
  // limit is applied at replay time over the merged record stream, so it
  // picks the same heartbeats at every lane count.
  sim::SimTime next_stall_check_ = 0;
  std::vector<Stall> stalls_;
  std::int64_t stall_count_ = 0;

  sim::Engine* engine_ = nullptr;  // set by watch(); null = listener-only
  // One record buffer per lane (indexed by Engine::current_lane();
  // single-writer during a window).
  std::vector<std::vector<Record>> lane_records_;
  std::vector<Record> merged_;  // on_window_merge scratch
};

}  // namespace klex::verify
