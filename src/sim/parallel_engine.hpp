// Conservative time-window execution over a lane-partitioned Engine.
//
// The paper's model guarantees every channel delay is at least
// DelayModel::min_delay -- that lower bound is exactly the lookahead a
// conservative parallel discrete-event simulator needs. The loop:
//
//   W   = earliest pending event across all lanes
//   end = min(W + min_delay, horizon + 1)
//   every lane executes its events with timestamps in [W, end)
//       concurrently (one worker thread per lane, lane 0 inline on the
//       calling thread);
//   barrier: cross-lane deliveries created inside the window are merged
//       into their destination queues (Engine::end_window).
//
// Soundness: a delivery created at time s >= W is scheduled at
// s + delay >= W + min_delay >= end, so no lane can receive an event
// inside the very window that created it -- each lane's [W, end) slice
// is causally closed and the merge at the barrier cannot be late.
//
// Determinism: the trajectory is a pure function of the seed. Every
// delay draw and event seq comes from per-channel, per-node or
// per-stream state (engine.hpp), so it does not depend on which lane an
// event sits in; each lane executes its own events in (at, seq) order,
// and cross-lane interaction is FIFO per channel. Any lane count P
// therefore produces the P = 1 (serial) trajectory, and the windowed
// loop equals the merged-serial loop Engine::run_until runs (both pinned
// by parallel_differential_test).
//
// The window loop requires causal closure within a lane, which workload
// callbacks (free-function events that may touch any node) and
// *blocking* observers (shared mutable state) break; run_until falls
// back to the trajectory-identical merged-serial loop once the engine
// has scheduled any callback, and while blocking observers are
// attached. Observers that declare themselves window_safe() -- lane-local
// record buffers merged at the window barrier, like the buffered
// SafetyMonitor -- ride the windowed executor (they get
// on_window_merge() after Engine::end_window).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace klex::sim {

class ParallelEngine {
 public:
  /// Binds to `engine` and spawns one persistent worker per lane beyond
  /// the first (lane 0 always runs on the thread calling run_until).
  /// The engine must outlive this object and must not be repartitioned
  /// while bound.
  explicit ParallelEngine(Engine& engine);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Runs until simulated time exceeds `t` (events at exactly `t` are
  /// still executed) or the queues empty; windowed until the engine
  /// schedules its first callback and while (for multi-lane engines) no
  /// *blocking* observers are attached (window-safe observers ride the
  /// windows), merged-serial otherwise. `t` must be finite. An exception
  /// thrown on any lane is rethrown here after the window closes.
  void run_until(SimTime t);

  struct WindowStats {
    /// Windows executed (== barriers crossed).
    std::uint64_t windows = 0;
    /// run_until calls (or tails of calls) that fell back to the
    /// merged-serial loop because callbacks existed or blocking
    /// observers were attached.
    std::uint64_t merged_fallbacks = 0;
  };

  const WindowStats& window_stats() const { return stats_; }

 private:
  void worker_main(int lane);

  Engine& engine_;
  WindowStats stats_;

  // Generation barrier: run_until publishes {window_end_, generation_}
  // under mu_ and wakes the workers; each worker runs its lane's window
  // and decrements outstanding_; the last one wakes the main thread.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable window_done_;
  std::uint64_t generation_ = 0;
  SimTime window_last_ = 0;  // inclusive end of the open window
  int outstanding_ = 0;
  bool shutdown_ = false;
  std::exception_ptr worker_error_;  // first worker exception this window

  std::vector<std::thread> workers_;  // lanes 1..P-1
};

}  // namespace klex::sim
