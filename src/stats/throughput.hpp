// Throughput and utilization accounting for the benchmark tables.
//
// Tracks critical-section entries, unit-time of resource usage (units ×
// simulated time, the utilization integral), and exposes rates over a
// measurement window. Combined with window deltas of the engine's
// per-type send counters (sim::Engine::sent_of_type) it yields the
// messages-per-CS-entry overhead metric of bench_overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/app.hpp"
#include "sim/time.hpp"

namespace klex::stats {

class ThroughputTracker : public proto::Listener {
 public:
  explicit ThroughputTracker(int n);

  void on_enter_cs(proto::NodeId node, int need, sim::SimTime at) override;
  void on_exit_cs(proto::NodeId node, sim::SimTime at) override;

  /// Starts a measurement window at `at` (discards prior counts).
  void start_window(sim::SimTime at);

  std::int64_t entries() const { return entries_; }
  std::int64_t units_granted() const { return units_granted_; }

  /// Utilization integral: Σ units × time-held within the window (holds
  /// in progress are counted up to `now`).
  double unit_time(sim::SimTime now) const;

  /// Entries per 1e6 simulated ticks.
  double entries_per_mtick(sim::SimTime now) const;

  /// Mean fraction of the ℓ units in use over the window.
  double mean_utilization(sim::SimTime now, int l) const;

 private:
  sim::SimTime window_start_ = 0;
  std::int64_t entries_ = 0;
  std::int64_t units_granted_ = 0;
  double unit_time_done_ = 0.0;
  std::vector<int> held_units_;
  std::vector<sim::SimTime> held_since_;
};

}  // namespace klex::stats
