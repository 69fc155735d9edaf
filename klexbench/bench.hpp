// Shared declarations of the klex benchmark: the workload table, the
// result of one repetition, and the phase pipeline that produces it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/fault.hpp"
#include "clients.hpp"
#include "proto/workload.hpp"
#include "sim/engine.hpp"

namespace klexbench {

enum class ClientModel {
  kClosedLoop,  // one WorkloadDriver session per node (think -> acquire -> CS)
  kEpoch,       // EpochClients: batch arrivals between engine runs
  kOpenLoop,    // OpenLoop: Poisson arrivals with per-node backlogs
};

/// One benchmark workload. Every tick count is simulated time.
struct Workload {
  std::string name;

  // Topology: a random tree of `random_n` nodes (one fixed shape), or
  // tree_balanced(arity, height); `tenants` > 0 runs that many copies as
  // one fleet on a shared engine.
  int random_n = 0;
  int arity = 0;
  int height = 0;
  int tenants = 0;

  int k = 2;
  int l = 2;
  klex::sim::DelayModel delays{};
  int threads = 1;
  bool spread_tokens = false;

  ClientModel clients = ClientModel::kClosedLoop;
  klex::proto::NodeBehavior closed{};  // kClosedLoop
  int epoch_arrivals = 0;              // kEpoch: acquires per boundary
  SimTime epoch = 0;                   // kEpoch: ticks between boundaries
  OpenLoop::Params open{};             // kOpenLoop

  SimTime warmup = 0;  // ticks of client load before the window opens
  SimTime steady = 0;  // fault-free ticks measured in the window

  // Faults, applied one per `fault_cycle` ticks. Inside the window they
  // are part of the measured service; otherwise they run after it as a
  // recovery probe.
  std::vector<klex::FaultEvent> faults;
  bool faults_in_window = false;
  SimTime fault_cycle = 0;
  SimTime recovery_deadline = 0;
  SimTime stall_threshold = 0;  // 0 = watchdog off
};

/// The four benchmark workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
Workload workload_named(const std::string& name);

/// A host-time span of one phase (build, stabilize, ...), kept in memory
/// and written out when the run ends.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;  // since the repetition started
  double end_s = 0.0;
};

/// Everything one repetition (set-up + window + faults) produced.
struct RepResult {
  /// Simulated outputs and work counters: a pure function of the seed,
  /// so every repetition of one seed must reproduce them bit for bit.
  std::map<std::string, double> sim;
  /// Host-time measurements.
  std::map<std::string, double> host;
  /// Correctness-gate failures (empty = the run is valid).
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Span> spans;
  /// Host seconds of each slice of the measured window, in order: equal
  /// stretches of simulated time, then one per fault inside the window.
  /// Slice i does the same work in every repetition of one seed.
  std::vector<double> window_slices_s;
  /// Host milliseconds of each fault plus its recovery, in fault order.
  std::vector<double> recovery_ms;
};

/// Runs one repetition of `workload` for `seed`. With `traced` the window
/// is driven event by event (P = 1) or lane by lane (P > 1) and timed
/// from outside; the trajectory is the same as untraced.
RepResult run_rep(const Workload& workload, std::uint64_t seed, bool traced);

}  // namespace klexbench
