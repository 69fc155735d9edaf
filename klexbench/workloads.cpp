// The benchmark's workloads. Each stresses a different set of layers;
// NOTES.md records why each was chosen and what it is sized to.
#include <stdexcept>

#include "bench.hpp"

namespace klexbench {

namespace {

using klex::FaultEvent;
using klex::FaultKind;
using klex::proto::Dist;

FaultEvent fault_of(FaultKind kind) {
  FaultEvent event;
  event.kind = kind;
  return event;
}

// The paper's steady state: one tree, a closed loop per node, no faults
// in the window. Most work is sim deliveries and core handlers.
Workload closed_tree() {
  Workload w;
  w.name = "closed_tree";
  w.random_n = 2048;
  w.k = 2;
  w.l = 16;
  w.closed.think = Dist::exponential(2000);
  w.closed.cs_duration = Dist::exponential(100);
  w.closed.need = Dist::uniform(1, 2);
  w.warmup = 1'000'000;
  w.steady = 40'000'000;
  // Recovery probe after the window: every in-flight message lost. A wipe
  // takes ~15 ms of host time, so enough of them for a steady median.
  w.faults.assign(15, fault_of(FaultKind::kChannelWipe));
  w.fault_cycle = 0;
  w.recovery_deadline = 5'000'000;
  return w;
}

// Many small tenants on one shared engine: per-stream sequencing unsorts
// calendar buckets, and client callbacks are a larger share of events.
Workload fleet_tenants() {
  Workload w;
  w.name = "fleet_tenants";
  w.arity = 2;
  w.height = 3;
  w.tenants = 256;
  w.k = 2;
  w.l = 4;
  w.closed.think = Dist::exponential(96);
  w.closed.cs_duration = Dist::exponential(24);
  w.closed.need = Dist::uniform(1, 2);
  w.warmup = 5'000;
  w.steady = 20'000;
  w.faults.assign(4, fault_of(FaultKind::kTransient));
  w.fault_cycle = 8'000;  // a recovery takes ~2.6 k ticks
  w.recovery_deadline = 1'000'000;
  return w;
}

// The windowed ParallelEngine path: a large tree, spread seed tokens,
// four lanes, and batch clients that act only between engine runs so no
// callback ever forces the merged-serial fallback.
Workload circulation_p4() {
  Workload w;
  w.name = "circulation_p4";
  w.random_n = 8192;
  w.k = 2;
  w.l = 64;
  w.delays = klex::sim::DelayModel{8, 24};
  w.threads = 4;
  w.spread_tokens = true;
  w.clients = ClientModel::kEpoch;
  w.epoch_arrivals = 32;
  w.epoch = 2048;
  w.warmup = 100'000;
  w.steady = 2'000'000;
  w.faults.assign(5, fault_of(FaultKind::kChannelWipe));
  w.fault_cycle = 0;
  w.recovery_deadline = 20'000'000;
  return w;
}

// Fault injection inside the measured service: CMAX-garbage transient
// faults alternate with short lossy-channel bursts under open-loop load,
// watched by a live SafetyMonitor with the stall watchdog on.
Workload faults_recovery() {
  Workload w;
  w.name = "faults_recovery";
  w.arity = 2;
  w.height = 7;
  w.k = 2;
  w.l = 6;
  w.clients = ClientModel::kOpenLoop;
  w.open.mean_gap = 125.0;  // 8 k requests per Mtick
  w.open.cs = Dist::exponential(100);
  w.open.need = Dist::uniform(1, 2);
  w.open.deadline = 400'000;
  w.open.retry_backoff = 1'000;
  w.warmup = 100'000;
  w.steady = 2'000'000;
  FaultEvent burst = fault_of(FaultKind::kChaosBurst);
  burst.chaos.drop_p = 0.02;
  burst.chaos.jitter = 8;
  burst.duration = 4'000;
  for (int i = 0; i < 5; ++i) {
    w.faults.push_back(fault_of(FaultKind::kTransient));
    w.faults.push_back(burst);
  }
  w.faults_in_window = true;
  w.fault_cycle = 100'000;
  w.recovery_deadline = 2'000'000;
  w.stall_threshold = w.open.deadline;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "closed_tree", "fleet_tenants", "circulation_p4", "faults_recovery"};
  return names;
}

Workload workload_named(const std::string& name) {
  if (name == "closed_tree") return closed_tree();
  if (name == "fleet_tenants") return fleet_tenants();
  if (name == "circulation_p4") return circulation_p4();
  if (name == "faults_recovery") return faults_recovery();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace klexbench
