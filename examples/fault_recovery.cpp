// Self-stabilization live: inject a transient fault (all process memory
// randomized, channels refilled with garbage) into a running allocation
// system and watch the protocol repair itself.
//
// The whole scenario is one declarative build: topology × params ×
// workload × fault plan. After the fault, Session::apply_fault_event
// resyncs every client session with the corrupted protocol state
// (revoked leases, phantom critical sections) before recovery is timed.
//
// Prints a timeline: healthy operation, the fault, the corrupted census,
// the controller's reset/top-up recovery, and the return to service.
#include <iostream>

#include "api/builder.hpp"
#include "verify/safety_monitor.hpp"

namespace {

void print_census(const klex::SystemBase& system, const char* tag) {
  klex::proto::TokenCensus census = system.census();
  std::cout << "  t=" << system.engine().now() << " [" << tag << "] "
            << census.resource() << " resource (" << census.free_resource
            << " free / " << census.reserved_resource << " reserved), "
            << census.pusher << " pusher, " << census.priority()
            << " priority, " << census.control << " ctrl in flight\n";
}

}  // namespace

int main() {
  klex::proto::WorkloadSpec workload;
  workload.base.think = klex::proto::Dist::exponential(64);
  workload.base.cs_duration = klex::proto::Dist::exponential(48);
  workload.base.need = klex::proto::Dist::uniform(1, 2);

  klex::Session session =
      klex::SystemBuilder()
          .topology(klex::TopologySpec::tree_balanced(2, 3))  // 15 processes
          .kl(2, 4)
          .cmax(4)
          .seed(99)
          .workload(workload)
          .fault(klex::FaultKind::kTransient)
          .build_session();
  klex::SystemBase& system = *session.system;

  klex::verify::SafetyMonitor safety(system.n(), system.k(), system.l());
  system.add_listener(&safety);

  std::cout << "== phase 1: bootstrap ==\n";
  klex::sim::SimTime t0 = system.run_until_stabilized(2'000'000);
  std::cout << "  controller bootstrapped the token population at t=" << t0
            << "\n";
  print_census(system, "healthy");

  session.begin_workload();
  system.run_until(system.engine().now() + 500'000);
  std::cout << "== phase 2: loaded operation ==\n  "
            << session.driver->total_grants() << " grants so far, safety "
            << (safety.any_violation() ? "VIOLATED" : "clean") << "\n";
  print_census(system, "healthy");

  std::cout << "== phase 3: transient fault ==\n";
  klex::support::Rng fault_rng(101);
  // The planned fault is the session's one-event plan; applying it
  // injects the corruption and resyncs the client sessions.
  session.apply_fault_event(session.fault_plan.events.front(), fault_rng);
  safety.forget();
  print_census(system, "CORRUPTED");

  klex::sim::SimTime fault_at = system.engine().now();
  klex::sim::SimTime recovered =
      system.run_until_stabilized(fault_at + 50'000'000);
  std::cout << "== phase 4: recovery ==\n  token census correct again "
            << (recovered - fault_at) << " ticks after the fault\n";
  print_census(system, "recovered");

  std::int64_t grants_at_recovery = session.driver->total_grants();
  system.run_until(system.engine().now() + 500'000);
  std::cout << "== phase 5: back in service ==\n  "
            << (session.driver->total_grants() - grants_at_recovery)
            << " grants since recovery; census intact = "
            << (system.token_counts_correct() ? "yes" : "no") << "\n";
  return 0;
}
