// Section 5 composition: k-out-of-ℓ exclusion on an arbitrary rooted
// network, via a self-stabilizing BFS spanning tree.
//
// "The main interest in dealing with an oriented tree is that solutions
//  on the oriented tree can be directly mapped to solutions for arbitrary
//  rooted networks by composing the protocol with a spanning tree
//  construction." -- paper, Section 5.
//
// SystemBuilder performs the whole composition: give it any connected
// graph (here a 4x4 mesh, as in a datacenter pod or a sensor grid) and it
// converges the spanning-tree layer, extracts the oriented tree, and runs
// the exclusion protocol over it -- behind the same SystemBase interface
// as the plain tree and ring harnesses.
#include <iostream>

#include "api/builder.hpp"
#include "api/graph_system.hpp"

int main() {
  std::cout << "== phase 1: compose the mesh with its spanning tree ==\n";
  klex::proto::WorkloadSpec workload;
  workload.base.think = klex::proto::Dist::exponential(128);
  workload.base.cs_duration = klex::proto::Dist::exponential(64);
  workload.base.need = klex::proto::Dist::uniform(1, 2);

  klex::Session session = klex::SystemBuilder()
                              .topology(klex::TopologySpec::graph_grid(4, 4))
                              .kl(2, 5)
                              .seed(6)
                              .workload(workload)
                              .fault(klex::FaultKind::kTransient)
                              .build_session();
  auto& system = dynamic_cast<klex::GraphSystem&>(*session.system);
  std::cout << "  BFS spanning tree converged at t="
            << system.spanning_tree_converged_at() << "\n"
            << "  extracted oriented tree (height "
            << system.overlay_tree().height() << ", "
            << system.overlay_tree().leaf_count() << " leaves):\n"
            << system.overlay_tree().to_dot();

  std::cout << "== phase 2: k-out-of-l exclusion on the mesh ==\n";
  system.run_until_stabilized(2'000'000);
  session.begin_workload();
  system.run_until(system.engine().now() + 2'000'000);

  std::cout << "  " << session.driver->total_grants()
            << " critical sections served on the mesh; census intact = "
            << (system.token_counts_correct() ? "yes" : "no") << "\n";

  std::cout << "== phase 3: survive a transient fault ==\n";
  klex::support::Rng fault_rng(9);
  // The planned fault is the session's one-event plan; applying it
  // injects the corruption and resyncs the client sessions.
  session.apply_fault_event(session.fault_plan.events.front(), fault_rng);
  klex::sim::SimTime recovered =
      system.run_until_stabilized(system.engine().now() + 30'000'000);
  if (recovered == klex::sim::kTimeInfinity) {
    std::cerr << "  never re-stabilized before the deadline\n";
    return 1;
  }
  std::cout << "  re-stabilized at t=" << recovered
            << "; census intact = "
            << (system.token_counts_correct() ? "yes" : "no") << "\n";
  return 0;
}
