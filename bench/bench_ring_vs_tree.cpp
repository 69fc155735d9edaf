// E8 / E13 -- tree protocol vs the ring baseline (the prior
// self-stabilizing k-out-of-ℓ exclusion solutions the paper cites [2,3]),
// plus the §5 spanning-tree composition on arbitrary rooted networks
// (what the generality buys).
//
// Same workload, same n: the ring's token loop is n hops, the tree's
// virtual ring is 2(n−1) hops, so the ring serves with roughly half the
// token-travel latency -- but the ring *requires* a physical ring, while
// the tree protocol runs on any tree (and composed with a spanning tree,
// on any rooted network). The table quantifies the latency/throughput
// cost of that generality. The graph rows are §5: each network (mesh,
// cycle, clique, random) first converges a self-stabilizing BFS
// spanning tree, then runs the exclusion protocol on it (GraphSystem).
// All three topology kinds run through the same SystemBase path in the
// experiment runner; there is no per-topology driver code here.
#include "bench_common.hpp"

namespace klex {
namespace {

exp::ScenarioSpec ring_vs_tree_scenario() {
  exp::ScenarioSpec spec;
  spec.name = "ring_vs_tree";
  for (int n : {4, 8, 16, 32}) {
    spec.topologies.push_back(exp::TopologySpec::tree_line(n));
    spec.topologies.push_back(exp::TopologySpec::ring(n));
  }
  // The composition rows: networks driven over their BFS spanning tree.
  spec.topologies.push_back(exp::TopologySpec::graph_grid(4, 4));
  spec.topologies.push_back(exp::TopologySpec::graph_grid(6, 6));
  spec.topologies.push_back(exp::TopologySpec::graph_cycle(16));
  spec.topologies.push_back(exp::TopologySpec::graph_complete(8));
  spec.topologies.push_back(exp::TopologySpec::graph_random(20, 10, 61));
  spec.kl = {{2, 3}};
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.workload.base.need = proto::Dist::uniform(1, 2);
  spec.warmup = 50'000;
  spec.horizon = 2'000'000;
  spec.seeds = 4;
  spec.base_seed = 100;
  return spec;
}

void print_ring_vs_tree_table() {
  bench::print_header(
      "E8: oriented tree (this paper) vs oriented ring (prior work [2,3])",
      "same workload and n; ring loop = n hops vs tree virtual ring = "
      "2(n-1) hops => ring waits are roughly half; the tree buys topology "
      "generality (see the graph composition rows, Section 5)");
  bench::run_scenario(ring_vs_tree_scenario());
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_ring_vs_tree_table();
  return 0;
}
