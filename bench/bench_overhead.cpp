// E10 / E11 -- steady-state message overhead per CS grant, by ladder rung,
// tree shape and token type.
//
// E11 prices each mechanism: the pusher and priority tokens circulate
// permanently, and the controller adds a continuous census stream. E10
// holds n = 15 fixed and varies the shape: the virtual ring is 2(n−1)
// hops for every tree, so shape shifts who waits (height changes
// request-to-root distances), not the ring length. One scenario covers
// both: every rung runs on every shape, and every run record carries the
// per-token-type message counts (resource, pusher, priority, control).
// The naive rung is not on the axis: it deadlocks under contention (E2).
#include "bench_common.hpp"

namespace klex {
namespace {

exp::ScenarioSpec overhead_scenario() {
  exp::ScenarioSpec spec;
  spec.name = "overhead";
  spec.topologies = {
      exp::TopologySpec::tree_balanced(2, 3),
      exp::TopologySpec::tree_line(15),
      exp::TopologySpec::tree_star(15),
      exp::TopologySpec::tree_caterpillar(5, 2),
      exp::TopologySpec::tree_random(15, 41),
  };
  spec.features = {
      proto::Features::with_pusher(),
      proto::Features::with_priority(),
      proto::Features::full(),
  };
  spec.kl = {{2, 3}, {2, 5}};
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.workload.base.need = proto::Dist::uniform(1, 2);
  spec.warmup = 50'000;
  spec.horizon = 2'000'000;
  spec.seeds = 3;
  spec.base_seed = 9000;
  return spec;
}

}  // namespace
}  // namespace klex

int main() {
  klex::bench::print_header(
      "E10 / E11: message overhead by ladder rung and tree shape (n = 15)",
      "resource tokens do the work; pusher/priority add constant "
      "background circulation; the controller adds the census stream that "
      "buys self-stabilization; shape shifts waits, not the ring length");
  klex::bench::run_scenario(klex::overhead_scenario());
  return 0;
}
