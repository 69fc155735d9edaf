// E2 -- Figure 2: the naive protocol deadlocks under oversubscription;
// the pusher (and the full protocol) keep the system live.
//
// Scenario (verbatim from the paper): the 8-node tree, ℓ=5, k=3, with
// requesters a(3), b(2), c(2), d(2) -- 9 units requested, 5 available.
//
// The whole experiment is one declarative ScenarioSpec: the requesters
// are behavior classes pinned to the paper's nodes, the ladder rungs are
// the features grid, and exp::ExperimentRunner executes every
// (rung × seed) cell. A wedged rung shows up as requesters still
// outstanding when the window closes and a grant count that stops early.
#include "bench_common.hpp"

namespace klex {
namespace {

/// The paper's oversubscribed workload on the Figure 1 tree: four
/// near-simultaneous one-shot requests for 9 of the 5 available units.
/// When `hold_forever` is set the requesters camp in their critical
/// sections (the paper's Figure 2 state); otherwise each releases after
/// its CS -- and the naive rung can still wedge forever on partial
/// reservations, which is Figure 2's point.
exp::ScenarioSpec fig2_spec(bool hold_forever) {
  exp::ScenarioSpec spec;
  spec.name = "fig2_deadlock";
  spec.topologies = {exp::TopologySpec::tree_figure1()};
  spec.features = {proto::Features::naive(), proto::Features::with_pusher(),
                   proto::Features::full()};
  spec.kl = {{3, 5}};
  spec.workload.base.active = false;  // everyone else relays
  auto requester = [&](std::string name, proto::NodeId node, int need) {
    proto::BehaviorClass cls = proto::BehaviorClass::budgeted(
        std::move(name), /*count=*/-1, need, /*budget=*/1);
    cls.nodes = {node};
    cls.behavior.hold_forever = hold_forever;
    cls.behavior.think = proto::Dist::fixed(16);
    cls.behavior.cs_duration = proto::Dist::fixed(200);
    return cls;
  };
  spec.workload.classes = {requester("a", 1, 3), requester("b", 2, 2),
                           requester("c", 3, 2), requester("d", 4, 2)};
  spec.warmup = 20'000;
  spec.horizon = 800'000;
  spec.seeds = 6;
  spec.base_seed = 43;
  return spec;
}

int requesters_served(const exp::RunResult& run) {
  int served = 0;
  for (const exp::ClassResult& cls : run.classes) {
    if (cls.name == "base") continue;
    if (cls.grants > 0 || cls.holding_at_end > 0) ++served;
  }
  return served;
}

void print_fig2_table() {
  bench::print_header(
      "E2 / Figure 2: oversubscription deadlock (l=5, k=3, needs 3+2+2+2)",
      "naive rung wedges (starved requesters, grants stop); pusher/full "
      "rungs serve everyone on every schedule");

  // Requests held forever: the paper's Figure 2 state. Every rung can
  // only admit a prefix of the 9 requested units (capacity is exhausted);
  // the rung contrast is quiescence -- the naive rung's tokens are all
  // captured in reservations, so nothing moves ever again, while the
  // pusher/full rungs keep their auxiliary tokens circulating. The same
  // results become the machine-readable artifact (the naive runs pin
  // quiescent_at_end=true, the deadlock signature).
  exp::ExperimentRunner runner;
  exp::ScenarioSpec held_spec = fig2_spec(true);
  std::vector<exp::RunResult> held = runner.run(held_spec);
  std::vector<exp::Aggregate> held_cells =
      exp::ExperimentRunner::aggregate(held);
  bench::print_aggregate_table(held_spec, {held, held_cells},
                               runner.threads());
  std::cout << "wrote "
            << exp::write_json_file(held_spec, held, held_cells) << "\n";

  support::Table hold({"rung", "quiescent (deadlocked)", "served of 4",
                       "stuck", "grants"});
  for (const exp::RunResult& run : held) {
    if (run.seed != 43) continue;  // the historical single-seed snapshot
    hold.add_row({run.features,
                  run.quiescent_at_end ? "YES (deadlock)" : "no",
                  support::Table::cell(requesters_served(run)),
                  support::Table::cell(run.outstanding_at_end),
                  support::Table::cell(run.grants)});
  }
  hold.print(std::cout, "requests held forever (paper's Figure 2 state)");

  // Requests released after each CS: one-shot requesters that free their
  // units. All four can be served sequentially on lucky interleavings
  // even at the naive rung; the pusher rungs serve everyone on EVERY
  // schedule.
  std::vector<exp::RunResult> cycled = runner.run(fig2_spec(false));
  support::Table cycle({"rung", "served of 4: min over 6 seeds",
                        "max over 6 seeds", "all served in every run"});
  for (const proto::Features& features :
       {proto::Features::naive(), proto::Features::with_pusher(),
        proto::Features::full()}) {
    int min_served = 4, max_served = 0;
    for (const exp::RunResult& run : cycled) {
      if (run.features != features.name()) continue;
      int served = requesters_served(run);
      min_served = std::min(min_served, served);
      max_served = std::max(max_served, served);
    }
    cycle.add_row({features.name(), support::Table::cell(min_served),
                   support::Table::cell(max_served),
                   min_served == 4 ? "YES" : "NO"});
  }
  cycle.print(std::cout, "requests released after each CS (6 seeds)");
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_fig2_table();
  return 0;
}
