// E1 -- Figure 1: depth-first token circulation on oriented trees.
//
// Regenerates the figure as the Euler-tour visit sequence of the paper's
// 8-node example, checks a simulated token follows it exactly, and sweeps
// tree shapes for the circulation-length law (2(n−1) hops per loop). The
// scenario's artifact records simulator throughput while circulating
// tokens.
#include "bench_common.hpp"
#include "proto/trace.hpp"
#include "tree/virtual_ring.hpp"

namespace klex {
namespace {

void print_figure1_table() {
  bench::print_header(
      "E1 / Figure 1+4: DFS token circulation = Euler tour",
      "a token forwarded i -> (i+1) mod deg walks the virtual ring, "
      "2(n-1) hops per loop");

  tree::Tree t = tree::figure1_tree();
  tree::VirtualRing ring(t);
  std::cout << "\npaper tour (r a b a c a r d e d f d g d) as node ids: "
            << ring.to_string() << "\n";

  // Simulate one token and compare the first three loops.
  SystemConfig config;
  config.tree = t;
  config.k = 1;
  config.l = 1;
  config.features = proto::Features::naive();
  config.seed = 7;
  System system(config);
  proto::TokenTrace trace(proto::TokenType::kResource);
  system.add_observer(&trace);
  system.run_until(20'000);

  std::cout << "simulated token visits (3 loops):";
  for (std::size_t i = 0;
       i < std::min<std::size_t>(trace.visits().size(),
                                 3 * static_cast<std::size_t>(ring.length()));
       ++i) {
    std::cout << " " << trace.visits()[i].node;
  }
  std::cout << "\n";

  bool matches = true;
  for (std::size_t i = 0; i < trace.visits().size(); ++i) {
    if (trace.visits()[i].node !=
        ring.hops()[i % static_cast<std::size_t>(ring.length())].to) {
      matches = false;
      break;
    }
  }
  std::cout << "simulated trace matches Euler tour: "
            << (matches ? "YES" : "NO") << "\n";

  support::Table table({"shape", "n", "ring hops", "expected 2(n-1)",
                        "visits of max-degree node"});
  struct Row {
    const char* name;
    tree::Tree t;
  };
  support::Rng rng(11);
  std::vector<Row> rows;
  rows.push_back({"figure1", tree::figure1_tree()});
  rows.push_back({"line", tree::line(16)});
  rows.push_back({"star", tree::star(16)});
  rows.push_back({"balanced-2", tree::balanced(2, 4)});
  rows.push_back({"caterpillar", tree::caterpillar(6, 2)});
  rows.push_back({"random", tree::random_tree(24, rng)});
  for (const Row& row : rows) {
    tree::VirtualRing r(row.t);
    int max_deg = 0;
    for (tree::NodeId v = 0; v < row.t.size(); ++v) {
      max_deg = std::max(max_deg, row.t.degree(v));
    }
    table.add_row({row.name, support::Table::cell(row.t.size()),
                   support::Table::cell(r.length()),
                   support::Table::cell(2 * (row.t.size() - 1)),
                   support::Table::cell(max_deg)});
  }
  table.print(std::cout, "virtual-ring length law");
}

// Machine-readable artifact: the same circulation workload as a declarative
// scenario across tree shapes, fanned over seeds on all cores. The JSON
// records events/sec and the engine's allocation counters, so the perf
// trajectory of the event core is tracked PR over PR.
void emit_circulation_scenario() {
  exp::ScenarioSpec spec;
  spec.name = "fig1_circulation";
  spec.topologies = {
      exp::TopologySpec::tree_figure1(),
      exp::TopologySpec::tree_line(32),
      exp::TopologySpec::tree_star(32),
      exp::TopologySpec::tree_balanced(2, 5),
      exp::TopologySpec::tree_caterpillar(8, 3),
  };
  spec.kl = {{1, 4}};
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.seeds = 4;
  spec.base_seed = 13;
  bench::run_scenario(spec);
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_figure1_table();
  klex::emit_circulation_scenario();
  return 0;
}
