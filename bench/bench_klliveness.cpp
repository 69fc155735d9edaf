// E7 -- (k,ℓ)-liveness (the paper's efficiency property, Lemma 14):
// with a set I of processes holding α units forever, requesters of at
// most ℓ−α units are still served; requests above ℓ−α starve.
//
// Every measurement here is a declarative ScenarioSpec with behavior
// classes (the hold-forever set I is a class, the probing requester is a
// class) executed by exp::ExperimentRunner::run_point -- no hand-rolled
// request/release driving.
#include "bench_common.hpp"

namespace klex {
namespace {

constexpr int kL = 4;  // units in the alpha sweep

/// One alpha operating point: `holders` pin alpha units forever, one
/// probe requester asks for `probe_need` units in a closed loop.
exp::ScenarioSpec alpha_spec(int alpha, int probe_need, std::uint64_t seed) {
  exp::ScenarioSpec spec;
  spec.name = "klliveness_alpha";  // table-only; no JSON per point
  spec.topologies = {exp::TopologySpec::tree_balanced(2, 2)};  // n = 7
  spec.kl = {{kL, kL}};  // k = l: any request size is admissible
  spec.workload.base.active = false;  // everyone else just relays
  if (alpha > 0) {
    // The set I: one node camps on alpha units (node 1, as in the
    // historical reconstruction).
    auto holders = proto::BehaviorClass::holders("holders", 1, alpha);
    holders.nodes = {1};
    holders.behavior.think = proto::Dist::fixed(16);
    spec.workload.classes.push_back(holders);
  }
  proto::BehaviorClass probe;
  probe.name = "probe";
  probe.nodes = {5};
  probe.behavior.need = proto::Dist::fixed(probe_need);
  // The probe waits out its first think time while the holders (think 16)
  // acquire and camp, so it always probes the *residual* capacity.
  probe.behavior.think = proto::Dist::fixed(5'000);
  probe.behavior.cs_duration = proto::Dist::fixed(64);
  spec.workload.classes.push_back(probe);
  spec.horizon = 1'500'000;
  spec.seeds = 1;
  spec.base_seed = seed;
  return spec;
}

const exp::ClassResult* find_class(const exp::RunResult& run,
                                   const std::string& name) {
  for (const exp::ClassResult& cls : run.classes) {
    if (cls.name == name) return &cls;
  }
  return nullptr;
}

exp::RunResult run_alpha_point(const exp::ScenarioSpec& spec) {
  std::vector<exp::RunPoint> points = exp::ExperimentRunner::expand(spec);
  return exp::ExperimentRunner::run_point(spec, points.front());
}

void print_klliveness_table() {
  bench::print_header(
      "E7 / (k,l)-liveness: residual capacity is always usable",
      "holders pin alpha units forever; a request of l-alpha units is "
      "served, a request of l-alpha+1 units starves (it exceeds the "
      "property's premise)");

  support::Table table({"alpha (pinned)", "residual request l-alpha",
                        "served (grants)", "oversized request starves"});
  for (int alpha = 0; alpha < kL; ++alpha) {
    std::uint64_t seed = 900 + static_cast<std::uint64_t>(alpha);
    exp::RunResult residual =
        run_alpha_point(alpha_spec(alpha, kL - alpha, seed));
    const exp::ClassResult* probe = find_class(residual, "probe");
    bool served = probe != nullptr && probe->grants > 0;

    std::string starves = "n/a";
    if (alpha > 0) {
      exp::RunResult oversized = run_alpha_point(
          alpha_spec(alpha, std::min(kL, kL - alpha + 1), seed + 40));
      const exp::ClassResult* big = find_class(oversized, "probe");
      starves = (big != nullptr && big->grants == 0) ? "YES" : "NO";
    }
    table.add_row(
        {support::Table::cell(alpha), support::Table::cell(kL - alpha),
         served ? "YES (" + std::to_string(probe->grants) + ")" : "NO",
         starves});
  }
  table.print(std::cout, "alpha sweep (l = 4, balanced tree n = 7)");
}

// Machine-readable artifact: the liveness operating points (k = l, the
// property's premise) under load with a non-empty hold-forever set I,
// plus a transient-fault phase so the JSON also tracks recovery times
// (the holders re-acquire and camp again after the fault).
void emit_klliveness_scenario() {
  exp::ScenarioSpec spec;
  spec.name = "klliveness";
  spec.topologies = {exp::TopologySpec::tree_balanced(2, 2)};
  spec.kl = {{4, 4}, {2, 4}};
  // The set I: two nodes pin one unit each (alpha = 2); the rest request
  // within the residual capacity l - alpha = 2.
  spec.workload.classes.push_back(
      proto::BehaviorClass::holders("holders", 2, 1));
  spec.workload.base.think = proto::Dist::exponential(64);
  spec.workload.base.cs_duration = proto::Dist::exponential(32);
  spec.workload.base.need = proto::Dist::uniform(1, 2);
  spec.horizon = 1'000'000;
  spec.fault = exp::ScenarioSpec::FaultKind::kTransient;
  spec.seeds = 3;
  spec.base_seed = 900;
  bench::run_scenario(spec);
}

}  // namespace
}  // namespace klex

int main() {
  klex::print_klliveness_table();
  klex::emit_klliveness_scenario();
  return 0;
}
