// E9 -- ablation: the root's controller timeout period.
//
// The paper assumes the timeout is "sufficiently large to prevent
// congestion". This bench quantifies the trade-off: a short period
// floods the network with duplicate controllers (counted as control
// messages per grant and spurious resets); a long period slows recovery
// after the controller is lost.
#include "api/workload_driver.hpp"
#include "bench_common.hpp"

namespace klex {
namespace {

struct TimeoutCell {
  double control_msgs_per_grant = 0.0;
  std::int64_t grants = 0;
  int resets = 0;
  sim::SimTime recovery_after_loss = 0;
};

class ResetCounter : public proto::Listener {
 public:
  void on_circulation_end(int, int, int, bool reset, sim::SimTime) override {
    if (reset) ++resets;
  }
  int resets = 0;
};

TimeoutCell run_with_timeout(sim::SimTime period, std::uint64_t seed) {
  const int n = 15;
  SystemConfig config;
  config.tree = tree::balanced(2, 3);
  config.k = 2;
  config.l = 3;
  config.timeout_period = period;
  config.seed = seed;
  System system(config);
  ResetCounter resets;
  system.add_listener(&resets);
  // Control sends over the window: a delta of the engine's inline
  // per-type send counter.
  auto control_sent = [&system] {
    return system.engine().sent_of_type(
        static_cast<std::int32_t>(proto::TokenType::kControl));
  };
  TimeoutCell cell;
  if (system.run_until_stabilized(20'000'000) == sim::kTimeInfinity) {
    return cell;
  }

  proto::NodeBehavior behavior;
  behavior.think = proto::Dist::exponential(64);
  behavior.cs_duration = proto::Dist::exponential(32);
  WorkloadDriver driver(system.engine(), system.clients(),
                               proto::uniform_behaviors(n, behavior),
                               support::Rng(seed ^ 0xF00D));
  driver.begin();
  const std::uint64_t control_before = control_sent();
  resets.resets = 0;
  system.run_until(system.engine().now() + 2'000'000);
  cell.grants = driver.total_grants();
  if (cell.grants > 0) {
    cell.control_msgs_per_grant =
        static_cast<double>(control_sent() - control_before) /
                                  static_cast<double>(cell.grants);
  }
  cell.resets = resets.resets;

  // Kill every in-flight message (controller included) and measure the
  // timeout-driven recovery.
  system.engine().clear_channels();
  sim::SimTime lost_at = system.engine().now();
  sim::SimTime recovered =
      system.run_until_stabilized(lost_at + 200'000'000);
  cell.recovery_after_loss =
      recovered == sim::kTimeInfinity ? 0 : recovered - lost_at;
  return cell;
}

void print_timeout_table() {
  bench::print_header(
      "E9 / ablation: controller timeout period (n=15 balanced tree)",
      "short timeouts spam duplicate controllers and spurious resets; "
      "long timeouts slow recovery from controller loss");

  // Reference point: one full circulation is 2(n-1)=28 hops at max delay
  // 16 ~= 450 ticks.
  support::Table table({"timeout (ticks)", "ctrl msgs/grant", "grants",
                        "spurious resets", "recovery after loss"});
  // The root's timer restarts at every valid controller return (degree_r
  // returns per circulation), so only timeouts below the inter-return gap
  // (~a half circulation) generate duplicate controllers.
  for (sim::SimTime period : {16u, 48u, 200u, 800u, 3200u, 12800u, 51200u}) {
    TimeoutCell cell = run_with_timeout(period, 7000 + period);
    table.add_row({support::Table::cell(static_cast<std::uint64_t>(period)),
                   support::Table::cell(cell.control_msgs_per_grant, 1),
                   support::Table::cell(cell.grants),
                   support::Table::cell(cell.resets),
                   support::Table::cell(cell.recovery_after_loss)});
  }
  table.print(std::cout, "timeout period sweep");
  std::cout << "\n(derived default for this configuration: "
            << core::default_timeout(15, 16) << " ticks)\n";
}

void BM_TimeoutRecovery(benchmark::State& state) {
  sim::SimTime period = static_cast<sim::SimTime>(state.range(0));
  std::uint64_t trial = 0;
  for (auto _ : state) {
    TimeoutCell cell = run_with_timeout(period, 7100 + trial++);
    benchmark::DoNotOptimize(cell);
  }
}
BENCHMARK(BM_TimeoutRecovery)->Arg(800)->Arg(12800)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace klex

int main(int argc, char** argv) {
  klex::print_timeout_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
