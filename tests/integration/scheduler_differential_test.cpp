// Differential test for the calendar-queue scheduler: an engine on its
// calendar queues must be bit-identical to the same engine with every
// queue swapped for the heap-only test oracle (Engine::use_heap_queues)
// -- same seeds produce the same event order, hence the same delivery
// trace, the same message counters and the same census-transition
// timestamps -- across the tree, ring and graph topologies, through
// workload churn and both transient-fault flavors. This is the pin behind
// "replace the heap without perturbing a single committed trajectory":
// the two may only differ in their SchedulerCounters and wall-clock.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/builder.hpp"
#include "exp/scenario.hpp"
#include "proto/workload.hpp"

namespace klex {
namespace {

/// Records the exact delivery order: (at, node, channel, type) per event.
class DeliveryTrace : public sim::SimObserver {
 public:
  struct Entry {
    sim::SimTime at;
    sim::NodeId node;
    int channel;
    std::int32_t type;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  void on_deliver(sim::SimTime at, sim::NodeId to, int channel,
                  const sim::Message& msg) override {
    entries_.push_back(Entry{at, to, channel, msg.type});
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct DifferentialParam {
  const char* name;
  exp::TopologySpec topology;
  FaultKind fault;
};

Session build_session(const DifferentialParam& param, bool heap_oracle) {
  proto::WorkloadSpec workload;
  workload.base.think = proto::Dist::exponential(48);
  workload.base.cs_duration = proto::Dist::exponential(24);
  workload.base.need = proto::Dist::uniform(1, 2);
  Session session = SystemBuilder()
                        .topology(param.topology)
                        .kl(2, 4)
                        .cmax(3)
                        .seed(1337)
                        .workload(workload)
                        .fault(param.fault)
                        .build_session();
  if (heap_oracle) session.system->engine().use_heap_queues();
  return session;
}

class SchedulerDifferentialTest
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(SchedulerDifferentialTest, CalendarMatchesHeapBitForBit) {
  const DifferentialParam& param = GetParam();
  Session calendar = build_session(param, /*heap_oracle=*/false);
  Session heap = build_session(param, /*heap_oracle=*/true);

  DeliveryTrace calendar_trace;
  DeliveryTrace heap_trace;
  calendar.system->add_observer(&calendar_trace);
  heap.system->add_observer(&heap_trace);

  // Phase 1: boot to stabilization. The returned time is the exact
  // census-transition timestamp, so equality here pins the detection
  // path, not just the final state.
  sim::SimTime calendar_stab = calendar.system->run_until_stabilized(
      10'000'000);
  sim::SimTime heap_stab = heap.system->run_until_stabilized(10'000'000);
  ASSERT_NE(calendar_stab, sim::kTimeInfinity) << param.name;
  EXPECT_EQ(calendar_stab, heap_stab) << param.name;

  // Phase 2: workload churn (deliveries, timers and callback events all
  // in flight together).
  calendar.begin_workload();
  heap.begin_workload();
  calendar.system->run_until(calendar.system->engine().now() + 200'000);
  heap.system->run_until(heap.system->engine().now() + 200'000);

  // Phase 3: the planned fault, then recovery. The fault rng is seeded
  // identically on both sides.
  support::Rng calendar_rng(0xFA17u);
  support::Rng heap_rng(0xFA17u);
  sim::SimTime calendar_fault_at = calendar.system->engine().now();
  calendar.apply_fault_event(calendar.fault_plan.events.front(),
                             calendar_rng);
  heap.apply_fault_event(heap.fault_plan.events.front(), heap_rng);
  sim::SimTime calendar_rec = calendar.system->run_until_stabilized(
      calendar_fault_at + 80'000'000);
  sim::SimTime heap_rec = heap.system->run_until_stabilized(
      calendar_fault_at + 80'000'000);
  ASSERT_NE(calendar_rec, sim::kTimeInfinity) << param.name;
  EXPECT_EQ(calendar_rec, heap_rec) << param.name;

  // Bit-identical trajectories: every delivery in the same order with
  // the same timestamp, and every cumulative counter equal.
  const sim::EngineStats calendar_stats = calendar.system->engine().stats();
  const sim::EngineStats heap_stats = heap.system->engine().stats();
  EXPECT_EQ(calendar_stats.events_executed, heap_stats.events_executed);
  EXPECT_EQ(calendar_stats.messages_sent, heap_stats.messages_sent);
  EXPECT_EQ(calendar_stats.messages_delivered, heap_stats.messages_delivered);
  EXPECT_EQ(calendar_stats.max_heap_size, heap_stats.max_heap_size);
  EXPECT_EQ(calendar.system->engine().now(), heap.system->engine().now());
  ASSERT_EQ(calendar_trace.entries().size(), heap_trace.entries().size());
  EXPECT_TRUE(calendar_trace.entries() == heap_trace.entries())
      << param.name << ": delivery traces diverged";

  // The heap engine must not have touched the calendar ring; the
  // calendar engine must have actually used it (the loaded phases of
  // this run are far past the sparse threshold).
  EXPECT_EQ(heap_stats.scheduler.bucket_inserts, 0u);
  EXPECT_EQ(heap_stats.scheduler.bucket_scans, 0u);
  EXPECT_EQ(heap_stats.scheduler.bucket_sorts, 0u);
  EXPECT_EQ(heap_stats.scheduler.sorted_events, 0u);
  EXPECT_GT(heap_stats.scheduler.overflow_pushes, 0u);
  EXPECT_GT(calendar_stats.scheduler.bucket_inserts, 0u);
  // A sort covers at least the two events it reorders.
  EXPECT_GE(calendar_stats.scheduler.sorted_events,
            2 * calendar_stats.scheduler.bucket_sorts);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SchedulerDifferentialTest,
    ::testing::Values(
        DifferentialParam{"tree_transient",
                          exp::TopologySpec::tree_random(24, 3),
                          FaultKind::kTransient},
        DifferentialParam{"tree_wipe",
                          exp::TopologySpec::tree_random(24, 3),
                          FaultKind::kChannelWipe},
        DifferentialParam{"ring_transient", exp::TopologySpec::ring(16),
                          FaultKind::kTransient},
        DifferentialParam{"ring_wipe", exp::TopologySpec::ring(16),
                          FaultKind::kChannelWipe},
        DifferentialParam{"graph_transient",
                          exp::TopologySpec::graph_random(20, 12, 7),
                          FaultKind::kTransient},
        DifferentialParam{"graph_wipe",
                          exp::TopologySpec::graph_random(20, 12, 7),
                          FaultKind::kChannelWipe}),
    [](const ::testing::TestParamInfo<DifferentialParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace klex
